"""Test-side sampling helpers: n episodes of one task from a generator, and a
record of the walks a module makes."""

from __future__ import annotations

import numpy as np

from policylab.env import sample_episodes


def sample_rows(policy, task, n: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sample_episodes walk over n rows of rng's uniforms, drawn as one (n, T) block:
    (states, actions, log-probs). rollout_group(task, *sample_rows(policy, task, G, rng))
    is the group a trainer block with that stream's uniforms gets."""
    return sample_episodes(policy, task, rng.random((n, task.seq_len)))


def walk_sizes(monkeypatch, module) -> list[int]:
    """The row count of every sample_episodes walk module makes from now on."""
    sizes = []
    walk = module.sample_episodes

    def counted(policy, env, draws):
        sizes.append(len(draws))
        return walk(policy, env, draws)

    monkeypatch.setattr(module, "sample_episodes", counted)
    return sizes

"""Golden outputs: short reference runs must reproduce recorded sha256 values.

A change that alters any sampled token, update or reported metric moves
at least one of these hashes; a pure speed-up or refactor moves none.
The final logits are hashed rather than ``policy.json``, because the
checkpoint embeds the config hash, which changes whenever a config key
is added or removed without any effect on training.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from policylab.cli import main
from policylab.trainer import suite_configs, train

GOLDEN_STEPS = 10


def golden_configs() -> dict:
    """The baseline_zoo configs, plus one alpha > 0 entropy_reg config on a wide table."""
    configs = {f"baseline_zoo/{name}": dataclasses.replace(cfg, log_rollouts=True)
               for name, cfg in suite_configs("baseline_zoo", seed=0,
                                              total_steps=GOLDEN_STEPS).items()}
    wide = suite_configs("entropy_reg", seed=0, total_steps=GOLDEN_STEPS)["grpo_alpha_0.003"]
    configs["entropy_reg/grpo_alpha_0.003_V32_T12_M16"] = dataclasses.replace(
        wide, vocab_size=32, seq_len=12, modulus=16, log_rollouts=True)
    return configs


def output_digests(config, out_dir) -> dict[str, str]:
    result = train(config, out_dir=out_dir)
    sha = lambda data: hashlib.sha256(data).hexdigest()
    return {
        "metrics.csv": sha((out_dir / "metrics.csv").read_bytes()),
        "rollouts.jsonl": sha((out_dir / "rollouts.jsonl").read_bytes()),
        "logits": sha(result.policy.logits.tobytes()),
    }


GOLDEN = {
    "baseline_zoo/grpo": {
        "metrics.csv": "076f1f3bf20b9ff12efed089979f6d2cdd2afe121d2a287edbbdc45316a4294c",
        "rollouts.jsonl": "5a190b1a746a2748fcc90ecaee20d30c1cc7574c7fe7f161f51c4695277302e0",
        "logits": "b7c5b512c7b1544242f6ffe49d599f1dcfad49528cddd0c404780fa5cc1b3147",
    },
    "baseline_zoo/dapo": {
        "metrics.csv": "a6f87e8ebce7d01481f73e2101abafe8b5ab04e14ad5d9711cd82755991c39d5",
        "rollouts.jsonl": "59a3ae6eabe2f3bb85c48077dd04d901d80a424eecaf52e4e49349eb130c5bff",
        "logits": "c81966f819586db919cf13c43cf73d5b263e93bbd973c63b249fd4daee5b1acd",
    },
    "baseline_zoo/cispo": {
        "metrics.csv": "55e1e83932a04891ddb6f08feeaf3f0f3203c0b99f462bdcc58926a513bcd04d",
        "rollouts.jsonl": "d77e5d92201d00690ce07d7dc24c3871f80858a4d16ff4c8542dfebc5f5e5e1a",
        "logits": "bbcbdd366aaee2bcf6295d2d430b215d704a9fc40bb24830241ba7ad0b0e6179",
    },
    "baseline_zoo/gspo": {
        "metrics.csv": "4dae5c66b0215a146b04ce4c258c93b05cec9701159218ee9bd575f2f6d2af8d",
        "rollouts.jsonl": "4b5a581f9e5953c07fdf56054597208af31e014d201cf4d62e33258e83df6f68",
        "logits": "9759c128d7ce4c6d01661762ceedc8ac8aed0212022b661e8d0228dbf825dd4d",
    },
    "baseline_zoo/ce_gppo": {
        "metrics.csv": "1af98064e777606f2ca4f65508aedb0a370aef8156a6e42e27854f890a79ad53",
        "rollouts.jsonl": "b3e850edc161af5fb549897ad30bca52b529448ff262847ea7977c0190b1307e",
        "logits": "18a13512be416a93e710f3da881f26d71f506ae365682b10a906e76fea86bea4",
    },
    "entropy_reg/grpo_alpha_0.003_V32_T12_M16": {
        "metrics.csv": "3a21c60c70905a28e166abe18ce7e9a8126f9d85534ea7d145b377e9ae908e55",
        "rollouts.jsonl": "6aad96553890fa2a5b33f657fc291d4eff67d8c910e7f740b2e3462baeb8abfc",
        "logits": "c8a23811f70b8db06376342e4582bbfd967d84b0f3d0409d19d9f2d002d1a9c6",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, tmp_path):
    assert output_digests(golden_configs()[name], tmp_path) == GOLDEN[name]


def test_golden_table_covers_every_config():
    assert sorted(GOLDEN) == sorted(golden_configs())


# sha256 of the `policylab analyze` JSON for a run's log and final checkpoint:
# the wide run, and dapo, whose log holds every sampled group, the ones dynamic
# sampling filtered out included (11 of the 80 groups of the 10-step seed-0 run)
ANALYZE_GOLDEN = {
    "baseline_zoo/dapo":
        "82b44e80acd0917fd1dd28af100242f2be4530e56c9a3a7a7b1ee48fa3e33995",
    "entropy_reg/grpo_alpha_0.003_V32_T12_M16":
        "249ca971c022d6aaf83646038fba1ca47266d76655aa120ee2bf0eeb4cc79003",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_golden_analyze(name, tmp_path):
    train(golden_configs()[name], out_dir=tmp_path)
    report = tmp_path / "analyze.json"
    code = main(["analyze", "--log", str(tmp_path / "rollouts.jsonl"),
                 "--checkpoint", str(tmp_path / "policy.json"), "--json", str(report)])
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == ANALYZE_GOLDEN[name]


# sha256 of the `policylab entropy-predict` JSON: the default random table, a
# wide random table, and the final checkpoint of the wide 10-step run
ENTROPY_PREDICT_GOLDEN = {
    "seed_0": ([], "a81368b2b40285bcfd74bf4a7888a77e7bf11e35e69ac38698fe34d1c69f140d"),
    "seed_3_193x32": (["--seed", "3", "--num-states", "193", "--num-actions", "32",
                       "--instances", "12", "--eta", "0.02"],
                      "e24f91faaf4ae305110c539659df5c06d3d0e33276ccfc095abf8625157bb273"),
    "wide_checkpoint": (["--checkpoint", "{checkpoint}", "--instances", "24"],
                        "e5d312156e37ca0cdda954bbcc8e21df6e0aa0df2276d5f2e73d630ae4281b90"),
}


@pytest.mark.parametrize("name", sorted(ENTROPY_PREDICT_GOLDEN))
def test_golden_entropy_predict(name, tmp_path, capsys):
    flags, digest = ENTROPY_PREDICT_GOLDEN[name]
    checkpoint = tmp_path / "policy.json"
    if "{checkpoint}" in flags:
        train(golden_configs()["entropy_reg/grpo_alpha_0.003_V32_T12_M16"], out_dir=tmp_path)
    report = tmp_path / "entropy_predict.json"
    argv = [flag.format(checkpoint=checkpoint) for flag in flags]
    assert main(["entropy-predict", *argv, "--json", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

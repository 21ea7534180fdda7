#!/usr/bin/env python3
"""Record golden final-logits hashes for the training workloads.

Usage, from the root of a checkout:

    python3 perfbench/make_goldens.py --seeds 64

Runs one round of ref_zoo and of wide_entropy_reg for each of the seeds
0 .. N-1 and rewrites ``perfbench/goldens.json`` with the final logits
sha256 of every training run. Only regenerate after a change that is
meant to alter training updates, and say so in that change. A seed whose
round has a failed op is reported and not recorded; the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

TRAINING_WORKLOADS = ("ref_zoo", "wide_entropy_reg")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True,
                        help="record seeds 0 .. N-1")
    args = parser.parse_args()

    run.cap_blas_threads()
    run.import_package()
    from tracer import StepHook
    from workloads import WORKLOADS

    goldens: dict[str, dict[str, dict[str, str]]] = {}
    workdir = run.WORK / "goldens"
    hook = StepHook()
    hook.install()
    failures = 0
    try:
        for name in TRAINING_WORKLOADS:
            for seed in range(args.seeds):
                workload = WORKLOADS[name](seed, workdir, {})
                result = workload.run_round(hook)
                bad = [op for op in result.ops if not op[1]]
                for label, _, problem in bad:
                    print(f"{name} seed {seed}: FAILED {label}: {problem}", flush=True)
                failures += bool(bad)
                if not bad:
                    goldens.setdefault(name, {})[str(seed)] = dict(workload.expected)
                print(f"{name} seed {seed}: {len(result.ops) - len(bad)}/{len(result.ops)} "
                      f"ops passed", flush=True)
    finally:
        hook.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

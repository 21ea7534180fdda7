"""Golden outputs: short reference runs must reproduce recorded sha256 values.

A change that alters any sampled token, update or reported metric moves
at least one of these hashes; a pure speed-up or refactor moves none.
The final logits are hashed rather than ``policy.json``, because the
checkpoint embeds the config hash, which changes whenever a config key
is added or removed without any effect on training.

numpy's float64 exp and log round differently on AVX-512 (X86_V4) and
AVX2 (X86_V3) hosts, so every golden table here and in test_gradcheck
holds one table per dispatch class. Run this file to print the running
class's tables (src on PYTHONPATH):

    python tests/test_golden.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" python tests/test_golden.py

The second line selects X86_V3 on an AVX-512 host.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import policylab
from policylab.cli import main
from policylab.trainer import suite_configs, train

GOLDEN_STEPS = 10
WIDE = "entropy_reg/grpo_alpha_0.003_V32_T12_M16"
# the environment that makes numpy select X86_V3 on an X86_V4 host
AVX2_ONLY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def dispatch_class() -> str:
    """The SIMD target numpy's float64 exp and log run on, such as X86_V4."""
    if not hasattr(np.lib, "introspect"):  # numpy < 2 does not report its dispatch
        return f"unknown (numpy {np.__version__})"
    info = np.lib.introspect.opt_func_info(func_name="^(exp|log)$", signature="float64")
    return "+".join(sorted({target["current"] for signatures in info.values()
                            for target in signatures.values()}))


def for_this_host(tables: dict) -> dict:
    """The table of this host's dispatch class; a host of another class fails, naming it."""
    name = dispatch_class()
    if name not in tables:
        pytest.fail(f"no golden table for numpy's {name} dispatch of float64 exp and log "
                    f"(tables exist for {sorted(tables)}): run python tests/test_golden.py "
                    f"on such a host to print one")
    return tables[name]


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


# per dispatch class (see dispatch_class), the digests of each golden config's run
GOLDEN = {
    "X86_V4": {
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
    },
    "X86_V3": {
        "baseline_zoo/grpo": {
            "metrics.csv": "2e17b4b6949de63ffad578a6f6b3e33c81761959a66824b9f3a714c3d5a4215d",
            "rollouts.jsonl": "7eda8fc241c4f481ce98eee2c43fd64f9b6d17b4e619462b86486d35a7cf8254",
            "logits": "3a745aadaff44caba63e23ef34416fef07cc33e4517940f5e8555ef0f5a16afd",
        },
        "baseline_zoo/dapo": {
            "metrics.csv": "de47612e052b667fa8ad4b3d9e41b8efe5e03eb362825bf6ac55cda0f2952e62",
            "rollouts.jsonl": "338c5e03148ed7044b8e8b393e0bf47246ac7948de6abe60b8e8654e4c2ea804",
            "logits": "72d8071da6fc28da7670c82105d68f671c97cb8ae2512ec33d78d31e4869fd22",
        },
        "baseline_zoo/cispo": {
            "metrics.csv": "a3fb92823623c54a5c3140de34022e5e347a81db6ed9de4c8f5a1bb26aea958a",
            "rollouts.jsonl": "646ca9721ab154029c39b8b3a5149ba7d9312dec8e81fc3c6770507995b3169d",
            "logits": "414568ee17871e65b85a852b8eb17b47f8f4ffba82ccce47817f8cd41c890b1a",
        },
        "baseline_zoo/gspo": {
            "metrics.csv": "6f7665163cf3034d763fd5428fdce63924c49b7cd69a960baef3656cbecb1c20",
            "rollouts.jsonl": "419a34a5e278f60e4a9dcb1dcb2c4cbfb6d8ae8aff1a9c3d4a6dc807a455d36c",
            "logits": "37543d0dffbd3e61b91269de69d04bdaa5781a8a73cd2400ba3c7490fdc9c3db",
        },
        "baseline_zoo/ce_gppo": {
            "metrics.csv": "d1a93a08d2f2d15d3177b668f7ebb68d3b6a5a42257cd275c87c10878040f231",
            "rollouts.jsonl": "66396dbbe01b2bdeef04544232c8617fca6b22f88e96dd4c7bf89d47c99b8e53",
            "logits": "508b3a37b14ee7714504487e2ce8055f53d01166ecc66641c73962edd0970558",
        },
        "entropy_reg/grpo_alpha_0.003_V32_T12_M16": {
            "metrics.csv": "a272becd4a05edc54129c47f9130ce5aa4423345afc3424481e36ab892d13df6",
            "rollouts.jsonl": "c62a39c7219bd66b653a2ee729209bf743ace2df151ec92be34295b93f8928da",
            "logits": "5921a327945f2dc006844f6aad0b6a38e36135250ba1e2c22403b3cd042c3e04",
        },
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN["X86_V4"]))
def test_golden_outputs(name, tmp_path):
    assert output_digests(golden_configs()[name], tmp_path) == for_this_host(GOLDEN)[name]


def test_golden_table_covers_every_config():
    from test_gradcheck import REPORT_GOLDEN
    assert sorted(GOLDEN["X86_V4"]) == sorted(golden_configs())
    for tables in (GOLDEN, ANALYZE_GOLDEN, ENTROPY_PREDICT_GOLDEN, REPORT_GOLDEN):
        assert list(tables) == ["X86_V4", "X86_V3"]
        assert sorted(tables["X86_V3"]) == sorted(tables["X86_V4"])


# sha256 of the `policylab analyze` JSON for a run's log and final checkpoint:
# the wide run, and dapo, whose log holds every sampled group, the ones dynamic
# sampling filtered out included (11 of the 80 groups of the 10-step seed-0 run)
ANALYZE_GOLDEN = {
    "X86_V4": {
        "baseline_zoo/dapo":
            "82b44e80acd0917fd1dd28af100242f2be4530e56c9a3a7a7b1ee48fa3e33995",
        "entropy_reg/grpo_alpha_0.003_V32_T12_M16":
            "249ca971c022d6aaf83646038fba1ca47266d76655aa120ee2bf0eeb4cc79003",
    },
    "X86_V3": {
        "baseline_zoo/dapo":
            "0fbdd2db05237c2655c3e2e8a9b681cafd4796af2ac685eb058c400406a10ae7",
        "entropy_reg/grpo_alpha_0.003_V32_T12_M16":
            "99ab5593310a5a0ffcb43dd3bafd6e2c2711233f7cfaf86686836ba65ef1dc11",
    },
}


def analyze_digest(run_dir: Path) -> str:
    report = run_dir / "analyze.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--log", str(run_dir / "rollouts.jsonl"),
                     "--checkpoint", str(run_dir / "policy.json"), "--json", str(report)])
    assert code == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN["X86_V4"]))
def test_golden_analyze(name, tmp_path):
    train(golden_configs()[name], out_dir=tmp_path)
    assert analyze_digest(tmp_path) == for_this_host(ANALYZE_GOLDEN)[name]


# sha256 of the `policylab entropy-predict` JSON: the default random table, a
# wide random table, and the final checkpoint of the wide 10-step run
ENTROPY_PREDICT_FLAGS = {
    "seed_0": [],
    "seed_3_193x32": ["--seed", "3", "--num-states", "193", "--num-actions", "32",
                       "--instances", "12", "--eta", "0.02"],
    "wide_checkpoint": ["--checkpoint", "{checkpoint}", "--instances", "24"],
}
ENTROPY_PREDICT_GOLDEN = {
    "X86_V4": {
        "seed_0": "a81368b2b40285bcfd74bf4a7888a77e7bf11e35e69ac38698fe34d1c69f140d",
        "seed_3_193x32": "e24f91faaf4ae305110c539659df5c06d3d0e33276ccfc095abf8625157bb273",
        "wide_checkpoint": "e5d312156e37ca0cdda954bbcc8e21df6e0aa0df2276d5f2e73d630ae4281b90",
    },
    "X86_V3": {
        "seed_0": "e095d9106372138dd4c8f74e7d9949c9b8e76824e08d27a69b76f11c04be7736",
        "seed_3_193x32": "c0e554609c751529729241ce858ce2a48fe1e9110cdf49ee3292a36d9829b21b",
        "wide_checkpoint": "212a97485105f79d29f8203f8739d32bff6152cb8a85930ecf8571e8aa7eec95",
    },
}


def entropy_predict_digest(name: str, out_dir: Path, wide_checkpoint: Path) -> str:
    argv = [flag.format(checkpoint=wide_checkpoint) for flag in ENTROPY_PREDICT_FLAGS[name]]
    report = out_dir / f"entropy_predict_{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["entropy-predict", *argv, "--json", str(report)]) == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ENTROPY_PREDICT_GOLDEN["X86_V4"]))
def test_golden_entropy_predict(name, tmp_path):
    if "{checkpoint}" in ENTROPY_PREDICT_FLAGS[name]:
        train(golden_configs()[WIDE], out_dir=tmp_path)
    assert (entropy_predict_digest(name, tmp_path, tmp_path / "policy.json")
            == for_this_host(ENTROPY_PREDICT_GOLDEN)[name])


def test_the_other_dispatch_class_still_matches_its_table():
    # each class's table stays live on a host that can run both: an X86_V4 host reruns
    # one golden run and one gradcheck report under X86_V3, in a subprocess
    tests = Path(__file__).resolve().parent
    src = Path(policylab.__file__).resolve().parent.parent
    env = {**os.environ, **AVX2_ONLY,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", "import test_golden; "
                            "print(test_golden.dispatch_class())"],
                           cwd=tests, env=env, capture_output=True, text=True, check=True)
    if dispatch_class() != "X86_V4" or probe.stdout.strip() != "X86_V3":
        pytest.skip(f"this host runs {dispatch_class()} and cannot select the other class")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_golden.py::test_golden_outputs[baseline_zoo/grpo]",
         "tests/test_gradcheck.py::test_report_golden[gspo-0]"],
        cwd=tests.parent, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


def _literal(value, indent: int = 0) -> str:
    """value as this file writes its tables: nested dicts one entry a line, double quotes."""
    if isinstance(value, dict):
        pad = " " * (indent + 4)
        entries = "".join(f"{pad}{_literal(k)}: {_literal(v, indent + 4)},\n"
                          for k, v in value.items())
        return "{\n" + entries + " " * indent + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_literal, value)) + ")"
    return json.dumps(value)


def print_tables() -> None:
    """Print the running dispatch class's digests as the literals of every golden table."""
    from test_gradcheck import REPORT_GOLDEN, report_digest
    outputs, analyzed = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in golden_configs().items():
            run_dir = Path(tmp) / name
            run_dir.mkdir(parents=True)
            outputs[name] = output_digests(config, run_dir)
            if name in ANALYZE_GOLDEN["X86_V4"]:
                analyzed[name] = analyze_digest(run_dir)
        wide = Path(tmp) / WIDE / "policy.json"
        predicted = {name: entropy_predict_digest(name, Path(tmp), wide)
                     for name in ENTROPY_PREDICT_FLAGS}
    reports = {key: report_digest(*key) for key in REPORT_GOLDEN["X86_V4"]}
    for title, table in (("GOLDEN", outputs), ("ANALYZE_GOLDEN", analyzed),
                         ("ENTROPY_PREDICT_GOLDEN", predicted), ("REPORT_GOLDEN", reports)):
        print(f"{title}[{_literal(dispatch_class())}] = {_literal(table)}")


if __name__ == "__main__":
    print_tables()

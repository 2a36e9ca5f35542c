"""Golden outputs: every file the CLI writes on tiny seeded inputs, by SHA-256.

The pipeline trains both architectures at lag 0 and lag 2 (and one Gaussian
run with a sparsity target), generates from each model, scores an input with
an overlay column, and compares real and synthetic series. On the environment
recorded in ``data/golden.json`` every output must hash as recorded, whatever
the BLAS thread count; on any other environment the test only checks that two
runs write identical bytes, and says so in a warning.

Run this file as a script to record the outputs and the environment again:

    python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # as a script, import this checkout's crbm
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from crbm.cli import main
from helpers import write_dated_csv

GOLDEN = Path(__file__).parent / "data" / "golden.json"

BASE_CONFIG = "epochs=3\nn_hidden=8\nn_chains=8\nbatch_size=32\n"
# model name -> (architecture, config text)
MODELS = {
    "gaussian_lag0": ("gaussian", BASE_CONFIG + "lag=0\n"),
    "gaussian_lag2": ("gaussian", BASE_CONFIG + "lag=2\n"),
    "gaussian_lag2_sparse": ("gaussian", BASE_CONFIG
                             + "lag=2\nsparsity_target=0.1\nsparsity_cost=0.5\n"),
    "bernoulli_lag0": ("bernoulli", BASE_CONFIG + "lag=0\n"),
    "bernoulli_lag2": ("bernoulli", BASE_CONFIG + "lag=2\n"),
}
ASSETS = ["EQ", "RATES", "FX"]


class GoldenEnvironmentWarning(Warning):
    """The recorded hashes belong to another environment."""


def environment() -> dict:
    """What output bits depend on besides the code: versions, BLAS, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


def _compared(env: dict) -> dict:
    """The environment without its thread count, which is recorded but not
    compared: every output hashes the same at 1, 2 and unset threads."""
    return {key: value for key, value in env.items() if key != "OPENBLAS_NUM_THREADS"}


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv


def run_pipeline(root: Path) -> dict:
    """Run every command under ``root``; return {output path: SHA-256}."""
    root.mkdir(exist_ok=True)
    rng = np.random.default_rng(2024)
    factor = rng.standard_normal((200, 1))
    values = 0.6 * factor + 0.8 * rng.standard_normal((200, 4))
    real, scored = root / "real.csv", root / "scored.csv"
    write_dated_csv(real, values[:160, :3], names=ASSETS)
    write_dated_csv(scored, values[160:], names=ASSETS + ["VIX"])
    out = root / "out"
    for name, (arch, config) in MODELS.items():
        cfg = root / f"{name}.cfg"
        cfg.write_text(config)
        model_dir = out / name
        _cli("train", "--input", real, "--arch", arch, "--seed", 11, "--bits", 4,
             "--config", cfg, "--output-dir", model_dir)
        model = model_dir / "model.crbm"
        _cli("generate", "--model", model, "--steps", 40, "--burn-in", 3, "--seed", 7,
             "--output-dir", model_dir)
        _cli("energy", "--model", model, "--input", scored, "--overlay-column", "VIX",
             "--flag-window", 10, "--output-dir", model_dir)
        _cli("stats", "--real", real, "--synthetic", model_dir / "synthetic.csv",
             "--qq-quantiles", 9, "--output-dir", model_dir / "stats")
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    hashes = run_pipeline(tmp_path / "first")
    assert sorted(hashes) == sorted(golden["outputs"])
    if _compared(golden["environment"]) == _compared(environment()):
        changed = [path for path, digest in hashes.items() if golden["outputs"][path] != digest]
        assert not changed, f"outputs differ from {GOLDEN.name}: {changed}"
        return
    assert run_pipeline(tmp_path / "second") == hashes
    warnings.warn(GoldenEnvironmentWarning(
        f"environment {environment()} is not the one recorded in {GOLDEN.name}; "
        "checked only that two runs write identical bytes"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        outputs = run_pipeline(Path(scratch))
    GOLDEN.write_text(json.dumps({"environment": environment(), "outputs": outputs},
                                 indent=1) + "\n")
    print(f"recorded {len(outputs)} outputs in {GOLDEN}")

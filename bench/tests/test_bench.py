"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest bench/tests -q

The workloads run here at toy sizes through ``crbm.cli.main`` in this
process, so the tests take seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import crbm.training  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from launcher import Launcher  # noqa: E402
from workloads import Fit, Monitor, Rollout  # noqa: E402

TOY = {
    "fit": lambda: Fit(seed=3, n_rows=300, epochs=2, n_hidden=4),
    "rollout": lambda: Rollout(seed=3, n_rows=200, bits=4, train_epochs=1, steps=50,
                               n_hidden=4),
    "monitor": lambda: Monitor(seed=3, n_assets=3, n_rows=400, synthetic_rows=200,
                               qq_quantiles=9, n_hidden=4),
}


def set_up(workload, tmp_path):
    """Set the workload up in-process; return (work dir, timed calls)."""
    work = str(tmp_path / "work")
    os.makedirs(work)
    _, outcomes = run.in_process(workload.setup_calls(work))
    assert all(rc == 0 for rc, _ in outcomes), outcomes
    return work, workload.timed_calls(work, str(tmp_path / "out"))


def test_generator_is_deterministic_for_a_seed():
    first = inputs.csv_text(inputs.returns(11, 300, 3))
    assert first == inputs.csv_text(inputs.returns(11, 300, 3))
    assert first != inputs.csv_text(inputs.returns(12, 300, 3))
    lines = first.splitlines()
    assert lines[0] == "date,asset0,asset1,asset2"
    assert lines[1].startswith(inputs.START_DATE.isoformat() + ",")
    assert len(lines) == 301


def test_generated_returns_are_heavy_tailed_and_correlated():
    values = inputs.returns(5, 20000, 2)
    centred = values - values.mean(axis=0)
    kurtosis = (centred**4).mean(axis=0) / (centred**2).mean(axis=0) ** 2 - 3.0
    assert (kurtosis > 1.0).all()
    assert 0.15 < np.corrcoef(values.T)[0, 1] < 0.8


def corrupt_truncate(path):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) * 2 // 3])


def set_cell(column, value):
    """A corruption that writes ``value`` into one cell of the second data row."""
    def corrupt(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    corrupt.__name__ = f"cell{column}_{value}"
    return corrupt


def drop_last_row(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-2] + [""]))


def flip_byte(path):
    with open(path, "r+b") as fh:
        fh.seek(-20, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-20, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0x01]))


CORRUPTIONS = [
    ("fit", "train", "train_report.csv", corrupt_truncate),
    ("fit", "train", "train_report.csv", set_cell(-2, "nan")),
    ("fit", "train", "model.crbm", corrupt_truncate),
    ("fit", "train", "model.crbm", flip_byte),
    ("rollout", "generate", "synthetic.csv", corrupt_truncate),
    ("rollout", "generate", "synthetic.csv", set_cell(-2, "nan")),
    ("monitor", "energy", "free_energy.csv", corrupt_truncate),
    ("monitor", "energy", "free_energy.csv", set_cell(-2, "nan")),
    ("monitor", "stats", "qq_asset1.csv", corrupt_truncate),
    ("monitor", "stats", "summary.csv", flip_byte),
]


@pytest.mark.parametrize("name,call_name,filename,corrupt", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[2]}-{c[3].__name__}" for c in CORRUPTIONS])
def test_corrupted_output_counts_as_failure(tmp_path, name, call_name, filename, corrupt):
    _, calls = set_up(TOY[name](), tmp_path)
    _, outcomes = run.in_process(calls)
    tally = run.Tally()
    reference = run.check_calls(tally, "first", calls, outcomes, None)
    assert tally.failed == 0, tally.problems

    n = next(i for i, c in enumerate(calls) if c.name == call_name)
    corrupt(os.path.join(calls[n].out_dir, filename))
    run.check_calls(tally, "again", calls, outcomes, reference)
    assert tally.failed == 1, tally.problems
    assert tally.problems[0].startswith(f"again {call_name}: ")


# Outputs that are wrong in content; caught without comparing bytes.
CONTENT_ERRORS = [
    ("fit", "train", "train_report.csv", drop_last_row),
    ("rollout", "generate", "synthetic.csv", drop_last_row),
    ("rollout", "generate", "synthetic.csv", set_cell(1, "1e9")),
    ("monitor", "energy", "free_energy.csv", set_cell(1, "1e9")),
    ("monitor", "energy", "free_energy.csv", set_cell(4, "2")),
    ("monitor", "energy", "free_energy.csv", set_cell(0, "1999-01-01")),
]


@pytest.mark.parametrize("name,call_name,filename,corrupt", CONTENT_ERRORS,
                         ids=[f"{c[0]}-{c[2]}-{c[3].__name__}" for c in CONTENT_ERRORS])
def test_wrong_content_fails_its_check(tmp_path, name, call_name, filename, corrupt):
    _, calls = set_up(TOY[name](), tmp_path)
    _, outcomes = run.in_process(calls)
    n = next(i for i, c in enumerate(calls) if c.name == call_name)
    assert run.verify(calls[n], 0, outcomes[n][1], None)[0] is None
    corrupt(os.path.join(calls[n].out_dir, filename))
    assert run.verify(calls[n], 0, outcomes[n][1], None)[0] is not None


def test_nonzero_exit_and_missing_score_count_as_failures(tmp_path):
    _, calls = set_up(TOY["monitor"](), tmp_path)
    _, outcomes = run.in_process(calls)
    stats = calls[1]
    assert run.verify(stats, 0, outcomes[1][1], None)[0] is None
    assert run.verify(stats, 1, outcomes[1][1], None)[0].startswith("exit code 1")
    assert "fidelity" in run.verify(stats, 0, "", None)[0]


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_self_times_fit_in_wall_time(tmp_path, name):
    original = crbm.training.run_chains
    _, calls = set_up(TOY[name](), tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, outcomes = run.in_process(calls)
    finally:
        tracer.uninstall()
    assert all(rc == 0 for rc, _ in outcomes)
    assert crbm.training.run_chains is original
    assert tracer.spans
    own = tracing.self_times(tracer.spans)
    assert min(own) >= 0.0
    assert sum(own) <= wall
    metrics = tracing.layer_metrics(tracer.spans, wall)
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    shares = tracing.layer_shares(tracer.spans, wall)
    assert shares["untraced"] >= 0.0


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    held = np.ones(200 * 2**20 // 8)  # about 200 MiB resident in this process
    with Launcher(dict(os.environ), 60.0) as launcher:
        result = launcher.run([sys.executable, "-c", "print('ok')"], tmp_path / "out.txt")
    assert held.sum() > 0
    assert (result.returncode, result.stdout) == (0, "ok\n")
    assert 0 < result.rss_mib < 50
    assert 0 < result.cpu_s <= result.wall_s


def test_launcher_kills_a_child_that_outlives_its_timeout(tmp_path):
    with Launcher(dict(os.environ), 0.5) as launcher:
        result = launcher.run([sys.executable, "-c", "import time; time.sleep(60)"],
                              tmp_path / "out.txt")
    assert result.returncode != 0
    assert result.wall_s < 30


def test_reported_metrics_match_the_benchmark_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(end_to_end) == {"wall_s", "cpu_s", "peak_rss_mib", "setup_s"}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced_names = set(tracing.layer_metrics([], 1.0)) | {
        "import.crbm_s", "import.numpy_s", "import.rss_mib", "trace.overhead_s",
        "trace.overhead_iqr_s"}
    assert set(per_layer) == traced_names
    for name, unit in {**end_to_end, **per_layer}.items():
        assert run.unit(name) == unit, name
    assert {w["name"] for w in spec["workloads"]} == set(TOY)


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Command-line behavior: files written, error paths, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crbm
from crbm import cli, data
from crbm.cli import main
from crbm.data import ZScoreParams
from crbm.model_io import ModelFile, load_model, save_model
from helpers import random_gaussian_model, runaway_gaussian_model, write_forged_model, \
    write_model_with_slot

FIXTURE = Path(__file__).parent / "data" / "toy.csv"


def run(*argv):
    return main([str(a) for a in argv])


def python(*argv):
    """Run a fresh interpreter that imports this checkout's crbm."""
    src = str(Path(crbm.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def train_args(out_dir, config, extra=()):
    return ["train", "--input", FIXTURE, "--arch", "gaussian", "--seed", "5",
            "--output-dir", out_dir, "--config", config, *extra]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("epochs=3\nn_hidden=6\nlag=2\nn_chains=8\nbatch_size=32\n")
    return path


@pytest.fixture
def trained(tmp_path, config_path):
    out = tmp_path / "out"
    assert run(*train_args(out, config_path)) == 0
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("train", "--input", FIXTURE, "--arch", "gaussian",
                "--output-dir", tmp_path)
        assert err.value.code == 2

    def test_unreadable_input_is_runtime_error(self, tmp_path, config_path, capsys):
        code = run(*train_args(tmp_path / "o", config_path)[:3],
                   "--input", tmp_path / "missing.csv", "--arch", "gaussian",
                   "--seed", "5", "--output-dir", tmp_path / "o",
                   "--config", config_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_writes_model_and_report(self, trained):
        mf = load_model(trained / "model.crbm")
        assert mf.asset_names == ["EQ", "RATES", "FX"]
        assert mf.params.lag == 2
        assert mf.seed == 5
        rows = read_csv(trained / "train_report.csv")
        assert len(rows) == 3
        assert set(rows[0]) == {"epoch", "recon_mse", "free_energy_train",
                                "free_energy_holdout"}

    def test_flag_overrides_config(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert run(*train_args(out, config_path, ["--lag", "1"])) == 0
        assert load_model(out / "model.crbm").params.lag == 1

    def test_split_date_limits_training_rows(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run(*train_args(out, config_path,
                               ["--split-date", "2020-02-19"])) == 0
        assert "trained on 50 rows" in capsys.readouterr().out
        mf = load_model(out / "model.crbm")
        # codec fitted on the training split only
        table = np.loadtxt(FIXTURE, delimiter=",", skiprows=1,
                           usecols=(1, 2, 3))[:50]
        np.testing.assert_allclose(mf.codec.mu, table.mean(axis=0), atol=1e-12)

    def test_bernoulli_arch_with_bits(self, tmp_path, config_path):
        out = tmp_path / "out"
        args = ["train", "--input", FIXTURE, "--arch", "bernoulli", "--seed",
                "5", "--output-dir", out, "--config", config_path, "--bits", "4"]
        assert run(*args) == 0
        mf = load_model(out / "model.crbm")
        assert mf.codec.bits_per_asset == 4
        assert mf.params.n_visible == 12

    def test_rerun_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(*train_args(out1, config_path)) == 0
        assert run(*train_args(out2, config_path)) == 0
        assert (out1 / "model.crbm").read_bytes() == (out2 / "model.crbm").read_bytes()
        assert (out1 / "train_report.csv").read_bytes() == \
            (out2 / "train_report.csv").read_bytes()


class TestGenerate:
    def test_steps_rows_and_schema(self, trained, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--model", trained / "model.crbm", "--steps",
                   "10", "--seed", "3", "--output-dir", out) == 0
        rows = read_csv(out / "synthetic.csv")
        assert len(rows) == 10
        assert list(rows[0]) == ["step", "EQ", "RATES", "FX"]
        assert [r["step"] for r in rows] == [str(i) for i in range(10)]

    def test_same_seed_identical_output(self, trained, tmp_path):
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert run("generate", "--model", trained / "model.crbm", "--steps",
                       "5", "--seed", "9", "--output-dir", out) == 0
            outs.append((out / "synthetic.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unreadable_model(self, tmp_path, capsys):
        code = run("generate", "--model", tmp_path / "no.crbm", "--steps", "5",
                   "--seed", "1", "--output-dir", tmp_path)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_forged_model_header_is_a_one_line_error(self, tmp_path, capsys):
        # the header declares 2**30 hidden units in a 45-byte file
        write_forged_model(tmp_path / "forged.crbm", n_hidden=2**30)
        code = run("generate", "--model", tmp_path / "forged.crbm", "--steps", "5",
                   "--seed", "1", "--output-dir", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated model file") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_sigma_other_than_one_is_a_one_line_error(self, tmp_path, capsys):
        mf = ModelFile(params=random_gaussian_model(np.random.default_rng(3), 2, 3),
                       codec=ZScoreParams(np.zeros(2), np.ones(2)), asset_names=["x", "y"],
                       seed=0, seed_window=np.zeros(0))
        write_model_with_slot(tmp_path / "scaled.crbm", mf, 2.0)
        code = run("generate", "--model", tmp_path / "scaled.crbm", "--steps", "5",
                   "--seed", "1", "--output-dir", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sigma" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_runaway_rollout_is_a_one_line_error(self, tmp_path, capsys):
        save_model(ModelFile(params=runaway_gaussian_model(), asset_names=["x", "y"],
                             codec=ZScoreParams(np.zeros(2), np.ones(2)), seed=0,
                             seed_window=np.ones(2)), tmp_path / "runaway.crbm")
        code = run("generate", "--model", tmp_path / "runaway.crbm", "--steps", "5000",
                   "--seed", "1", "--burn-in", "2", "--output-dir", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rollout went non-finite at step ")
        assert err.endswith(" of 5000\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestStartup:
    def test_import_loads_no_scipy(self):
        proc = python("-c", "import sys, crbm; "
                            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_help_loads_no_scipy(self):
        proc = python("-X", "importtime", "-m", "crbm", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage:")
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "crbm.cli" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []


class TestEnergy:
    def test_scores_and_flags_schema(self, trained, tmp_path):
        out = tmp_path / "en"
        assert run("energy", "--model", trained / "model.crbm", "--input",
                   FIXTURE, "--output-dir", out, "--flag-window", "30") == 0
        rows = read_csv(out / "free_energy.csv")
        assert len(rows) == 198  # 200 rows minus lag 2
        assert list(rows[0]) == ["date", "total", "quadratic", "structural", "flag"]
        assert rows[0]["date"] == "2020-01-03"
        for r in rows:
            assert float(r["total"]) == pytest.approx(
                float(r["quadratic"]) + float(r["structural"]), abs=1e-9)
            assert r["flag"] in ("0", "1")

    def test_window_too_long_to_flag_is_reported(self, trained, tmp_path, capsys):
        # 198 scored rows: a 197-row baseline leaves one row to flag, 198 none
        expected = "no row can be flagged: --flag-window 198 is not below the 198 scored rows"
        for window, notice in ((197, False), (198, True)):
            assert run("energy", "--model", trained / "model.crbm", "--input", FIXTURE,
                       "--output-dir", tmp_path / "en", "--flag-window", window) == 0
            lines = capsys.readouterr().out.splitlines()
            assert (expected in lines) == notice
            assert lines[-1].startswith("scored 198 rows (0 flagged)")

    def test_mean_total_matches_training_report(self, trained, tmp_path):
        out = tmp_path / "en"
        assert run("energy", "--model", trained / "model.crbm", "--input",
                   FIXTURE, "--output-dir", out) == 0
        totals = [float(r["total"]) for r in read_csv(out / "free_energy.csv")]
        report = read_csv(trained / "train_report.csv")
        want = float(report[-1]["free_energy_train"])
        assert np.mean(totals) == pytest.approx(want, abs=1e-9)

    def test_column_mismatch_names_both_sides(self, trained, tmp_path, capsys):
        bad = tmp_path / "permuted.csv"
        with open(FIXTURE) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        bad.write_text("\n".join(
            [",".join([header[0], header[2], header[1], header[3]])] + lines[1:]))
        code = run("energy", "--model", trained / "model.crbm", "--input", bad,
                   "--output-dir", tmp_path / "en")
        assert code == 1
        err = capsys.readouterr().err
        assert "RATES" in err and "EQ" in err

    def test_overlay_column_passthrough(self, trained, tmp_path):
        # add an extra column that is not one of the model's assets
        extended = tmp_path / "with_vix.csv"
        with open(FIXTURE) as fh:
            lines = fh.read().splitlines()
        out_lines = [lines[0] + ",GAUGE"]
        for i, line in enumerate(lines[1:]):
            out_lines.append(f"{line},{float(i)!r}")
        extended.write_text("\n".join(out_lines))
        out = tmp_path / "en"
        assert run("energy", "--model", trained / "model.crbm", "--input",
                   extended, "--output-dir", out, "--overlay-column", "GAUGE") == 0
        rows = read_csv(out / "free_energy_overlay.csv")
        assert list(rows[0])[-1] == "GAUGE"
        assert float(rows[0]["GAUGE"]) == 2.0  # first scored row is index lag=2
        base = read_csv(out / "free_energy.csv")
        assert len(base) == len(rows)

    def test_missing_overlay_column(self, trained, tmp_path, capsys):
        code = run("energy", "--model", trained / "model.crbm", "--input",
                   FIXTURE, "--output-dir", tmp_path / "en",
                   "--overlay-column", "VIX")
        assert code == 1
        assert "VIX" in capsys.readouterr().err

    def bernoulli_model(self, tmp_path, config_path):
        out = tmp_path / "bern"
        assert run("train", "--input", FIXTURE, "--arch", "bernoulli", "--seed", "5",
                   "--output-dir", out, "--config", config_path, "--bits", "4") == 0
        return out / "model.crbm"

    def test_clipped_cells_are_counted(self, tmp_path, config_path, capsys):
        model = self.bernoulli_model(tmp_path, config_path)
        lines = FIXTURE.read_text().splitlines()
        date, *cells = lines[10].split(",")
        lines[10] = ",".join([date, "1e6", cells[1], "-1e6"])
        shocked = tmp_path / "shocked.csv"
        shocked.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("energy", "--model", model, "--input", shocked,
                   "--output-dir", tmp_path / "en") == 0
        out = capsys.readouterr().out.splitlines()
        assert "clipped 2 cell(s) to the model's fitted range" in out

    def test_no_clip_line_inside_the_fitted_range(self, tmp_path, config_path, capsys):
        model = self.bernoulli_model(tmp_path, config_path)
        capsys.readouterr()
        assert run("energy", "--model", model, "--input", FIXTURE,
                   "--output-dir", tmp_path / "en") == 0
        out = capsys.readouterr().out
        assert "clipped" not in out and out.startswith("scored 198 rows")

    def test_blocks_of_blank_lines_are_dropped_silently(self, trained, tmp_path, capsys,
                                                        monkeypatch):
        # 16-byte blocks put each run of blank lines in blocks of its own, on
        # which np.loadtxt would warn that the input contained no data
        lines = FIXTURE.read_text().splitlines(keepends=True)
        padded = tmp_path / "padded.csv"
        padded.write_text("".join(lines[:50] + ["\n"] * 20 + lines[50:] + ["\r\n"] * 20))
        assert run("energy", "--model", trained / "model.crbm", "--input", FIXTURE,
                   "--output-dir", tmp_path / "plain") == 0
        monkeypatch.setattr(data, "READ_AHEAD_BYTES", 16)
        assert data.ingest_csv(padded).n_dropped == 40
        capsys.readouterr()
        assert run("energy", "--model", trained / "model.crbm", "--input", padded,
                   "--output-dir", tmp_path / "padded") == 0
        assert capsys.readouterr().err == ""
        assert ((tmp_path / "padded" / "free_energy.csv").read_bytes()
                == (tmp_path / "plain" / "free_energy.csv").read_bytes())

    def test_empty_csv_errors(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("energy", "--model", trained / "model.crbm", "--input",
                   empty, "--output-dir", tmp_path / "en") == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_identical_files_zero_difference(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert run("stats", "--real", FIXTURE, "--synthetic", FIXTURE,
                   "--output-dir", out, "--qq-quantiles", "50") == 0
        assert "correlation fidelity score: 0.0" in capsys.readouterr().out
        for row in read_csv(out / "corr_diff.csv"):
            for name in ("EQ", "RATES", "FX"):
                assert float(row[name]) == 0.0
        for name in ("EQ", "RATES", "FX"):
            assert (out / f"qq_{name}.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "sq_autocorr.csv").exists()

    def test_summary_and_autocorr_shapes(self, tmp_path):
        out = tmp_path / "st"
        assert run("stats", "--real", FIXTURE, "--synthetic", FIXTURE,
                   "--output-dir", out, "--qq-quantiles", "10") == 0
        summary = read_csv(out / "summary.csv")
        assert len(summary) == 6  # 2 series x 3 assets
        assert {r["series"] for r in summary} == {"real", "synthetic"}
        auto = read_csv(out / "sq_autocorr.csv")
        assert len(auto) == 2 * 3 * 20
        assert {int(r["lag"]) for r in auto} == set(range(1, 21))

    @pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "unquoted"])
    def test_cell_over_the_csv_field_limit_is_a_one_line_error(self, tmp_path, capsys, quote):
        long = tmp_path / "long.csv"
        long.write_text(f"step,A\n0,1.0\n1,{quote}{'1' * 200_000}{quote}\n2,3.0\n")
        assert run("stats", "--real", long, "--synthetic", long,
                   "--output-dir", tmp_path / "st") == 1
        assert capsys.readouterr().err == (
            f"error: {long}: line 3: field larger than field limit (131072)\n")

    def test_mismatched_columns_error(self, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("step,A\n0,1.0\n1,2.0\n")
        assert run("stats", "--real", FIXTURE, "--synthetic", other,
                   "--output-dir", tmp_path / "st") == 1
        assert "differ" in capsys.readouterr().err


NAME = st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                 st.sampled_from(['a,"b"', "", "c\nd", "e\rf", '"', " x ", "2020-01-01"]))


class TestWriteCsv:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(rows=st.lists(st.tuples(NAME, st.floats(), st.integers(-5, 5)), min_size=1,
                         max_size=8),
           block_bytes=st.sampled_from([8, 1 << 18]))
    def test_bytes_match_csv_writer_with_repr(self, tmp_path_factory, rows, block_bytes):
        header = ["asset", 'a,"b"', "c\nd"]
        names, floats, ints = (list(col) for col in zip(*rows))
        out = tmp_path_factory.mktemp("w")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "READ_AHEAD_BYTES", block_bytes)
            cli._write_csv(out / "new.csv", header,
                           [names, np.array(floats), np.array(ints)])
        with open(out / "want.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([name, repr(float(x)), str(k)] for name, x, k in rows)
        assert (out / "new.csv").read_bytes() == (out / "want.csv").read_bytes()

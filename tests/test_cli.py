"""Command-line behavior: files written, error paths, exit codes."""

import codecs
import csv
import importlib
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crbm
from crbm import cli, data, dynamics, generation
from crbm.cli import main
from crbm.data import BinaryCodec, ZScoreParams
from crbm.model import sweep_width
from crbm.model_io import ModelFile, load_model, save_model
from crbm.training import TrainConfig
from helpers import random_bernoulli_model, random_gaussian_model, runaway_gaussian_model, \
    piped, write_dated_csv, write_forged_model, write_model_with_slot, write_model_without_hidden

FIXTURE = Path(__file__).parent / "data" / "toy.csv"


def run(*argv):
    return main([str(a) for a in argv])


def python(*argv):
    """Run a fresh interpreter that imports this checkout's crbm."""
    src = str(Path(crbm.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def loaded(stderr, module):
    """Whether a ``python -v`` run loaded ``module``. ``-v`` lists a module
    once it is loaded; ``-X importtime`` lists blocked imports too."""
    return f"import {module!r} " in stderr


def script_argv():
    """Interpreter arguments that run pyproject.toml's ``crbm`` script target
    as the installed script does."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, function = re.search(r'^crbm = "([\w.]+):(\w+)"$', section, re.MULTILINE).groups()
    return ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"]


def with_bad_rows(path):
    """Write the fixture with a ``nan`` cell in one row and an ``abc`` cell in
    another: 198 rows are read and 2 dropped."""
    header, *rows = FIXTURE.read_text().splitlines()
    for i, j, cell in ((3, 1, "nan"), (8, 2, "abc")):
        cells = rows[i].split(",")
        cells[j] = cell
        rows[i] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def train_args(out_dir, config, extra=(), source=FIXTURE):
    return ["train", "--input", source, "--arch", "gaussian", "--seed", "5",
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


@pytest.fixture
def bits_model(tmp_path):
    """A 16-bit Bernoulli model of 4 assets (64 visible, lag 5), as the
    rollout benchmark trains."""
    rng = np.random.default_rng(14)
    path = tmp_path / "bits.crbm"
    save_model(ModelFile(params=random_bernoulli_model(rng, 64, 64, scale=0.3, lag=5),
                         codec=BinaryCodec(np.full(4, -0.1), np.full(4, 0.1)),
                         asset_names=["a", "b", "c", "d"], seed=0,
                         seed_window=(rng.random(5 * 64) < 0.5).astype(float)), path)
    return path


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

    def test_lag_flag_without_a_config_file(self):
        args = cli.build_parser().parse_args(["train", "--input", "in.csv", "--arch", "gaussian",
                                              "--seed", "3", "--output-dir", "o", "--lag", "4"])
        assert TrainConfig(seed=3).lag != 4
        assert cli._build_train_config(args) == TrainConfig(seed=3, lag=4)

    def test_dropped_rows_are_reported(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("train", "--input", with_bad_rows(tmp_path / "bad.csv"), "--arch", "gaussian",
                   "--seed", "5", "--output-dir", out, "--config", config_path) == 0
        assert capsys.readouterr().out.splitlines() == [
            "dropped 2 malformed input row(s)",
            f"trained on 198 rows; wrote {out / 'model.crbm'} and {out / 'train_report.csv'}"]

    def test_infinite_learning_rate_is_a_one_line_config_error(self, tmp_path, config_path,
                                                                capsys):
        config_path.write_text(config_path.read_text() + "learning_rate=inf\n")
        out = tmp_path / "out"
        assert run(*train_args(out, config_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "learning_rate" in err[0]
        assert not (out / "model.crbm").exists()

    @pytest.mark.parametrize("text", ["20200219", "2020-W08-3", "2020-050",
                                      "\uff12\uff10\uff12\uff10-02-19"])
    def test_split_date_other_than_year_month_day_is_usage_error(self, tmp_path, config_path,
                                                                   capsys, text):
        with pytest.raises(SystemExit) as err:
            run(*train_args(tmp_path / "out", config_path, ["--split-date", text]))
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and "is not a YYYY-MM-DD date" in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--seed", "--lag"])
    def test_negative_count_is_usage_error_naming_the_flag(self, tmp_path, config_path,
                                                           capsys, flag):
        with pytest.raises(SystemExit) as err:
            run(*train_args(tmp_path / "out", config_path, [flag, "-1"]))
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].endswith(f"argument {flag}: must be >= 0, got -1")
        assert not (tmp_path / "out").exists()

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

    def test_split_date_trains_as_the_rows_up_to_it(self, tmp_path, config_path):
        head = tmp_path / "head.csv"
        with open(FIXTURE) as fh:
            head.write_text("".join(line for line in fh
                                    if not line[:1].isdigit() or line[:10] <= "2020-02-19"))
        assert head.read_text().count("\n") == 51
        split, whole = tmp_path / "split", tmp_path / "whole"
        assert run(*train_args(split, config_path, ["--split-date", "2020-02-19"])) == 0
        assert run(*train_args(whole, config_path, ["--input", head])) == 0
        for name in ("model.crbm", "train_report.csv"):
            assert (split / name).read_bytes() == (whole / name).read_bytes()

    def test_refused_allocation_is_a_one_line_error(self, tmp_path, config_path, capsys):
        # W alone would take 3 x 10**15 float64 cells
        config_path.write_text(config_path.read_text() + "n_hidden=1000000000000000\n")
        out = tmp_path / "out"
        assert run(*train_args(out, config_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, error", [
        ("bogus=1", "config line 2: unknown key 'bogus'"),
        ("epochs=x", "config line 2: epochs: invalid literal for int() with base 10: 'x'"),
        ("epochs=0", "epochs must be >= 1"),
    ], ids=["unknown_key", "bad_value", "invalid_value"])
    def test_config_error_names_the_file(self, tmp_path, config_path, capsys, line, error):
        config_path.write_text("lag=2\n" + line + "\n")
        out = tmp_path / "out"
        assert run(*train_args(out, config_path)) == 1
        assert capsys.readouterr().err == f"error: {config_path}: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["seed", "name"])
    def test_value_the_model_file_cannot_hold_is_refused_before_training(
            self, tmp_path, config_path, capsys, monkeypatch, case):
        def never(*args, **kwargs):
            raise AssertionError("training.train was called")
        monkeypatch.setattr(cli.training, "train", never)
        out = tmp_path / "out"
        args = train_args(out, config_path)
        if case == "seed":
            args[args.index("--seed") + 1] = "99999999999999999999"
            expected = ("error: seed 99999999999999999999 does not fit the model file's "
                        "signed 64-bit field (-9223372036854775808 to 9223372036854775807)\n")
        else:
            lines = FIXTURE.read_text().splitlines(keepends=True)
            path = tmp_path / "long.csv"
            path.write_text("date,EQ," + "R" * 70_000 + ",FX\n" + "".join(lines[1:]))
            args[args.index("--input") + 1] = path
            expected = ("error: asset name 'RRRRRRRRRRRRRRRRRRRR'... has 70000 UTF-8 bytes; "
                        "a model file holds at most 65535\n")
        assert run(*args) == 1
        assert capsys.readouterr().err == expected
        assert not out.exists()

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

    def test_negative_seed_is_usage_error_naming_the_flag(self, trained, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run("generate", "--model", trained / "model.crbm", "--steps", "5",
                "--seed", "-1", "--output-dir", tmp_path / "gen")
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].endswith("argument --seed: must be >= 0, got -1")
        assert not (tmp_path / "gen").exists()

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
        assert err.startswith(f"error: {tmp_path / 'forged.crbm'}: truncated model file")
        assert err.count("\n") == 1
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

    @pytest.mark.parametrize("existing", [False, True], ids=["new_dir", "existing_dir"])
    def test_runaway_after_written_chunks_leaves_what_was_there(self, tmp_path, capsys,
                                                                 monkeypatch, existing):
        m = runaway_gaussian_model()
        save_model(ModelFile(params=m, asset_names=["x", "y"],
                             codec=ZScoreParams(np.zeros(2), np.ones(2)), seed=0,
                             seed_window=np.ones(2)), tmp_path / "runaway.crbm")
        # 4-row chunks: some 160 of them are written before the rollout overflows
        monkeypatch.setattr(generation, "READ_AHEAD_BYTES", 4 * 16 * 3 * sweep_width(m))
        written, write_rows = [], cli._write_rows
        monkeypatch.setattr(cli, "_write_rows", lambda fh, columns: (
            written.append(len(columns[0])), write_rows(fh, columns)))
        out = tmp_path / "out" / "gen"
        if existing:
            out.mkdir(parents=True)
            (out / "synthetic.csv").write_bytes(b"step,x,y\r\n0,1.0,2.0\r\n")
        code = run("generate", "--model", tmp_path / "runaway.crbm", "--steps", "5000",
                   "--seed", "1", "--burn-in", "2", "--output-dir", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rollout went non-finite at step ")
        assert err.endswith(" of 5000\n") and err.count("\n") == 1
        step = int(err.split("step ")[1].split()[0])
        assert sum(written) == step // 4 * 4 > 0
        if existing:
            assert os.listdir(out) == ["synthetic.csv"]
            assert (out / "synthetic.csv").read_bytes() == b"step,x,y\r\n0,1.0,2.0\r\n"
        else:
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows_per_chunk", [1, 3])
    @pytest.mark.parametrize("gaussian", [True, False], ids=["gaussian", "bernoulli"])
    def test_chunk_size_does_not_change_output(self, request, monkeypatch, tmp_path,
                                               gaussian, rows_per_chunk):
        path = (request.getfixturevalue("trained") / "model.crbm" if gaussian
                else request.getfixturevalue("bits_model"))
        args = ("generate", "--model", path, "--steps", "40", "--seed", "4", "--burn-in", "2")
        assert run(*args, "--output-dir", tmp_path / "one") == 0
        # 40 rows fit in one default chunk; these bytes take rows_per_chunk
        per_row = 16 * 3 * sweep_width(load_model(path).params)
        monkeypatch.setattr(generation, "READ_AHEAD_BYTES", rows_per_chunk * per_row)
        assert run(*args, "--output-dir", tmp_path / "many") == 0
        assert (tmp_path / "many" / "synthetic.csv").read_bytes() == \
            (tmp_path / "one" / "synthetic.csv").read_bytes()

    def test_memory_does_not_grow_with_steps(self, bits_model, tmp_path):
        # encoded rows live in a ring of lag + one chunk, and each chunk is
        # decoded and written before the next; keeping the decoded steps x 4
        # values would add 192 KB at 8,000 steps over 2,000, and keeping
        # every encoded steps x 64 row 3 MB
        def peak(steps):
            tracemalloc.start()
            try:
                assert run("generate", "--model", bits_model, "--steps", steps, "--seed",
                           "1", "--burn-in", "0", "--output-dir", tmp_path / str(steps)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call imports and caches
        assert peak(8000) - peak(2000) < 64 * 1024


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


    @pytest.mark.parametrize("command, samples", [
        ((), False),
        (("energy", "--model", "{model}", "--input", FIXTURE, "--output-dir", "{out}"), False),
        (("stats", "--real", FIXTURE, "--synthetic", FIXTURE, "--output-dir", "{out}"), False),
        (("generate", "--model", "{model}", "--steps", "5", "--seed", "1",
          "--output-dir", "{out}"), True),
    ])
    def test_only_sampling_commands_load_numpy_random(self, trained, tmp_path, command,
                                                      samples):
        # numpy.random adds about 2.8 MiB of peak RSS, and the OpenSSL that
        # its secrets and hmac load 3.4 MiB more; a library process such as
        # this one loads both, the crbm program no OpenSSL
        argv = [str(a).format(model=trained / "model.crbm", out=tmp_path / "o")
                for a in command]
        proc = python("-c", "import sys, crbm.cli; "
                            "code = crbm.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
                            "print(code, 'numpy.random' in sys.modules, "
                            "sys.modules.get('_hashlib') is not None, "
                            "'crbm.exact' in sys.modules)", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 {samples} {samples} False"

    @pytest.mark.parametrize("entry", ["module", "cli_module", "script"])
    def test_program_loads_no_openssl_and_writes_what_main_writes(self, tmp_path, config_path,
                                                                  entry):
        program = {"module": ["-m", "crbm"], "cli_module": ["-m", "crbm.cli"],
                   "script": script_argv()}[entry]

        def commands(out):
            return [train_args(out, config_path),
                    ["generate", "--model", out / "model.crbm", "--steps", "20", "--seed", "3",
                     "--output-dir", out]]

        for argv in commands(tmp_path / "main"):
            assert run(*argv) == 0
        for argv in commands(tmp_path / "program"):
            proc = python("-v", *program, *argv)
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert loaded(proc.stderr, "numpy.random") and not loaded(proc.stderr, "_hashlib")
        for name in ("model.crbm", "train_report.csv", "synthetic.csv"):
            want = (tmp_path / "main" / name).read_bytes()
            assert (tmp_path / "program" / name).read_bytes() == want

    def test_program_keeps_openssl_without_a_builtin_hash(self, trained, tmp_path):
        # without _hashlib, hashlib needs every built-in hash module; it would
        # log a traceback per algorithm that lacks one
        proc = python("-c", "import sys; sys.modules['_md5'] = None; "
                            "from crbm.__main__ import program; code = program(sys.argv[1:]); "
                            "print(code, sys.modules.get('_hashlib') is not None)",
                      "generate", "--model", trained / "model.crbm", "--steps", "5",
                      "--seed", "1", "--output-dir", tmp_path / "o")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "0 True"

    @pytest.mark.parametrize("command", [
        ("energy", "--model", "{model}", "--input", FIXTURE, "--output-dir", "{out}"),
        ("stats", "--real", FIXTURE, "--synthetic", FIXTURE, "--output-dir", "{out}"),
    ], ids=["energy", "stats"])
    def test_scoring_commands_load_no_numpy_ma(self, trained, tmp_path, command):
        # np.quantile imports numpy.ma (through np.unique): about 1.4 MiB of RSS
        argv = [str(a).format(model=trained / "model.crbm", out=tmp_path / "o")
                for a in command]
        proc = python("-c", "import sys, crbm.cli; code = crbm.cli.main(sys.argv[1:]); "
                            "print(code, 'numpy.ma' in sys.modules)", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_importing_main_module_runs_nothing(self, monkeypatch):
        # `python -m crbm --help` itself is run by test_help_loads_no_scipy
        monkeypatch.setattr(sys, "argv", ["crbm", "--no-such-flag"])
        monkeypatch.delitem(sys.modules, "crbm.__main__", raising=False)
        assert importlib.import_module("crbm.__main__").program is cli.program

    def test_the_package_holds_only_its_modules(self):
        # every name has one home: the module that defines it
        public = {name: value for name, value in vars(crbm).items()
                  if not name.startswith("_")}
        assert all(inspect.ismodule(value) for value in public.values()), public
        assert {"data", "diagnostics", "dynamics", "generation", "model", "model_io",
                "training"} <= public.keys()


class TestEnergy:
    @pytest.mark.parametrize("command", [
        ["energy", "--input", FIXTURE],
        ["generate", "--steps", "5", "--seed", "1"],
    ], ids=["energy", "generate"])
    def test_model_without_hidden_units_is_a_one_line_error(self, tmp_path, capsys, command):
        # header and payload agree; only the empty hidden layer is wrong
        write_model_without_hidden(tmp_path / "empty.crbm")
        out = tmp_path / "out"
        assert run(command[0], "--model", tmp_path / "empty.crbm", *command[1:],
                   "--output-dir", out) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'empty.crbm'}: a model needs visible and hidden units, "
            "got 1 and 0\n")
        assert not out.exists()

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
        assert data.ingest_csv(padded).n_dropped == 0
        capsys.readouterr()
        assert run("energy", "--model", trained / "model.crbm", "--input", padded,
                   "--output-dir", tmp_path / "padded") == 0
        assert capsys.readouterr().err == ""
        assert ((tmp_path / "padded" / "free_energy.csv").read_bytes()
                == (tmp_path / "plain" / "free_energy.csv").read_bytes())

    @pytest.mark.parametrize("existing", [False, True], ids=["new_dir", "existing_dir"])
    def test_no_more_rows_than_the_lag_is_an_error(self, trained, tmp_path, capsys, existing):
        short = tmp_path / "short.csv"
        short.write_text("\n".join(FIXTURE.read_text().splitlines()[:3]) + "\n")
        out = tmp_path / "en"
        if existing:
            out.mkdir()
        capsys.readouterr()
        assert run("energy", "--model", trained / "model.crbm", "--input", short,
                   "--output-dir", out) == 1
        assert capsys.readouterr() == ("", "error: need more than lag=2 rows, got 2\n")
        # no .part file, and no directory the run made
        assert os.listdir(out) == [] if existing else not out.exists()

    def test_empty_csv_errors(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("energy", "--model", trained / "model.crbm", "--input",
                   empty, "--output-dir", tmp_path / "en") == 1
        assert "error:" in capsys.readouterr().err


def with_gauge(path, lines):
    """Write the CSV ``lines`` with a GAUGE column (row number + 0.5) appended."""
    header, *rows = lines
    path.write_text("\n".join([header + ",GAUGE"]
                              + [f"{row},{i}.5" for i, row in enumerate(rows)]) + "\n")
    return path


@pytest.fixture
def bernoulli_trained(tmp_path, config_path):
    out = tmp_path / "bern"
    assert run("train", "--input", FIXTURE, "--arch", "bernoulli", "--seed", "5",
               "--output-dir", out, "--config", config_path, "--bits", "4") == 0
    return out


@pytest.fixture
def lag0_trained(tmp_path):
    """A lag-0 Gaussian model: energy carries no rows from call to call."""
    config = tmp_path / "lag0.txt"
    config.write_text("epochs=3\nn_hidden=6\nlag=0\nn_chains=8\nbatch_size=32\n")
    out = tmp_path / "lag0"
    assert run(*train_args(out, config)) == 0
    return out


class TestEnergyStream:
    """energy reads, scores, flags and writes a block at a time; the bytes and
    lines it writes do not depend on the block size or on the input order."""

    FLAGS = ("--flag-window", "7", "--flag-threshold", "1.5")

    @staticmethod
    def small_blocks(monkeypatch, n_bytes):
        """Read blocks of about n_bytes / 4 of text; score n_bytes of encoded
        rows, rounded up to whole score_rows blocks."""
        monkeypatch.setattr(data, "READ_AHEAD_BYTES", n_bytes)
        monkeypatch.setattr(cli, "READ_AHEAD_BYTES", n_bytes)

    @staticmethod
    def score_blocks_of(monkeypatch, n_rows):
        """score_rows blocks of n_rows rows, for the 6 hidden units of the
        models here; without it a call scores 5,461 rows at least."""
        monkeypatch.setattr(dynamics, "READ_AHEAD_BYTES", 8 * 6 * n_rows)

    def energy(self, model, path, out, *extra):
        return run("energy", "--model", model / "model.crbm", "--input", path,
                   "--output-dir", out, "--overlay-column", "GAUGE", *self.FLAGS, *extra)

    def outputs(self, out):
        return [(out / name).read_bytes()
                for name in ("free_energy.csv", "free_energy_overlay.csv")]

    # lines are 70 to 80 bytes, so read-ahead hints of 1 and 160 bytes read
    # blocks of 1 and 2 or 3 lines, scored a score_rows block (4 bytes) or a
    # few at a time; the flag window spans several. score_rows blocks of 7
    # and 197 rows leave a last block of 2 and of 1 of the 198 rows a lag-2
    # model scores, and of 4 and 3 of the 200 a lag-0 model does.
    @pytest.mark.parametrize("score_block", [7, 197])
    @pytest.mark.parametrize("read_ahead", [4, 640])
    @pytest.mark.parametrize("arch", ["gaussian", "bernoulli", "gaussian_lag0"])
    def test_block_size_does_not_change_output(self, request, tmp_path, capsys, monkeypatch,
                                               arch, read_ahead, score_block):
        model = request.getfixturevalue({"gaussian": "trained", "bernoulli": "bernoulli_trained",
                                         "gaussian_lag0": "lag0_trained"}[arch])
        # the blocks of the one score_rows call that the stream must match
        self.score_blocks_of(monkeypatch, score_block)
        path = with_gauge(tmp_path / "in.csv", FIXTURE.read_text().splitlines())
        capsys.readouterr()
        assert self.energy(model, path, tmp_path / "whole") == 0
        whole = capsys.readouterr().out.replace("whole", "OUT")
        self.small_blocks(monkeypatch, read_ahead)
        calls, score_rows = [], dynamics.score_rows
        monkeypatch.setattr(dynamics, "score_rows",
                            lambda v, w, m: calls.append(v.shape[0]) or score_rows(v, w, m))
        assert self.energy(model, path, tmp_path / "blocks") == 0
        assert len(calls) > 1 and sum(calls) == (200 if arch == "gaussian_lag0" else 198)
        assert all(n % score_block == 0 for n in calls[:-1])
        assert capsys.readouterr().out.replace("blocks", "OUT") == whole
        assert self.outputs(tmp_path / "blocks") == self.outputs(tmp_path / "whole")
        assert sorted(os.listdir(tmp_path / "blocks")) == ["free_energy.csv",
                                                          "free_energy_overlay.csv"]
        flags = [row["flag"] for row in read_csv(tmp_path / "whole" / "free_energy.csv")]
        assert "1" in flags[7:]

    def test_unsorted_rows_take_the_whole_file_path(self, trained, tmp_path, capsys,
                                                    monkeypatch):
        header, *rows = FIXTURE.read_text().splitlines()
        sorted_path = with_gauge(tmp_path / "sorted.csv", [header, *rows])
        order = np.random.default_rng(17).permutation(len(rows))
        # the first blocks ascend, so the stream has written rows when it gives up
        order = np.concatenate([np.arange(20), order[order >= 20]])
        shuffled = tmp_path / "shuffled.csv"
        gauged = sorted_path.read_text().splitlines()
        shuffled.write_text("\n".join([gauged[0]] + [gauged[1 + i] for i in order]) + "\n")
        self.score_blocks_of(monkeypatch, 7)
        assert self.energy(trained, sorted_path, tmp_path / "want") == 0
        want = capsys.readouterr().out.replace("want", "OUT")

        ingest, seen = data.ingest_csv, []

        def spy(path, date_column=None):
            seen.append(sorted(os.listdir(tmp_path / "got")))
            seen.append((tmp_path / "got" / "free_energy.csv.part").read_text().count("\n"))
            return ingest(path, date_column=date_column)

        monkeypatch.setattr(data, "ingest_csv", spy)
        self.small_blocks(monkeypatch, 400)
        assert self.energy(trained, shuffled, tmp_path / "got") == 0
        assert seen[0] == ["free_energy.csv.part", "free_energy_overlay.csv.part"]
        assert seen[1] > 1 and len(seen) == 2
        assert capsys.readouterr().out.replace("got", "OUT") == want
        assert self.outputs(tmp_path / "got") == self.outputs(tmp_path / "want")

    @pytest.mark.parametrize("last_line, message", [
        ("2020-07-18,1.0,2.0,3.0", "duplicate date 2020-07-18"),
        ("2020-07-19," + "1" * 200_000 + ",2.0,3.0",
         "line 202: field larger than field limit (131072)"),
    ], ids=["duplicate_date", "csv_error"])
    def test_error_in_the_last_block_leaves_nothing(self, trained, tmp_path, capsys,
                                                    monkeypatch, last_line, message):
        path = tmp_path / "in.csv"
        path.write_text(FIXTURE.read_text() + last_line + "\n")
        out = tmp_path / "new" / "en"
        self.small_blocks(monkeypatch, 400)
        self.score_blocks_of(monkeypatch, 7)
        write, written = cli._write_rows, []

        def spy(fh, columns):
            write(fh, columns)
            written.append(len(columns[0]))

        monkeypatch.setattr(cli, "_write_rows", spy)
        capsys.readouterr()
        assert run("energy", "--model", trained / "model.crbm", "--input", path,
                   "--output-dir", out) == 1
        assert sum(written) > 150  # rows were written before the error
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "in.csv", "out"]

    @pytest.mark.parametrize("ascending", [True, False])
    def test_pipe_gives_what_the_file_gives(self, trained, tmp_path, capsys, monkeypatch,
                                            ascending):
        # a pipe is read once: whole, and sorted if its dates do not ascend
        header, *rows = FIXTURE.read_text().splitlines()
        path = with_gauge(tmp_path / "in.csv", [header, *(rows if ascending else rows[::-1])])
        self.small_blocks(monkeypatch, 400)
        assert self.energy(trained, path, tmp_path / "want") == 0
        want = capsys.readouterr().out.replace(str(tmp_path / "want"), "OUT")
        with piped(path.read_text()) as pipe:
            assert self.energy(trained, pipe, tmp_path / "got") == 0
        assert capsys.readouterr().out.replace(str(tmp_path / "got"), "OUT") == want
        assert self.outputs(tmp_path / "got") == self.outputs(tmp_path / "want")

    @pytest.mark.parametrize("read", ["stream", "whole_file", "pipe"])
    def test_dropped_rows_are_counted_once(self, trained, tmp_path, capsys, monkeypatch, read):
        # an unsorted file is read twice, and only the whole-file read counts
        header, *rows = with_bad_rows(tmp_path / "bad.csv").read_text().splitlines()
        if read == "whole_file":
            rows[150], rows[151] = rows[151], rows[150]
        path = with_gauge(tmp_path / "in.csv", [header, *rows])
        self.small_blocks(monkeypatch, 400)
        capsys.readouterr()
        if read == "pipe":
            with piped(path.read_text()) as pipe:
                assert self.energy(trained, pipe, tmp_path / "en") == 0
        else:
            assert self.energy(trained, path, tmp_path / "en") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dropped 2 malformed input row(s)"
        assert out[1].startswith("scored 196 rows") and len(out) == 2

    def test_columns_are_checked_again_when_the_file_is_read_again(self, trained, tmp_path,
                                                                   capsys, monkeypatch):
        # unsorted input is read twice; the file may have changed in between
        header, *rows = FIXTURE.read_text().splitlines()
        path = tmp_path / "in.csv"
        path.write_text("\n".join([header, *rows[::-1]]) + "\n")
        ingest = data.ingest_csv

        def replaced(name, date_column=None):
            path.write_text(path.read_text().replace("RATES", "BONDS", 1))
            return ingest(name, date_column=date_column)

        monkeypatch.setattr(data, "ingest_csv", replaced)
        capsys.readouterr()
        out = tmp_path / "en"
        assert run("energy", "--model", trained / "model.crbm", "--input", path,
                   "--output-dir", out) == 1
        assert capsys.readouterr().err == (
            "error: input asset columns ['EQ', 'BONDS', 'FX'] do not match "
            "the model's ['EQ', 'RATES', 'FX']\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_free_energy_is_an_error(self, trained, tmp_path, capsys, monkeypatch):
        # a cell far outside the fitted range overflows the visible term; no
        # numpy warning may escape, and no output may be left behind
        lines = FIXTURE.read_text().splitlines()
        date, *cells = lines[150].split(",")
        lines[150] = ",".join([date, "1e308", *cells[1:]])
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n")
        self.small_blocks(monkeypatch, 400)
        self.score_blocks_of(monkeypatch, 7)
        capsys.readouterr()
        assert run("energy", "--model", trained / "model.crbm", "--input", path,
                   "--output-dir", tmp_path / "new" / "en") == 1
        assert capsys.readouterr() == ("", f"error: free energy is not finite at {date}\n")
        assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "in.csv", "out"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_free_energy_flags_without_a_warning(self, trained, tmp_path, capsys):
        # a 1e100 cell gives a finite total near 5e198, whose square in the
        # flag windows that hold it overflows: those rows stay unflagged
        lines = FIXTURE.read_text().splitlines()
        date, *cells = lines[150].split(",")
        lines[150] = ",".join([date, "1e100", *cells[1:]])
        path, out = tmp_path / "in.csv", tmp_path / "en"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("energy", "--model", trained / "model.crbm", "--input", path,
                   "--output-dir", out, "--flag-window", "20") == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out / "free_energy.csv")
        at = next(i for i, r in enumerate(rows) if float(r["total"]) > 1e190)
        assert rows[at]["date"] == date and rows[at]["flag"] == "1"
        assert {r["flag"] for r in rows[at + 1:at + 21]} == {"0"}

    def test_error_keeps_a_directory_the_run_did_not_make(self, trained, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(FIXTURE.read_text() + "2020-07-18,1.0,2.0,3.0\n")
        (tmp_path / "en").mkdir()
        (tmp_path / "en" / "free_energy.csv").write_text("kept")
        assert run("energy", "--model", trained / "model.crbm", "--input", path,
                   "--output-dir", tmp_path / "en") == 1
        assert os.listdir(tmp_path / "en") == ["free_energy.csv"]
        assert (tmp_path / "en" / "free_energy.csv").read_text() == "kept"

    def test_lines_printed_at_the_end(self, bernoulli_trained, tmp_path, capsys,
                                      monkeypatch):
        lines = FIXTURE.read_text().splitlines()
        date, *cells = lines[10].split(",")
        lines[10] = ",".join([date, "1e6", cells[1], "-1e6"])
        shocked = tmp_path / "shocked.csv"
        shocked.write_text("\n".join(lines) + "\n")
        self.small_blocks(monkeypatch, 400)
        capsys.readouterr()
        out = tmp_path / "en"
        assert run("energy", "--model", bernoulli_trained / "model.crbm", "--input", shocked,
                   "--output-dir", out, "--flag-window", "198") == 0
        assert capsys.readouterr().out.splitlines() == [
            "clipped 2 cell(s) to the model's fitted range",
            "no row can be flagged: --flag-window 198 is not below the 198 scored rows",
            f"scored 198 rows (0 flagged); wrote {out / 'free_energy.csv'}",
        ]

    def test_peak_memory_does_not_grow_with_rows(self, trained, tmp_path):
        # the whole file held its values, their z-scores and a date per row
        rng = np.random.default_rng(18)
        paths = {}
        for n_rows in (20_000, 80_000):
            paths[n_rows] = tmp_path / f"rows{n_rows}.csv"
            write_dated_csv(paths[n_rows], rng.normal(size=(n_rows, 3)),
                            names=["EQ", "RATES", "FX"])

        def peak(n_rows):
            tracemalloc.start()
            try:
                assert run("energy", "--model", trained / "model.crbm", "--input",
                           paths[n_rows], "--output-dir", tmp_path / "en") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20_000)  # first-call imports and caches
        assert peak(80_000) - peak(20_000) < 2**19


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

    @pytest.mark.parametrize("bad_real, bad_synthetic", [(True, False), (False, True),
                                                         (True, True)])
    def test_dropped_rows_are_reported_for_each_input(self, tmp_path, capsys, bad_real,
                                                       bad_synthetic):
        bad = with_bad_rows(tmp_path / "bad.csv")
        real, synthetic = (bad if bad_real else FIXTURE), (bad if bad_synthetic else FIXTURE)
        capsys.readouterr()
        assert run("stats", "--real", real, "--synthetic", synthetic, "--qq-quantiles", "10",
                   "--output-dir", tmp_path / "st") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-2] == [f"dropped 2 malformed input row(s) from {bad}"
                              for _ in range(bad_real + bad_synthetic)]
        assert lines[-2].startswith("correlation fidelity score: ")

    def test_mismatched_columns_error(self, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("step,A\n0,1.0\n1,2.0\n")
        assert run("stats", "--real", FIXTURE, "--synthetic", other,
                   "--output-dir", tmp_path / "st") == 1
        assert "differ" in capsys.readouterr().err

    @pytest.mark.parametrize("header,first,second,qq_file", [
        ("a b,a_b", "a b", "a_b", "qq_a_b.csv"),
        ("x,x", "x", "x", "qq_x.csv"),
    ], ids=["same-safe-name", "same-name"])
    def test_assets_sharing_a_qq_file_are_refused(self, tmp_path, capsys, header, first,
                                                  second, qq_file):
        path = tmp_path / "in.csv"
        path.write_text(f"date,{header}\n0,1.0,2.0\n1,3.0,1.0\n2,2.0,5.0\n")
        out = tmp_path / "st"
        assert run("stats", "--real", path, "--synthetic", path, "--qq-quantiles", "2",
                   "--output-dir", out) == 1
        assert capsys.readouterr().err == (
            f"error: assets {first!r} and {second!r} would both write {qq_file}\n")
        assert not out.exists()

    def test_one_row_input_is_one_error_line_and_no_output(self, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text("step,A,B\n0,1.0,2.0\n")
        out = tmp_path / "st"
        proc = python("-m", "crbm", "stats", "--real", one, "--synthetic", one,
                      "--qq-quantiles", "1", "--output-dir", out)
        assert proc.returncode == 1
        assert proc.stderr == "error: need a 2-D matrix with at least two rows\n"
        assert not out.exists()

    @pytest.mark.parametrize("real_rows,synth_rows,n_quantiles,message", [
        (5, 9, 6, "need at least n_quantiles values in each sample"),
        (9, 5, 6, "need at least n_quantiles values in each sample"),
        (9, 5, 10**15, "need at least n_quantiles values in each sample"),
        (9, 1, 1, "need a 2-D matrix with at least two rows"),
    ])
    def test_size_errors_come_before_any_output(self, tmp_path, capsys, real_rows,
                                                synth_rows, n_quantiles, message):
        for name, rows in (("real", real_rows), ("synth", synth_rows)):
            (tmp_path / f"{name}.csv").write_text(
                "step,A,B\n" + "".join(f"{t},{t}.5,{-t}\n" for t in range(rows)))
        out = tmp_path / "st"
        assert run("stats", "--real", tmp_path / "real.csv", "--synthetic",
                   tmp_path / "synth.csv", "--qq-quantiles", n_quantiles,
                   "--output-dir", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_short_real_file_waits_for_the_names_check(self, tmp_path, capsys):
        real, synth = tmp_path / "real.csv", tmp_path / "synth.csv"
        real.write_text("step,A,B\n0,1.0,2.0\n1,1.5,2.5\n")
        synth.write_text("step,X\n0,1.0\n1,2.0\n2,3.0\n")
        out = tmp_path / "st"
        assert run("stats", "--real", real, "--synthetic", synth, "--output-dir", out) == 1
        assert capsys.readouterr().err == (
            "error: asset columns differ: real has ['A', 'B'], synthetic has ['X']\n")
        assert not out.exists()

    def test_peak_memory_holds_one_series(self, tmp_path):
        # both series and np.corrcoef's centered copy peaked at about 3.1 x
        # one series' values; one series at a time, centered in place, 1.45 x
        rng = np.random.default_rng(15)
        paths = []
        for name in ("real", "synth"):
            values = rng.standard_t(4, size=(20_000, 8))
            path = tmp_path / f"{name}.csv"
            cli._write_csv(path, ["step"] + [f"A{j}" for j in range(8)],
                           [np.arange(20_000), *values.T])
            paths.append(path)

        def stats(out):
            assert run("stats", "--real", paths[0], "--synthetic", paths[1],
                       "--output-dir", tmp_path / out) == 0

        stats("warm")  # first-call imports and caches
        tracemalloc.start()
        try:
            stats("st")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * values.nbytes


class TestFlags:
    @pytest.mark.parametrize("argv, message", [
        (["generate", "--steps", "0"], "argument --steps: must be >= 1, got 0"),
        (["generate", "--steps", "5", "--burn-in", "-1"],
         "argument --burn-in: must be >= 0, got -1"),
        (["energy", "--flag-window", "1"], "argument --flag-window: must be >= 2, got 1"),
        (["energy", "--flag-threshold", "nan"], "argument --flag-threshold: must not be NaN"),
        (["train", "--arch", "bernoulli", "--bits", "49"],
         "argument --bits: must be <= 48, got 49"),
        (["stats", "--qq-quantiles", "0"], "argument --qq-quantiles: must be >= 1, got 0"),
    ], ids=["steps", "burn-in", "flag-window", "flag-threshold", "bits", "qq-quantiles"])
    def test_out_of_range_is_usage_error_before_any_file(self, tmp_path, capsys, argv,
                                                          message):
        # every file named is missing, so reading any of them would exit 1
        command, *flags = argv
        missing, out = tmp_path / "missing", tmp_path / "out"
        files = {"train": ["--input", missing, "--seed", "1"],
                 "generate": ["--model", missing, "--seed", "1"],
                 "energy": ["--model", missing, "--input", missing],
                 "stats": ["--real", missing, "--synthetic", missing]}[command]
        with pytest.raises(SystemExit) as err:
            run(command, *files, "--output-dir", out, *flags)
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("text", ["inf", "-inf"])
    def test_infinite_flag_threshold_is_accepted(self, text):
        args = cli.build_parser().parse_args(["energy", "--model", "m", "--input", "i",
                                              "--output-dir", "o", f"--flag-threshold={text}"])
        assert args.flag_threshold == float(text)


NAME =st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
                 st.sampled_from(['a,"b"', "", "c\nd", "e\rf", '"', " x ", "2020-01-01"]))


class TestInputText:
    def test_an_empty_line_is_not_a_dropped_row(self, trained, tmp_path, config_path, capsys):
        padded = tmp_path / "padded.csv"
        padded.write_text(FIXTURE.read_text() + "\n")
        capsys.readouterr()
        assert run(*train_args(tmp_path / "t", config_path, source=padded)) == 0
        assert run("energy", "--model", trained / "model.crbm", "--input", padded,
                   "--output-dir", tmp_path / "e") == 0
        assert run("stats", "--real", padded, "--synthetic", padded, "--qq-quantiles", "10",
                   "--output-dir", tmp_path / "s") == 0
        assert "dropped" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "train_config", "energy", "stats"])
    def test_a_file_that_is_not_utf8_is_named(self, trained, tmp_path, config_path, capsys,
                                              command):
        bad = tmp_path / "bad.txt"
        source = config_path if command == "train_config" else FIXTURE
        text = source.read_bytes()
        cut = text.index(b"\n", len(text) // 2) + 1
        bad.write_bytes(text[:cut] + b"\xff" + text[cut:])
        out = tmp_path / "run"
        argv = {"train": train_args(out, config_path, source=bad),
                "train_config": train_args(out, bad),
                "energy": ["energy", "--model", trained / "model.crbm", "--input", bad,
                           "--output-dir", out],
                "stats": ["stats", "--real", FIXTURE, "--synthetic", bad,
                          "--output-dir", out]}[command]
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text (invalid start byte)\n")
        assert not out.exists()


def marked(path, text):
    """Write ``text`` to ``path`` after a UTF-8 byte-order mark, as Excel's
    "CSV UTF-8" export does."""
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    return path


def date_second(text):
    """The CSV ``text`` with its first two columns swapped."""
    return "".join(",".join([b, a, *rest]) for a, b, *rest in
                   (line.split(",") for line in text.splitlines(keepends=True)))


class TestByteOrderMark:
    def test_a_named_first_date_column_is_found(self, tmp_path, config_path):
        source = marked(tmp_path / "bom.csv", FIXTURE.read_text())
        extra = ["--date-column", "date"]
        assert run(*train_args(tmp_path / "plain", config_path, extra)) == 0
        assert run(*train_args(tmp_path / "bom", config_path, extra, source=source)) == 0
        assert ((tmp_path / "bom" / "model.crbm").read_bytes()
                == (tmp_path / "plain" / "model.crbm").read_bytes())

    def test_the_first_asset_name_has_no_mark(self, tmp_path, config_path):
        source = marked(tmp_path / "bom.csv", date_second(FIXTURE.read_text()))
        out = tmp_path / "bom"
        assert run(*train_args(out, config_path, ["--date-column", "date"], source=source)) == 0
        assert load_model(out / "model.crbm").asset_names == ["EQ", "RATES", "FX"]
        assert run("energy", "--model", out / "model.crbm", "--input", FIXTURE,
                   "--output-dir", tmp_path / "e") == 0

    def test_the_first_config_key_has_no_mark(self, trained, tmp_path, config_path):
        config = marked(tmp_path / "bom.cfg", config_path.read_text())
        assert run(*train_args(tmp_path / "bom", config)) == 0
        assert ((tmp_path / "bom" / "model.crbm").read_bytes()
                == (trained / "model.crbm").read_bytes())

    def test_energy_scores_a_marked_input(self, trained, tmp_path):
        source = marked(tmp_path / "bom.csv", date_second(FIXTURE.read_text()))
        model = trained / "model.crbm"
        assert run("energy", "--model", model, "--input", FIXTURE,
                   "--output-dir", tmp_path / "plain") == 0
        assert run("energy", "--model", model, "--input", source, "--date-column", "date",
                   "--output-dir", tmp_path / "bom") == 0
        assert ((tmp_path / "bom" / cli.ENERGY_FILENAME).read_bytes()
                == (tmp_path / "plain" / cli.ENERGY_FILENAME).read_bytes())

    def test_stats_reads_a_marked_input(self, tmp_path):
        # a mark before a quoted first cell would unquote it, and the comma
        # in it would split the header into one column more than the rows
        rows = FIXTURE.read_text().split("\n", 1)[1]
        source = marked(tmp_path / "bom.csv", '"date, UTC",EQ,RATES,FX\n' + rows)
        for real, out in ((FIXTURE, "plain"), (source, "bom")):
            assert run("stats", "--real", real, "--synthetic", FIXTURE, "--qq-quantiles", "10",
                       "--output-dir", tmp_path / out) == 0
        for path in sorted((tmp_path / "plain").iterdir()):
            assert (tmp_path / "bom" / path.name).read_bytes() == path.read_bytes()


class TestWriteCsv:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(rows=st.lists(st.tuples(NAME, st.floats(), st.integers(-5, 5)), min_size=1,
                         max_size=8),
           block_bytes=st.sampled_from([8, 1 << 18]))
    def test_bytes_match_csv_writer_with_repr(self, tmp_path_factory, rows, block_bytes):
        header = ["asset", 'a,"b"', "c\nd"]
        names, floats, ints = (list(col) for col in zip(*rows))
        out = tmp_path_factory.mktemp("w")
        with mock.patch.object(cli, "READ_AHEAD_BYTES", block_bytes):
            cli._write_csv(out / "new.csv", header,
                           [names, np.array(floats), np.array(ints)])
        with open(out / "want.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([name, repr(float(x)), str(k)] for name, x, k in rows)
        assert (out / "new.csv").read_bytes() == (out / "want.csv").read_bytes()

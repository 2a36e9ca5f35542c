"""The three benchmark workloads and the checks on their outputs.

Each workload writes its seeded inputs, runs its set-up CLI calls, and then
names the timed CLI calls that one closed-loop client repeats. Every CLI call
is one operation; it fails when it exits non-zero or when the check on its
outputs raises ``ValueError``.

- ``fit``: ``crbm train --arch gaussian`` on a 5,000-row, 4-asset CSV. Training
  dominates in-process time: chain sampling, the positive phase and the
  per-epoch monitor.
- ``rollout``: ``crbm generate`` from a 64-visible Bernoulli model. One chain,
  21 sequential Gibbs sweeps per emitted row and the binary decode, so a Gibbs
  kernel tuned for batched Gaussian chains is also judged on this branch.
- ``monitor``: ``crbm energy`` on a 50,000-row, 8-asset CSV, then
  ``crbm stats`` against a 50,000-row synthetic CSV. Nothing is sampled or
  trained in the timed calls; CSV reading and writing, free-energy scoring and
  interpreter start-up dominate.
"""

import datetime
import functools
import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass

import inputs


def child_env(root) -> dict:
    """Environment for ``crbm`` children: the checkout's ``src`` comes first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def crbm_argv(*args) -> list:
    return [sys.executable, "-m", "crbm", *map(str, args)]


def tree_digest(path) -> dict:
    """SHA-256 of every file under ``path``, keyed by relative name."""
    digests = {}
    for base, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                digests[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_rows(path) -> tuple[list, list]:
    """(header, rows) of a CSV written by crbm: plain commas, no quoting."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines.pop() != "":
        raise ValueError(f"{os.path.basename(path)}: missing final newline")
    if not lines:
        raise ValueError(f"{os.path.basename(path)}: empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def finite_floats(cells, where) -> list:
    values = [float(c) for c in cells]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{where}: non-finite value")
    return values


def load_model(path):
    """The package's own loader, from the checkout being measured."""
    from crbm.model_io import load_model as load
    return load(path)


def write_config(path, **keys) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in keys.items()))


def asset_names(n_assets) -> list:
    return [f"asset{j}" for j in range(n_assets)]


@dataclass
class Call:
    """A CLI call and the check its outputs must pass.

    ``check(stdout)`` raises ``ValueError`` describing the first problem.
    """

    name: str
    argv: list
    out_dir: str
    check: object


@dataclass
class Workload:
    """Sizes shared by the workloads; the defaults are the benchmark's."""

    seed: int = 0
    n_assets: int = 4
    lag: int = 5
    n_hidden: int = 64

    def model_config(self, epochs) -> dict:
        return dict(epochs=epochs, n_hidden=self.n_hidden, n_chains=64, batch_size=64,
                    lag=self.lag)

    def setup_calls(self, work) -> list:
        """Write the seeded inputs under ``work``; return the set-up CLI calls."""
        raise NotImplementedError

    def timed_calls(self, work, out) -> list:
        """The calls one operation of the closed loop makes, writing under ``out``."""
        raise NotImplementedError


@dataclass
class Fit(Workload):
    name = "fit"
    n_rows: int = 5000
    epochs: int = 40

    warmup_epochs = 1

    def setup_calls(self, work) -> list:
        """The inputs, and a one-epoch training run on them as a warm-up.

        The warm-up checks that the input trains, and loads the interpreter,
        numpy, scipy and crbm from disk once before the first timed call.
        """
        inputs.write_csv(os.path.join(work, "fit.csv"), self.seed, self.n_rows, self.n_assets)
        write_config(os.path.join(work, "fit.cfg"), **self.model_config(self.epochs))
        write_config(os.path.join(work, "warmup.cfg"), **self.model_config(self.warmup_epochs))
        out = os.path.join(work, "warmup")
        return [Call("train", self.train_argv(work, "warmup.cfg", out), out,
                     functools.partial(self.check_train, out, self.warmup_epochs))]

    def train_argv(self, work, config, out) -> list:
        return crbm_argv("train", "--input", os.path.join(work, "fit.csv"),
                         "--arch", "gaussian", "--seed", self.seed,
                         "--config", os.path.join(work, config), "--output-dir", out)

    def timed_calls(self, work, out) -> list:
        return [Call("train", self.train_argv(work, "fit.cfg", out), out,
                     functools.partial(self.check_train, out, self.epochs))]

    def check_train(self, out, epochs, _stdout) -> None:
        m = load_model(os.path.join(out, "model.crbm")).params
        if (m.arch, m.n_visible, m.n_hidden, m.lag) != ("gaussian", self.n_assets,
                                                        self.n_hidden, self.lag):
            raise ValueError("model.crbm: unexpected architecture or shape")
        header, rows = read_rows(os.path.join(out, "train_report.csv"))
        if header != ["epoch", "recon_mse", "free_energy_train", "free_energy_holdout"]:
            raise ValueError("train_report.csv: unexpected header")
        if len(rows) != epochs:
            raise ValueError(f"train_report.csv: {len(rows)} rows, expected {epochs}")
        for epoch, row in enumerate(rows):
            if len(row) != 4 or row[0] != str(epoch):
                raise ValueError(f"train_report.csv: bad row {epoch}")
            finite_floats(row[1:], f"train_report.csv row {epoch}")


@dataclass
class Rollout(Workload):
    name = "rollout"
    n_rows: int = 2000
    bits: int = 16
    train_epochs: int = 5
    steps: int = 6000
    burn_in: int = 20

    def setup_calls(self, work) -> list:
        inputs.write_csv(os.path.join(work, "rollout.csv"), self.seed, self.n_rows,
                         self.n_assets)
        write_config(os.path.join(work, "rollout.cfg"), **self.model_config(self.train_epochs))
        model_dir = os.path.join(work, "model")
        argv = crbm_argv("train", "--input", os.path.join(work, "rollout.csv"),
                         "--arch", "bernoulli", "--bits", self.bits, "--seed", self.seed,
                         "--config", os.path.join(work, "rollout.cfg"),
                         "--output-dir", model_dir)
        return [Call("train", argv, model_dir, functools.partial(self.check_model, model_dir))]

    def check_model(self, model_dir, _stdout) -> None:
        m = load_model(os.path.join(model_dir, "model.crbm")).params
        if (m.arch, m.n_visible, m.lag) != ("bernoulli", self.n_assets * self.bits, self.lag):
            raise ValueError("model.crbm: unexpected architecture or width")

    def timed_calls(self, work, out) -> list:
        model = os.path.join(work, "model", "model.crbm")
        argv = crbm_argv("generate", "--model", model, "--steps", self.steps,
                         "--burn-in", self.burn_in, "--seed", self.seed, "--output-dir", out)
        return [Call("generate", argv, out,
                     functools.partial(self.check_synthetic, model, out))]

    def check_synthetic(self, model, out, _stdout) -> None:
        codec = load_model(model).codec
        header, rows = read_rows(os.path.join(out, "synthetic.csv"))
        if header != ["step"] + asset_names(self.n_assets):
            raise ValueError("synthetic.csv: unexpected header")
        if len(rows) != self.steps:
            raise ValueError(f"synthetic.csv: {len(rows)} rows, expected {self.steps}")
        slack = 1e-9 * (codec.maximum - codec.minimum)
        lo, hi = codec.minimum - slack, codec.maximum + slack
        for t, row in enumerate(rows):
            if len(row) != self.n_assets + 1 or row[0] != str(t):
                raise ValueError(f"synthetic.csv: bad row {t}")
            values = finite_floats(row[1:], f"synthetic.csv row {t}")
            if not all(lo[j] <= v <= hi[j] for j, v in enumerate(values)):
                raise ValueError(f"synthetic.csv row {t}: value outside the codec range")


FIDELITY = re.compile(r"^correlation fidelity score: (\S+)$", re.MULTILINE)


@dataclass
class Monitor(Workload):
    name = "monitor"
    n_assets: int = 8
    n_rows: int = 50000
    train_share: float = 0.8
    train_epochs: int = 1
    synthetic_rows: int = 50000
    qq_quantiles: int = 99

    def setup_calls(self, work) -> list:
        inputs.write_csv(os.path.join(work, "monitor.csv"), self.seed, self.n_rows,
                         self.n_assets)
        write_config(os.path.join(work, "monitor.cfg"), **self.model_config(self.train_epochs))
        split = inputs.START_DATE + datetime.timedelta(
            days=int(self.train_share * self.n_rows) - 1)
        model_dir = os.path.join(work, "model")
        synth_dir = os.path.join(work, "synthetic")
        train = crbm_argv("train", "--input", os.path.join(work, "monitor.csv"),
                          "--arch", "gaussian", "--seed", self.seed,
                          "--config", os.path.join(work, "monitor.cfg"),
                          "--split-date", split.isoformat(), "--output-dir", model_dir)
        generate = crbm_argv("generate", "--model", os.path.join(model_dir, "model.crbm"),
                             "--steps", self.synthetic_rows, "--burn-in", 0,
                             "--seed", self.seed, "--output-dir", synth_dir)
        return [Call("train", train, model_dir, functools.partial(self.check_model, model_dir)),
                Call("generate", generate, synth_dir,
                     functools.partial(self.check_synthetic, synth_dir))]

    def check_model(self, model_dir, _stdout) -> None:
        m = load_model(os.path.join(model_dir, "model.crbm")).params
        if (m.arch, m.n_visible, m.lag) != ("gaussian", self.n_assets, self.lag):
            raise ValueError("model.crbm: unexpected architecture or width")

    def check_synthetic(self, synth_dir, _stdout) -> None:
        header, rows = read_rows(os.path.join(synth_dir, "synthetic.csv"))
        if header != ["step"] + asset_names(self.n_assets) or len(rows) != self.synthetic_rows:
            raise ValueError("synthetic.csv: unexpected header or row count")
        for t, row in enumerate(rows):
            finite_floats(row[1:], f"synthetic.csv row {t}")

    def timed_calls(self, work, out) -> list:
        energy_dir, stats_dir = os.path.join(out, "energy"), os.path.join(out, "stats")
        energy = crbm_argv("energy", "--model", os.path.join(work, "model", "model.crbm"),
                           "--input", os.path.join(work, "monitor.csv"),
                           "--output-dir", energy_dir)
        stats = crbm_argv("stats", "--real", os.path.join(work, "monitor.csv"),
                          "--synthetic", os.path.join(work, "synthetic", "synthetic.csv"),
                          "--qq-quantiles", self.qq_quantiles, "--output-dir", stats_dir)
        return [Call("energy", energy, energy_dir,
                     functools.partial(self.check_energy, energy_dir)),
                Call("stats", stats, stats_dir, functools.partial(self.check_stats, stats_dir))]

    def check_energy(self, out, _stdout) -> None:
        header, rows = read_rows(os.path.join(out, "free_energy.csv"))
        if header != ["date", "total", "quadratic", "structural", "flag"]:
            raise ValueError("free_energy.csv: unexpected header")
        if len(rows) != self.n_rows - self.lag:
            raise ValueError(f"free_energy.csv: {len(rows)} rows, "
                             f"expected {self.n_rows - self.lag}")
        first = inputs.START_DATE.toordinal() + self.lag
        for i, row in enumerate(rows):
            if len(row) != 5 or row[0] != datetime.date.fromordinal(first + i).isoformat():
                raise ValueError(f"free_energy.csv: bad row {i}")
            total, quadratic, structural = finite_floats(row[1:4], f"free_energy.csv row {i}")
            if abs(total - (quadratic + structural)) > 1e-9 * max(1.0, abs(total)):
                raise ValueError(f"free_energy.csv row {i}: total != quadratic + structural")
            if row[4] not in ("0", "1"):
                raise ValueError(f"free_energy.csv row {i}: flag is not 0 or 1")

    def check_stats(self, out, stdout) -> None:
        for name in asset_names(self.n_assets):
            header, rows = read_rows(os.path.join(out, f"qq_{name}.csv"))
            if header != ["level", "real", "synthetic"] or len(rows) != self.qq_quantiles:
                raise ValueError(f"qq_{name}.csv: unexpected header or row count")
            for k, row in enumerate(rows):
                finite_floats(row, f"qq_{name}.csv row {k}")
        score = FIDELITY.search(stdout)
        if score is None or not math.isfinite(float(score.group(1))):
            raise ValueError("stats printed no finite fidelity score")


WORKLOADS = {w.name: w for w in (Fit, Rollout, Monitor)}

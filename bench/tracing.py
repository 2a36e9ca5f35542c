"""Span tracing of the ``crbm`` layers from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper on
every ``crbm`` module attribute that refers to it, because the package calls
these functions through module attributes (``training.run_chains``,
``generation.gibbs_step``, ``data.ingest_csv``). Spans are found by function
name, so a function keeps its span when it moves between modules. Spans stay
in memory as ``[name, start, end, parent, count, flops]`` until written out.
"""

import os
import sys
import time
from collections import defaultdict


def _rows(arr) -> int:
    shape = getattr(arr, "shape", ())
    return 1 if len(shape) < 2 else shape[0]


def _chain_work(args, kwargs, _result):
    """(chain steps, computed FLOPs) of ``run_chains(v, m, abias, bbias, rngs, steps)``."""
    v, m = args[0], args[1]
    steps = kwargs["steps"] if "steps" in kwargs else args[5]
    n = _rows(v) * steps
    return n, 4 * m.n_visible * m.n_hidden * n


def _gibbs_work(args, _kwargs, _result):
    """(sweeps, computed FLOPs) of ``gibbs_step(v, m, ...)``."""
    n = _rows(args[0])
    return n, 4 * args[1].n_visible * args[1].n_hidden * n


def _rows_read(_args, _kwargs, result):
    return result.values.shape[0], 0


def _rows_emitted(_args, _kwargs, result):
    return result.matrix.shape[0], 0


def _file_bytes(path):
    return os.path.getsize(path), 0


# function name -> (span name, work counter or None). The span's prefix is
# the layer; one layer's functions all go into the same bucket of shares.
SPANS = {
    "cmd_train": ("cli.cmd_train", None),
    "cmd_generate": ("cli.cmd_generate", None),
    "cmd_energy": ("cli.cmd_energy", None),
    "cmd_stats": ("cli.cmd_stats", None),
    "ingest_csv": ("data.ingest_csv", _rows_read),
    "read_values_csv": ("data.read_values_csv", _rows_read),
    "chrono_split": ("data.chrono_split", None),
    "fit_binary_codec": ("data.encode", None),
    "fit_zscore": ("data.encode", None),
    "binarize": ("data.encode", None),
    "standardize": ("data.encode", None),
    "decode_series": ("data.decode", None),
    "build_windows": ("dynamics.build_windows", None),
    "dynamic_visible_bias": ("dynamics.bias", None),
    "dynamic_hidden_bias": ("dynamics.bias", None),
    "conditional_free_energy": ("dynamics.free_energy", None),
    "conditional_free_energy_terms": ("dynamics.free_energy", None),
    "run_chains": ("model.run_chains", _chain_work),
    "gibbs_step": ("model.gibbs_step", _gibbs_work),
    "train": ("training.train", None),
    "init_params": ("training.init", None),
    "init_chains": ("training.init", None),
    "pcd_gradients": ("training.pcd_gradients", None),
    "apply_update": ("training.apply_update", None),
    "reconstruction_mse": ("training.reconstruction_mse", None),
    "generate": ("generation.generate", _rows_emitted),
    "summary_stats": ("diagnostics.summary_stats", None),
    "free_energy_series": ("diagnostics.free_energy_series", None),
    "regime_flags": ("diagnostics.regime_flags", None),
    "qq_table": ("diagnostics.qq_table", None),
    "correlation_fidelity": ("diagnostics.correlation_fidelity", None),
    "save_model": ("model_io.save_model", lambda a, k, r: _file_bytes(a[1])),
    "load_model": ("model_io.load_model", lambda a, k, r: _file_bytes(a[0])),
}

LAYERS = ("cli", "data", "dynamics", "model", "training", "generation", "diagnostics",
          "model_io")

NAME, START, END, PARENT, COUNT, FLOPS = range(6)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every attribute."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, span_name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, 1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT], span[FLOPS] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "crbm" or name.startswith("crbm."))]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                name = getattr(value, "__name__", None)
                if (name in SPANS and callable(value)
                        and getattr(value, "__module__", "").startswith("crbm")):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value, *SPANS[name])
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans, wall_s) -> dict:
    """Per-layer numbers of one traced operation, keyed by metric name.

    Times are self times unless the name says otherwise:
    ``training.negative_s`` is the ``run_chains`` time under
    ``pcd_gradients`` and ``training.monitor_s`` the whole time of the
    per-epoch monitor (``reconstruction_mse`` and the free energies that
    ``train`` computes itself). ``model.gflop_per_s`` is computed from the
    shapes, 4 * n_visible * n_hidden FLOPs per chain step or sweep.
    """
    own = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    flops = defaultdict(int)
    negative = monitor = covered = 0.0
    for s, t in zip(spans, self_times(spans)):
        name, dur = s[NAME], s[END] - s[START]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        own[name] += t
        total[name] += dur
        calls[name] += 1
        count[name] += s[COUNT]
        flops[name] += s[FLOPS]
        if parent is None:
            covered += dur
        if name == "model.run_chains" and parent == "training.pcd_gradients":
            negative += dur
        if name == "training.reconstruction_mse" or (
                name == "dynamics.free_energy" and parent == "training.train"):
            monitor += dur

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    chain_steps, sweeps = count["model.run_chains"], count["model.gibbs_step"]
    return {
        "cli.self_s": sum(t for n, t in own.items() if n.startswith("cli.")),
        "data.ingest_csv_s": own["data.ingest_csv"],
        "data.read_values_csv_s": own["data.read_values_csv"],
        "data.encode_s": own["data.encode"],
        "data.decode_s": own["data.decode"],
        "data.rows_read": count["data.ingest_csv"] + count["data.read_values_csv"],
        "dynamics.build_windows_s": own["dynamics.build_windows"],
        "dynamics.bias_s": own["dynamics.bias"],
        "dynamics.free_energy_s": own["dynamics.free_energy"],
        "dynamics.bias_calls": calls["dynamics.bias"],
        "model.chain_steps": chain_steps,
        "model.us_per_chain_step": 1e6 * ratio(total["model.run_chains"], chain_steps),
        "model.gibbs_steps": sweeps,
        "model.us_per_gibbs_step": 1e6 * ratio(total["model.gibbs_step"], sweeps),
        "model.gflop_per_s": 1e-9 * ratio(
            flops["model.run_chains"] + flops["model.gibbs_step"],
            total["model.run_chains"] + total["model.gibbs_step"]),
        "training.positive_s": own["training.pcd_gradients"],
        "training.negative_s": negative,
        "training.update_s": own["training.apply_update"],
        "training.monitor_s": monitor,
        "training.updates": calls["training.apply_update"],
        "training.updates_per_s": ratio(calls["training.apply_update"],
                                        total["training.train"]),
        "generation.self_s": own["generation.generate"],
        "generation.rows": count["generation.generate"],
        "generation.rows_per_s": ratio(count["generation.generate"],
                                       total["generation.generate"]),
        "diagnostics.free_energy_series_s": own["diagnostics.free_energy_series"],
        "diagnostics.regime_flags_s": own["diagnostics.regime_flags"],
        "diagnostics.qq_s": own["diagnostics.qq_table"],
        "diagnostics.correlation_s": own["diagnostics.correlation_fidelity"],
        "diagnostics.summary_stats_s": own["diagnostics.summary_stats"],
        "model_io.save_s": own["model_io.save_model"],
        "model_io.load_s": own["model_io.load_model"],
        "model_io.bytes": count["model_io.save_model"] + count["model_io.load_model"],
        "trace.coverage": ratio(covered, wall_s),
    }


def layer_shares(spans, wall_s) -> dict:
    """Share of in-process wall time in each layer's self time."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + t / wall_s
    shares["untraced"] = 1.0 - sum(shares.values())
    return shares


def write_spans(spans, path) -> None:
    """One CSV line per span: name, start and end in seconds, parent index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,count\n")
        origin = spans[0][START] if spans else 0.0
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[NAME]},{s[START] - origin!r},{s[END] - origin!r},"
                     f"{s[PARENT]},{s[COUNT]}\n")

"""Benchmark of the ``crbm`` command line on seeded, generated inputs.

    python3 bench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One client runs one CLI call at a time (a closed loop) until ``--seconds``
have passed and at least ``MIN_ROUNDS`` rounds are done. Every output is
checked, and must be byte-identical to the first round's.

``--trace 0`` runs every call as a child process, spawned by a small
launcher process (``launcher.py``) so that no child inherits this process's
memory peak, and reports the end-to-end metrics: the mean wall time and children's CPU time per round, the largest
peak RSS of any child, and the median set-up time over at least
``SETUP_REPEATS`` set-ups. Per-round values go to ``rounds.json``.

``--trace 1`` imports the package in fresh interpreters to time the import,
then runs the same calls in this process through ``crbm.cli.main``, with and
without spans on the package's layers (see ``tracing.py``), and reports
per-layer metrics. Spans of the last traced round go to ``spans.csv``.

Outputs go to ``.bench_work/<workload>`` under the checkout. The last line of
standard output is the result as one JSON object; the lines before it carry
the environment and, when tracing, the layer shares.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time

# One OpenBLAS thread here and in every crbm child, set before numpy loads.
# With the default two, fit's wall time swung by up to 40 % between rounds of
# equal CPU time, depending on whether the second core was free.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import envinfo  # noqa: E402
import tracing  # noqa: E402
from launcher import Launcher  # noqa: E402
from workloads import WORKLOADS, child_env, tree_digest  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3
SETUP_REPEATS = 3
SETUP_SECONDS = 6.0  # short set-ups are repeated until this much time has passed
IMPORT_REPEATS = 3
CALL_TIMEOUT_S = 150.0
IMPORT_PROBE = ("import sys, time\n"
                "t = time.perf_counter()\n"
                "__import__(sys.argv[1])\n"
                "print(repr(time.perf_counter() - t))\n")


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problem}")


def verify(call, returncode, stdout, reference):
    """(problem or None, digest of the call's outputs)."""
    if returncode != 0:
        tail = stdout.strip().splitlines()[-1:] or [""]
        return f"exit code {returncode}: {tail[0]}", None
    try:
        call.check(stdout)
        digest = tree_digest(call.out_dir)
    except (ValueError, OSError) as exc:
        return str(exc), None
    if reference is not None and digest != reference:
        return "outputs differ from the first run with this seed", digest
    return None, digest


def check_calls(tally, label, calls, outcomes, reference):
    """Record one operation per call; return the digests of their outputs.

    ``outcomes`` holds (exit code, stdout) per call and ``reference`` the
    digests of the first run with this seed, or nothing for the first run.
    """
    digests = []
    for n, (call, (returncode, stdout)) in enumerate(zip(calls, outcomes)):
        problem, digest = verify(call, returncode, stdout, reference[n] if reference else None)
        tally.record(f"{label} {call.name}", problem)
        digests.append(digest)
    return digests


def set_up(workload, base, launcher, tally, repeats, seconds=0.0):
    """Set up in fresh directories ``repeats`` times, and again until
    ``seconds`` have passed; return (work dir, set-up times).

    Each repetition writes the inputs and runs the set-up calls; its time
    excludes the output checks. Every repetition must produce the same bytes.
    """
    times, first = [], None
    deadline = time.perf_counter() + seconds
    while len(times) < repeats or time.perf_counter() < deadline:
        r = len(times)
        work = os.path.join(base, f"setup{r}")
        os.makedirs(work)
        t0 = time.perf_counter()
        calls = workload.setup_calls(work)
        results = [launcher.run(c.argv, os.path.join(base, "setup.log")) for c in calls]
        times.append(time.perf_counter() - t0)
        digests = check_calls(tally, f"setup {r}", calls,
                              [(res.returncode, res.stdout) for res in results], first)
        inputs_digest = {k: v for k, v in tree_digest(work).items() if os.sep not in k}
        if first is None:
            first, first_inputs = digests, inputs_digest
        elif inputs_digest != first_inputs:
            raise RuntimeError("input generator wrote different bytes for the same seed")
    return os.path.join(base, "setup0"), times


def fresh(path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def untraced(workload, base, work, launcher, tally, seconds) -> dict:
    """End-to-end metrics from child processes.

    Wall and CPU time are means per round, that is the inverse of the closed
    loop's throughput. The machine's speed drifts by up to 40 % over tens of
    seconds, and the mean weighs each speed by the time spent at it, where a
    median picks one. The peak RSS is the largest of any child.
    """
    walls, cpus, rsses, reference = [], [], [], None
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        calls = workload.timed_calls(work, fresh(os.path.join(base, "out")))
        t0 = time.perf_counter()
        results = [launcher.run(c.argv, os.path.join(base, f"{c.name}.log")) for c in calls]
        walls.append(time.perf_counter() - t0)
        cpus.append(sum(r.cpu_s for r in results))
        rsses.append(max(r.rss_mib for r in results))
        digests = check_calls(tally, f"round {len(walls)}", calls,
                              [(r.returncode, r.stdout) for r in results], reference)
        reference = reference or digests
    with open(os.path.join(base, "rounds.json"), "w", encoding="utf-8") as fh:
        json.dump({"wall_s": walls, "cpu_s": cpus, "peak_rss_mib": rsses}, fh)
    return {"wall_s": statistics.fmean(walls), "cpu_s": statistics.fmean(cpus),
            "peak_rss_mib": max(rsses)}


def in_process(calls):
    """Run calls through ``crbm.cli.main``; return (wall seconds, [(rc, stdout)])."""
    from crbm.cli import main

    outcomes = []
    t0 = time.perf_counter()
    for call in calls:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                rc = main(call.argv[3:])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        outcomes.append((rc, captured.getvalue()))
    return time.perf_counter() - t0, outcomes


def import_metrics(launcher, base) -> dict:
    """Import times of ``crbm`` and of numpy alone, each in a fresh interpreter."""
    times = {"crbm": [], "numpy": []}
    rss = []
    log = os.path.join(base, "import.log")
    for _ in range(IMPORT_REPEATS):
        for module in times:
            res = launcher.run([sys.executable, "-c", IMPORT_PROBE, module], log)
            if res.returncode != 0:
                raise RuntimeError(f"import {module} failed: {res.stdout.strip()}")
            times[module].append(float(res.stdout.strip().splitlines()[-1]))
            if module == "crbm":
                rss.append(res.rss_mib)
    return {"import.crbm_s": statistics.median(times["crbm"]),
            "import.numpy_s": statistics.median(times["numpy"]),
            "import.rss_mib": statistics.median(rss)}


def traced(workload, base, work, launcher, tally, seconds):
    """Per-layer metrics (medians over traced rounds) and layer shares.

    Untraced and traced in-process rounds run in pairs, each side going
    first in turn. The tracing overhead is the median of the paired
    differences, traced minus untraced; the distance between their quartiles
    tells whether it stands out from the noise.
    """
    metrics = import_metrics(launcher, base)
    tracer = tracing.Tracer()
    reference = []

    def run_round(trace_on):
        calls = workload.timed_calls(work, fresh(os.path.join(base, "out")))
        tracer.reset()
        if trace_on:
            tracer.install()
        try:
            wall, outcomes = in_process(calls)
        finally:
            tracer.uninstall()
        digests = check_calls(tally, "in-process", calls, outcomes, reference)
        reference[:] = reference or digests
        return wall

    run_round(False)  # warms lazy state in this process; not timed
    overheads, rounds = [], []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        walls = {}
        for trace_on in ((False, True) if len(rounds) % 2 == 0 else (True, False)):
            wall = walls[trace_on] = run_round(trace_on)
            if trace_on:
                rounds.append((tracing.layer_metrics(tracer.spans, wall),
                               tracing.layer_shares(tracer.spans, wall)))
                spans = list(tracer.spans)
        overheads.append(walls[True] - walls[False])
    tracing.write_spans(spans, os.path.join(base, "spans.csv"))
    for key in rounds[0][0]:
        metrics[key] = statistics.median(r[0][key] for r in rounds)
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    metrics["trace.overhead_s"] = median
    metrics["trace.overhead_iqr_s"] = q3 - q1
    shares = {k: statistics.median(r[1][k] for r in rounds) for k in rounds[0][1]}
    return metrics, shares


def unit(name) -> str:
    if name == "trace.coverage":
        return "fraction"
    if name == "model.gflop_per_s":
        return "GFLOP/s-computed"
    if name.endswith("_per_s"):
        return "1/s"
    if name.split(".")[-1].startswith("us_per_"):
        return "us"
    if name == "model_io.bytes":
        return "bytes"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crbm", "__init__.py")):
        print(f"error: no crbm package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import crbm
    if not os.path.abspath(crbm.__file__).startswith(SRC + os.sep):
        print(f"error: crbm was imported from {crbm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    base = fresh(os.path.join(ROOT, ".bench_work", args.workload))
    workload = WORKLOADS[args.workload](seed=args.seed)
    environment = envinfo.environment(ROOT, args.seed)
    with open(os.path.join(base, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(environment, fh, indent=1)
    print(json.dumps({"env": environment}))

    tally = Tally()
    with Launcher(child_env(ROOT), CALL_TIMEOUT_S) as launcher:
        if args.trace:
            work, _ = set_up(workload, base, launcher, tally, 1)
            metrics, shares = traced(workload, base, work, launcher, tally, args.seconds)
            print(json.dumps({"layer_shares": shares}))
        else:
            work, setup_times = set_up(workload, base, launcher, tally, SETUP_REPEATS,
                                       SETUP_SECONDS)
            metrics = untraced(workload, base, work, launcher, tally, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
    for problem in tally.problems:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

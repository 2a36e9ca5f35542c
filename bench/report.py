"""Run every workload, print the metrics by name, optionally store them.

    python3 bench/report.py --rounds 10 --seconds 20 [--write bench/baseline.json]

Round r runs each workload once with seed r + 1 and ``--trace 0``; the
workload that goes first rotates from round to round, so slow drift of the
machine's speed spreads over all workloads. One traced run per workload
follows. For each end-to-end metric the report gives the median, the
quartiles and their distance as a share of the median (the spread), and
for each workload the error rate: failed over attempted operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ORDER = tuple(WORKLOADS)


def run_once(workload, seed, seconds, trace):
    """(result, environment, layer shares) of one ``run.py`` invocation."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    extra = {k: v for line in lines[:-1] for k, v in line.items()}
    return lines[-1], extra.get("env"), extra.get("layer_shares")


def summarize(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--write", help="store the report as JSON in this file")
    args = parser.parse_args(argv)

    runs = {w: [] for w in ORDER}
    environment = None
    for r in range(args.rounds):
        for k in range(len(ORDER)):
            workload = ORDER[(r + k) % len(ORDER)]
            result, environment, _ = run_once(workload, r + 1, args.seconds, 0)
            runs[workload].append(result)
            print(f"round {r + 1} {workload}: " + ", ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()), flush=True)

    report = {"environment": environment, "rounds": args.rounds, "seconds": args.seconds,
              "seeds": list(range(1, args.rounds + 1)), "workloads": {}}
    for workload in ORDER:
        results = runs[workload]
        traced, _, shares = run_once(workload, 1, args.seconds, 1)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        units = {n: m["unit"] for n, m in results[0]["metrics"].items()}
        report["workloads"][workload] = {
            "end_to_end": {n: {"unit": u, **summarize([r["metrics"][n]["value"]
                                                       for r in results])}
                           for n, u in units.items()},
            "error_rate": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "per_layer": traced["metrics"],
            "layer_shares": shares,
            "traced_correct": traced["correct"],
        }

    for workload, entry in report["workloads"].items():
        print(f"\n{workload} ({args.rounds} runs of {args.seconds} s)")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:14s} {s['median']:10.4f} {s['unit']:4s} "
                  f"quartiles {s['q1']:.4f}..{s['q3']:.4f} spread {s['spread']:.3f}")
        print(f"  {'error_rate':14s} {entry['error_rate']:10.4f} "
              f"({entry['failed']} of {entry['attempted']} operations failed)")
        shares = ", ".join(f"{k} {v:.3f}" for k, v in entry["layer_shares"].items() if v)
        print(f"  layer shares of in-process wall time: {shares}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check and baseline of the benchmark.

    python3 perfbench/steady.py --workload cli-scenarios
    python3 perfbench/steady.py --workload lift-curved --counts --seed 4

Every run lasts BENCHMARK.json's run_seconds.  The first form runs
the untraced benchmark once per seed 1..10 and prints, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median that
BENCHMARK.json bounds.  The second runs the traced benchmark twice on
one seed (default 1) and checks that every count metric repeats
exactly.  Both merge their figures into perfbench/baseline.json
under the workload's name.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
SEEDS = 10


def run(bench, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("run failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect result on seed %d:\n%s" % (seed, proc.stderr))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(args, bench, entry):
    rows = [run(bench, args.workload, s, 0) for s in range(1, SEEDS + 1)]
    print("%-14s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    out = {}
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in rows]
        med, spr = statistics.median(vals), spread(vals)
        out[m["name"]] = {"median": med, "spread": spr, "unit": m["unit"],
                          "values": vals}
        flag = "" if spr < m["bound"] / 3 else \
            ("  above bound/3" if spr < m["bound"] else "  ABOVE BOUND")
        print("%-14s %12.4f %8.4f %8.2f%s"
              % (m["name"], med, spr, m["bound"], flag))
    entry["end_to_end"] = out
    entry["attempted_per_run"] = [r["attempted"] for r in rows]


def counts(args, bench, entry):
    a, b = (run(bench, args.workload, args.seed, 1) for _ in range(2))
    names = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    diff = [n for n in names
            if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    for n in names:
        print("%-40s %12s %12s" % (n, a["metrics"][n]["value"],
                                   b["metrics"][n]["value"]))
    print("count metrics that differ: %s" % (", ".join(diff) or "none"))
    entry["per_layer"] = {k: v["value"] for k, v in a["metrics"].items()}
    entry["per_layer_seed"] = args.seed
    entry["counts_repeat"] = not diff


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--counts", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    baseline = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            baseline = json.load(fh)
    entry = baseline.setdefault(args.workload, {})
    (counts if args.counts else steadiness)(args, bench, entry)
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

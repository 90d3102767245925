"""Benchmark of the jacobi-bfv engine.

    python3 perfbench/run.py --workload lift-curved --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process, one thread, closed loop:
the cases of a round run one after another, and rounds repeat until
``--seconds`` have passed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  In a traced
run, untraced and traced rounds alternate; their difference is the
tracing overhead, and the spans go to ``perfbench/out/``.

The first round verifies every case against its known answer and
exact invariants; later rounds must reproduce the verified outcome.
Checks run outside the timed calls.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
KERNEL_RUNS = 8


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


class Runner:
    """Rounds of one workload's cases, with their checks and timings.
    Every round, traced or not, times the reference kernel right before
    each case, with no wrapper installed, and is calibrated by the
    median of those kernel times (see calibrate.py).  A traced round
    installs the wrappers around each case only, so traced and
    untraced round times compare like with like."""

    def __init__(self, cases, tracer):
        self.cases = cases
        self.tracer = tracer
        self.refs = {}
        self.attempted = 0
        self.failed = 0
        self.samples = []
        self.walls = {False: [], True: []}
        self.cpus = []
        self.raw_walls = []
        self.layer_rounds = []

    def round(self, traced):
        kernels = []
        times = []
        if traced:
            self.tracer.reset_round()
        for case in self.cases:
            kernels.append(calibrate.measure())
            outcome, error, wall, cpu = self.run_case(case, traced)
            times.append((wall, cpu))
            self.attempted += 1
            if error is None:
                error = self.check(case, outcome)
            if error is not None:
                self.failed += 1
                print("FAIL %s: %s" % (case.cid, error), file=sys.stderr)
        fw, fc = scale(kernels)
        self.walls[traced].append(fw * sum(w for w, _ in times))
        if traced:
            metrics = self.tracer.round_metrics()
            self.layer_rounds.append({
                k: fw * v if k.endswith("_s") else v
                for k, v in metrics.items()})
        else:
            self.samples += [fw * w for w, _ in times]
            self.cpus.append(fc * sum(c for _, c in times))
            self.raw_walls.append(sum(w for w, _ in times))

    def run_case(self, case, traced):
        "(outcome, error, wall s, CPU s) of one timed case run."
        tr = self.tracer
        run = case.run
        if traced:
            run = tr.timed("case", run)
            tr.case = case.cid
            tr.install()
            tr.active = True
        outcome = error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outcome = run()
        except Exception:
            error = traceback.format_exc()
        finally:
            t1 = time.perf_counter()
            c1 = time.process_time()
            if traced:
                tr.active = False
                tr.uninstall()
        return outcome, error, t1 - t0, c1 - c0

    def check(self, case, outcome):
        if case.cid not in self.refs:
            error = forked(case.verify, outcome)
            if error is None:
                self.refs[case.cid] = case.fingerprint(outcome)
            return error
        if case.fingerprint(outcome) != self.refs[case.cid]:
            return "outcome differs from the verified first round"
        return None


def forked(verify, outcome):
    """verify(outcome) in a forked child, which returns its verdict (an
    error message or None) through a pipe.  The memory the checks use
    then stays out of this process's peak_rss_mb."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                verdict = verify(outcome)
            except Exception:
                verdict = traceback.format_exc()
            data = json.dumps({"error": verdict}).encode()
            while data:
                data = data[os.write(w, data):]
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return "check process ended with status %d" % status
    return json.loads(data)["error"]


def scale(kernels):
    "Calibration factors for wall and CPU time from kernel timings."
    return (calibrate.REF_SECONDS / statistics.median(w for w, _ in kernels),
            calibrate.REF_SECONDS / statistics.median(c for _, c in kernels))


def end_to_end(runner, setup_s):
    s = runner.samples
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(runner.walls[False]),
        "cpu_s": statistics.median(runner.cpus),
        "case_ms.p50": 1000 * statistics.median(s),
        "case_ms.p90": 1000 * statistics.quantiles(s, n=10)[8],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner):
    """Counts of the first traced round (every round repeats them),
    median self times over traced rounds, and derived ratios."""
    out = {}
    for name in set().union(*runner.layer_rounds):
        vals = [r.get(name, 0) for r in runner.layer_rounds]
        if name.endswith("_s"):
            out[name] = statistics.median(vals)
            continue
        out[name] = vals[0]
        if len(set(vals)) > 1:
            print("perfbench: count %s differs between traced rounds: %s"
                  % (name, vals), file=sys.stderr)

    def ratio(a, b):
        return out.get(a, 0) / out[b] if out.get(b) else 0.0

    out["multideriv.sj_bracket.yield"] = ratio(
        "multideriv.sj_bracket.terms_out", "multideriv.sj_bracket.term_pairs")
    out["solver.residual_brackets_per_solve"] = ratio(
        "solver.residual_brackets", "solver.obstruction_solve.calls")
    out["cli.lift_calls_per_run"] = ratio("solver.lift_jacobi.calls",
                                          "cli.run.calls")
    untraced = statistics.median(runner.walls[False])
    out["trace.overhead_s"] = statistics.median(runner.walls[True]) - untraced
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / untraced
    return out


def main():
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing, so set and dict layouts repeat run to run
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jacobi_bfv", "__init__.py")):
        fail("engine sources not found under %s" % src)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail("unknown workload %r" % args.workload)

    sys.path.insert(0, src)
    kernels = [calibrate.measure() for _ in range(KERNEL_RUNS)]
    t0 = time.perf_counter()
    import jacobi_bfv  # noqa: F401  (import time is part of setup)
    import_s = time.perf_counter() - t0

    workdir = os.path.join(HERE, "out", args.workload)
    os.makedirs(workdir, exist_ok=True)
    setup = workloads.WORKLOADS[args.workload]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = setup(args.seed, workdir)
        times.append(time.perf_counter() - t0)
    kernels += [calibrate.measure() for _ in range(KERNEL_RUNS)]
    setup_s = scale(kernels)[0] * (import_s + statistics.median(times))

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cases, tracer)
    # rounds run while the next one is expected to end within --seconds
    start = time.perf_counter()
    n = 0
    while True:
        t0 = time.perf_counter()
        runner.round(traced=bool(args.trace) and n % 2 == 1)
        n += 1
        now = time.perf_counter()
        if now + (now - t0) - start > args.seconds and \
                (not args.trace or n >= 2):
            break

    if args.trace:
        values = per_layer(runner)
        wanted = bench["per_layer"]
        tracer.write_spans(os.path.join(
            HERE, "out", "trace-%s-%d.jsonl" % (args.workload, args.seed)))
    else:
        values = end_to_end(runner, setup_s)
        wanted = bench["end_to_end"]
    print("perfbench: %s seed %d: %d rounds of %d cases, %d failed; "
          "uncalibrated median round wall %.3f s"
          % (args.workload, args.seed, n, len(cases), runner.failed,
             statistics.median(runner.raw_walls)), file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""bgeo benchmark: seeded verdict workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {surfaces,moser,symbolic} \\
        --seed N --seconds S --trace {0,1} [--small]

With --trace 0 the run measures the end-to-end metrics with tracing off.
Every time is reported in calibrated seconds: the measured time scaled by
PROBE_REF_S over the median time of a bgeo-free speed probe taken around
it, which cancels the shared host's changes of speed.  The times as
measured are printed too.

* setup_s: median wall time of several cold starts, each a fresh
  interpreter that imports bgeo.cli and writes the seeded documents;
* wall_s: mean over rounds of the time from a round's first verdict to
  its last.  An untimed warm-up round of small verdicts runs first; then
  rounds repeat, each on fresh seeded documents, while the next one is
  expected to end at most half a round after --seconds (at least one
  round runs);
* verdict_p50_s, verdict_p90_s: percentiles of a round's verdict times,
  averaged over the rounds;
* peak_rss_mb: peak resident memory of this process.

With --trace 1 the run executes one round untraced and the same round
traced (see tracing.py), checks that every report is byte-identical, and
reports the per-layer metrics, the kernel rates and trace.overhead_s.

The load is closed-loop: one caller runs the verdicts one after another in
this process, with BLAS limited to one thread.  The last line of stdout is
the JSON result; the full record, spans included, goes to
.perfbench/out/.  Without src/bgeo in the working directory the run exits
with code 2 and prints no result.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
COLD_STARTS = 4
IMPORT_RUNS = 3
CHILD_TIMEOUT = 120
KERNEL_POINTS = 200_000
# The speed probe: a fixed loop of Python integer arithmetic that never
# touches bgeo, run between verdicts at most every PROBE_EVERY_S seconds.
PROBE_LOOPS = 20_000
PROBE_EVERY_S = 0.25
# The probe's time on the 2-core x86_64 machine the benchmark was defined
# on, with that host quiet.  Calibrated seconds are seconds at that speed.
PROBE_REF_S = 1.2e-3
# the kernel micro-benchmark's tape cases, evaluated on [-2, 2]^2
KERNEL_CASES = {
    "polynomial": "x^3*y - 2*x*y^2 + y^4/4 - x + 7/3",
    "rational": "(x^2 + y^2)/(1 + x^2*y^2) + 1/(x^2 + 1/2)",
    "transcendental": "sin(x)^2*cos(3*y) + exp(-x^2 - y^2)*log(2 + x^2)",
    "deep": "sin(cos(sin(cos(x*y) + x) - y) + exp(-abs(x)))",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("surfaces", "moser", "symbolic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true",
                   help="one small round, for the self-test")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# --- set-up ------------------------------------------------------------------

def child_env(src):
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def cold_starts(args, src, workdir):
    """Wall times of COLD_STARTS cold starts, and speed probes taken
    before each and after the last.  Every one writes the same documents
    into workdir."""
    cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), args.workload,
           str(args.seed), workdir] + (["--small"] if args.small else [])
    walls, probes = [], [speed_probe()]
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(src), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        walls.append(time.perf_counter() - t0)
        probes.append(speed_probe())
        if proc.returncode != 0:
            fail("cold start failed:\n" + proc.stderr[-2000:])
    return walls, probes


def import_split(src):
    """import.numpy_s, import.scipy_s and import.bgeo_s: self times from
    `python -X importtime -c "import bgeo.cli"`, median of IMPORT_RUNS fresh
    interpreters.  Modules imported under numpy or scipy count for them;
    every other module under the bgeo imports counts for bgeo."""
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bgeo.cli"],
            env=child_env(src), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            fail("import bgeo.cli failed:\n" + proc.stderr[-2000:])
        samples.append(_import_buckets(proc.stderr))
    return {f"import.{k}_s": statistics.median(s[k] for s in samples) / 1e6
            for k in ("numpy", "scipy", "bgeo")}


def _import_buckets(log):
    # -X importtime prints a module after its children, indented two
    # spaces per level, so a stack rebuilds the tree
    stack = []
    for line in log.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        depth = len(fields[2]) - len(fields[2].lstrip())
        node = (fields[2].strip(), int(fields[0]), [])
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))
    totals = {"numpy": 0, "scipy": 0, "bgeo": 0}

    def walk(node, bucket):
        top = node[0].split(".")[0]
        if bucket == "bgeo" and top in ("numpy", "scipy"):
            bucket = top
        totals[bucket] += node[1]
        for child in node[2]:
            walk(child, bucket)

    for _, root in stack:
        if root[0].split(".")[0] == "bgeo":
            walk(root, "bgeo")
    return totals


def import_library(src):
    """Import bgeo from the checkout, including the modules the CLI loads
    lazily, so that no round pays an import."""
    sys.path.insert(0, src)
    import bgeo.cli  # noqa: F401
    import bgeo.extension  # noqa: F401
    import bgeo.normalform  # noqa: F401
    import bgeo

    if os.path.dirname(os.path.abspath(bgeo.__file__)) != \
            os.path.join(src, "bgeo"):
        fail(f"imported bgeo from {bgeo.__file__}, not from {src}")


# --- verdicts ----------------------------------------------------------------

def load_law_cases(entries):
    files = {e["law_file"] for e in entries if "law_file" in e}
    cases = {}
    for path in files:
        with open(path) as fh:
            cases.update(json.load(fh))
    return cases


def speed_probe():
    """Seconds taken by the probe loop: the host's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return time.perf_counter() - t0


def run_round(entries, tracer=None, probes=None):
    """Run one round; returns [(kind, seconds, report, failure)] in verdict
    order.  With a probes list, speed probes are appended to it between
    verdicts, outside the verdict times."""
    from verdicts import run_verdict

    cases = load_law_cases(entries)
    results = []
    perf = time.perf_counter
    last = perf()
    for entry in entries:
        t0 = perf()
        if tracer is None:
            report, failure = run_verdict(entry, cases)
        else:
            report, failure = tracer.run_verdict(entry["kind"], run_verdict,
                                                 entry, cases)
        results.append((entry["kind"], perf() - t0, report, failure))
        if probes is not None and perf() - last > PROBE_EVERY_S:
            probes.append(speed_probe())
            last = perf()
    return results


def round_wall(results):
    """First verdict to last: the bookkeeping between verdicts is a few
    microseconds, so the sum of their times."""
    return math.fsum(r[1] for r in results)


def run_untraced(rounds, seconds, probes):
    """Rounds while the next one is expected to end no more than half a
    round after --seconds, so that on average the whole budget is
    measured."""
    results = []
    probes.append(speed_probe())
    start = time.perf_counter()
    for entries in rounds:
        if results and (time.perf_counter() - start + statistics.fmean(
                round_wall(res) for res in results) / 2 > seconds):
            break
        results.append(run_round(entries, probes=probes))
    return results


def kernel_rates(seed, seconds):
    """Points per second of the tape kernel on each case, from the median
    of repeated evaluations of KERNEL_POINTS points."""
    import numpy as np
    from bgeo.evalcore import compile_tape, evaluate_tape
    from bgeo.symexpr import Patch, parse_expr

    patch = Patch(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(KERNEL_POINTS, 2))
    budget = max(0.5, seconds / 4 / len(KERNEL_CASES))
    rates = {}
    for name, text in KERNEL_CASES.items():
        tape = compile_tape(parse_expr(text, patch), ("x", "y"))
        times = []
        start = time.perf_counter()
        while len(times) < 3 or time.perf_counter() < start + budget:
            t0 = time.perf_counter()
            evaluate_tape(tape, pts)
            times.append(time.perf_counter() - t0)
        rates["evalcore.rate." + name] = KERNEL_POINTS / statistics.median(
            times)
    return rates


# --- metrics -----------------------------------------------------------------

def environment(args):
    import numpy
    import scipy
    from bgeo import evalcore

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "small": args.small,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "evalcore_kernel": evalcore.KERNEL_NAME,
        "machine": platform.machine(),
    }


def percentile(values, q):
    """The q-th percentile, interpolated between the closest values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, setup_walls):
    """The metrics as measured.  Per-round figures are averaged over the
    rounds, not their median taken: a run has only a few rounds, and a
    median picks the host's speed state of one of them."""
    def round_mean(stat):
        return statistics.fmean(stat([t for _, t, _, _ in res])
                                for res in results)

    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": round_mean(math.fsum),
        "verdict_p50_s": round_mean(lambda ts: percentile(ts, 50)),
        "verdict_p90_s": round_mean(lambda ts: percentile(ts, 90)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_counts(results):
    """normalform.rk_steps and .collar_halvings, read from moser reports."""
    steps = halvings = 0
    for kind, _, report, failure in results:
        if kind.startswith("moser") and failure is None:
            doc = json.loads(report)
            steps += doc["steps"]
            halvings += doc["collar_halvings"]
    return {"normalform.rk_steps": steps,
            "normalform.collar_halvings": halvings}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bgeo", "__init__.py")):
        fail("run from the root of a bgeo checkout (src/bgeo not found)")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, "work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        record = measure(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in record["metrics"]:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": record["metrics"][m["name"]],
                              "unit": m["unit"]}
    failures = record["failures"]
    attempted = record["attempted"]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    os.makedirs(os.path.join(base, "out"), exist_ok=True)
    out_path = os.path.join(base, "out", f"{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(dict(record, result=result), fh)

    for failure in failures[:20]:
        print("FAILED", failure)
    print("env", json.dumps(record["env"], sort_keys=True))
    rounds = len(record["round_walls"])
    per_round = len(record["verdict_times"][0])
    print(f"{args.workload}: {attempted} verdicts, {rounds * per_round} of "
          f"them timed in {rounds} round(s) after the warm-up, so the "
          f"verdict percentiles rest on {per_round} samples a round; "
          f"failed_frac {len(failures) / attempted:.4g} ratio")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if "raw_metrics" in record:
        print(f"  as measured, before calibration (probe median "
              f"{statistics.median(record['probes']) * 1e3:.4g} ms, "
              f"reference {PROBE_REF_S * 1e3:.4g} ms):")
        for name, value in record["raw_metrics"].items():
            print(f"  {name:34s} {value:.6g}")
    print(json.dumps(result))
    return 0


def measure(args, src, workdir):
    setup_walls, setup_probes = cold_starts(args, src, workdir)
    import_library(src)
    with open(os.path.join(workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    rounds = manifest["rounds"]
    record = {"env": environment(args), "setup_walls": setup_walls}
    # untimed, but checked like any other verdict
    warmup = run_round(manifest["warmup"])

    if not args.trace:
        probes = []
        results = run_untraced(rounds, args.seconds, probes)
        raw = end_to_end(results, setup_walls)
        # The host's speed switches between states up to 1.8x apart that
        # last from seconds to minutes, so the same code measured in
        # different runs spreads past the bounds.  Each time is scaled by
        # PROBE_REF_S over the median probe time taken around it: set-up
        # by the probes around the cold starts, the rest by the probes
        # between verdicts.
        scale = PROBE_REF_S / statistics.median(probes)
        setup_scale = PROBE_REF_S / statistics.median(setup_probes)
        metrics = {k: v * (setup_scale if k == "setup_s" else scale)
                   for k, v in raw.items() if k.endswith("_s")}
        metrics["peak_rss_mb"] = raw["peak_rss_mb"]
        record.update(metrics=metrics, raw_metrics=raw, probes=probes,
                      setup_probes=setup_probes)
    else:
        import laws
        import verdicts
        from tracing import Tracer, layer_metrics

        untraced = run_round(rounds[0])
        tracer = Tracer()
        tracer.install(callers=(laws, verdicts))
        try:
            traced = run_round(rounds[0], tracer)
        finally:
            tracer.uninstall()
        results = [untraced, traced]
        metrics = layer_metrics(tracer)
        metrics.update(report_counts(traced))
        metrics["trace.overhead_s"] = (round_wall(traced)
                                       - round_wall(untraced))
        metrics.update(import_split(src))
        metrics.update(kernel_rates(args.seed, args.seconds))
        record.update(metrics=metrics, spans=tracer.spans,
                      dropped_spans=tracer.dropped_spans)

    # one entry per failed verdict, keyed by (pass, position)
    failures = {(r, i): f"round {r} {kind}: {why}"
                for r, res in enumerate(results)
                for i, (kind, _, _, why) in enumerate(res)
                if why is not None}
    failures.update({("warmup", i): f"warm-up {kind}: {why}"
                     for i, (kind, _, _, why) in enumerate(warmup)
                     if why is not None})
    if args.trace:
        for i, (a, b) in enumerate(zip(untraced, traced)):
            if a[2] != b[2]:
                failures.setdefault((1, i), f"{a[0]}: traced report differs")
    record.update(
        failures=list(failures.values()),
        attempted=len(warmup) + sum(len(res) for res in results),
        round_walls=[round_wall(res) for res in results],
        verdict_times=[[(kind, t) for kind, t, _, _ in res]
                       for res in results])
    return record


if __name__ == "__main__":
    sys.exit(main())

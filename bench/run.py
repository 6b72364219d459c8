"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs as a closed
loop with one client: the next operation starts when the previous one has
returned, in whole rounds, until S seconds have passed.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; with `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones.  A traced run repeats the same operations
with spans on, after the untraced pass, and reports the difference in busy
time as the tracing overhead; its spans go to `.bench_out/`.  Diagnostics
(check values, sample counts) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# one BLAS thread: set before numpy loads, so runs on a shared machine
# compare like with like
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

clock = time.perf_counter


def tail_percentile(n: int) -> int:
    """The tail percentile reported for n latency samples.

    Below 40 samples only the median is reported (50).  Otherwise it is
    the highest whole percentile with at least ten samples beyond it.
    """
    if n < 40:
        return 50
    return (100 * (n - 10)) // n


def latency_summary(samples) -> dict:
    """Median and the tail value by the rule of `tail_percentile`, in ms."""
    s = sorted(samples)
    pct = tail_percentile(len(s))
    p50 = statistics.median(s)
    tail = p50 if pct == 50 else s[math.ceil(pct * len(s) / 100) - 1]
    return {"p50_ms": 1e3 * p50, "tail_ms": 1e3 * tail, "tail_pct": pct, "n": len(s)}


def run_pass(wl, seconds: float, tracer=None, rounds=None) -> dict:
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds."""
    wl.new_pass()
    busy = units = 0.0
    latencies, records, failures = [], [], []
    attempted = 0
    start = clock()
    r = 0
    while (clock() - start < seconds) if rounds is None else (r < rounds):
        for op in wl.round(r):
            if tracer is not None:
                tracer.qid = attempted
                sid = tracer.begin("bench.op")
            attempted += 1
            t0 = clock()
            try:
                n, is_sample, rec = wl.run(op)
            except Exception:  # an operation the program refused counts as failed
                failures.append(traceback.format_exc(limit=3))
                busy += clock() - t0
                continue
            finally:
                if tracer is not None:
                    tracer.end(sid)
            dt = clock() - t0
            busy += dt
            units += n
            if is_sample:
                latencies.append(dt)
            records.append(rec)
        r += 1
    return {"rounds": r, "attempted": attempted, "failures": failures, "busy": busy,
            "units": units, "latencies": latencies, "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    t0 = clock()
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    import_s = clock() - t0
    src_pkg = os.path.join(ROOT, "src", "nlslab")
    if os.path.dirname(os.path.abspath(workloads.MODULES["solitons"].__file__)) != src_pkg:
        print(f"the program was not loaded from {src_pkg}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload '{args.workload}'; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    tracer = None
    if args.trace:
        from tracing import UNITS, Tracer, layer_metrics
        tracer = Tracer()
        tracer.install(workloads.MODULES)
        tracer.active = True
    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = clock()
        wl.setup()
        setup_times.append(clock() - t0)
    if tracer is not None:
        tracer.active = False

    res = run_pass(wl, args.seconds)
    detail = {"workload": wl.name, "seed": args.seed, "import_s": import_s,
              "setup_runs_s": setup_times, "rounds": res["rounds"],
              "busy_s": res["busy"], "units": res["units"]}
    if tracer is not None:
        tracer.active = True
        replay = run_pass(wl, 0.0, tracer=tracer, rounds=res["rounds"])
        tracer.active = False
        tracer.uninstall()
        detail["traced_busy_s"] = replay["busy"]
    checks = wl.check(res["records"]) if res["records"] else [("no_results", False, 0.0)]
    detail["checks"] = {name: value for name, _ok, value in checks}
    detail["failed_checks"] = [name for name, ok, _v in checks if not ok]
    detail["failures"] = res["failures"]

    if tracer is None:
        lat = latency_summary(res["latencies"])
        detail["latency"] = lat
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_s": res["units"] / res["busy"],
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.json"))
        values = layer_metrics(tracer.spans, wl.table_bytes())
        values["trace.overhead_pct"] = 100.0 * (replay["busy"] / res["busy"] - 1.0)
        values["trace.spans"] = len(tracer.spans)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    print(json.dumps(detail, default=float), file=sys.stderr)
    print(json.dumps({"correct": not detail["failed_checks"], "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

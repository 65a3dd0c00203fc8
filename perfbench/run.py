"""lieyam benchmark: seeded CLI workloads, checked verdicts, per-layer trace.

    python3 perfbench/run.py --workload {cohomology,verify,search} \\
        [--seed 1] [--seconds 30] [--trace 0|1]

Run from anywhere inside a checkout; it works in the checkout root and
reads and writes only there (generated inputs, results and spans go to
.perfbench/).  It generates the workload's inputs from --seed (gen.py),
then drives them through `lieyam.cli.main` in a fresh worker process as a
closed loop (worker.py) and checks every verdict.

--trace 0 measures the end-to-end metrics with tracing off.  The worker
repeats the pass of requests (at least three times) while it fits in
--seconds and times the calibration loop of calib.py before every request.
Every latency is scaled by calib.REF_MS over the mean of the loops timed
just before and just after it, so the figures are milliseconds of one
machine speed, whatever the load of a shared machine (calib.py says why).
A request's latency is the median of its passes.  The unscaled figures are
printed as well.
  throughput_rps   verdicts per second: requests per pass over the sum of
                   their latencies (harness time between calls excluded)
  latency_p50_ms   median over the requests of the time from the cli.main
                   call to its verdict
  latency_tail_ms  highest of p50/p75/p90/p95/p99/p99.9 with at least ten of
                   the workload's requests per pass beyond it, so the percentile
                   is fixed per workload (it and the sample count are printed)
  peak_rss_mb      peak resident memory of the worker process after one pass
  setup_s          median over 9 fresh interpreters of the time to import
                   lieyam.cli and build its parser, scaled by the calibration
                   loop timed three times right after it in the same process
--trace 1 runs every request plain and traced and prints the per-layer
metrics of tracer.py plus trace.overhead_s (traced minus plain wall time).

The error rate is failed/attempted, in the last line's `failed` and
`attempted`.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Without src/lieyam the command
exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench"
SETUP_SAMPLES = 9
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import lieyam.cli as c; "
                 "c.build_parser(); t = time.perf_counter() - t; import sys, statistics; "
                 "sys.path.insert(0, 'perfbench'); import calib; "
                 "print(t, statistics.median(calib.calibrate() for _ in range(3)))")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
DEADLINE_S = 170.0
END_TO_END_UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def tail(latencies, per_pass):
    """(percentile, value): the highest ladder percentile with at least ten of
    the workload's `per_pass` requests beyond it."""
    ordered = sorted(latencies)
    # rounded so that 100 requests give exactly ten beyond p90, not 9.999...
    p = next((p for p in TAIL_LADDER if round(per_pass * (100 - p) / 100, 6) >= 10), 100.0)
    return p, ordered[max(0, math.ceil(round(p * len(ordered) / 100, 6)) - 1)]


def scaled_latencies(latencies, calibration):
    """Per request, the median over passes of its latency scaled to the
    reference speed.  latencies[i][p] is request i in pass p; calibration[p]
    holds the loop times of pass p, one before each request and one after
    the last, so request i is bracketed by calibration[p][i] and [i + 1]."""
    out = []
    for i, samples in enumerate(latencies):
        out.append(statistics.median(
            x * calib.REF_MS / ((cal[i] + cal[i + 1]) / 2)
            for x, cal in zip(samples, calibration)))
    return out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env, deadline):
    """Median scaled import+parser time over fresh interpreters (one
    unrecorded warm-up)."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, capture_output=True,
                             text=True, timeout=max(1.0, deadline - time.monotonic()), check=True)
        seconds, cal_ms = map(float, out.stdout.split())
        if i:
            samples.append(seconds * calib.REF_MS / cal_ms)
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description="lieyam benchmark")
    ap.add_argument("--workload", required=True, choices=("cohomology", "verify", "search"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    os.chdir(ROOT)
    if not os.path.isdir(os.path.join("src", "lieyam")):
        print("perfbench: src/lieyam not found; run inside a lieyam checkout", file=sys.stderr)
        return 2
    sys.path[:0] = ["src", HERE]
    import gen
    from tracer import PER_LAYER_UNITS

    inputs = os.path.join(WORK, "inputs", f"{args.workload}-{args.seed}")
    shutil.rmtree(inputs, ignore_errors=True)
    gen.generate(args.workload, args.seed, inputs)
    env = child_env()
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(WORK, "results", f"{tag}.worker.json")
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
           "--requests", os.path.join(inputs, "requests.json"), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed", str(args.seed), "--result", result_path]
    if args.trace:
        cmd += ["--spans", os.path.join(WORK, "results", f"{tag}.spans.jsonl")]
    setup_s = None if args.trace else measure_setup(env, deadline)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    if args.trace:
        values = dict(res["layers"])
        values["trace.overhead_s"] = res["overhead_s"]
        units = PER_LAYER_UNITS
    else:
        lat = scaled_latencies(res["latencies_ms"], res["calibration_ms"])
        raw = [statistics.median(samples) for samples in res["latencies_ms"]]
        pct, tail_ms = tail(lat, res["requests_per_pass"])
        values = {
            "throughput_rps": len(lat) / (sum(lat) / 1000),
            "latency_p50_ms": statistics.median(lat),
            "latency_tail_ms": tail_ms,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    m = res["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={res['passes']} "
          f"| nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"kernel_backend={m['kernel_backend']}")
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    if args.trace:
        print(f"  layer self times add up to the traced wall time to within "
              f"{res['self_time_gap_s']:.6f} s per pass")
    else:
        cal = [x for c in res["calibration_ms"] for x in c]
        print(f"  latency_tail_ms is p{pct:g} of {len(lat)} samples, one per request: "
              f"the median of its {res['passes']} passes")
        print(f"  calibration loop median {statistics.median(cal):.4f} ms "
              f"(reference {calib.REF_MS} ms); unscaled: throughput "
              f"{len(raw) / (sum(raw) / 1000):.6g} 1/s, p50 {statistics.median(raw):.6g} ms, "
              f"tail {tail(raw, res['requests_per_pass'])[1]:.6g} ms")
    print(f"  error_rate = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    for why in res["failures"]:
        print(f"  FAILED {why}")
    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, machine=m, passes=res["passes"], failures=res["failures"]), fh,
                  indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

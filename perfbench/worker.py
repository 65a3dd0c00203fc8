"""Closed-loop client: one thread sends each request to `lieyam.cli.main`
in-process, only after the previous verdict has come back.

Runs in a fresh interpreter started by run.py, so that its peak resident
memory is the workload's.  It repeats the pass of requests written by
gen.py, at least MIN_PASSES times, and starts another pass only while that
pass is expected to end within --seconds.  Every verdict is checked
against its expected answer, and every request keeps all its latencies,
one per pass, so that run.py can take the median of each request's passes.
Untraced, a short calibration loop is timed before every request and at
the end of each pass; run.py scales every latency by how fast the machine
ran the loop just before and just after it.

With --trace 1 every request runs twice, once plain and once under the
Tracer (alternating which goes first); the traced verdict must equal the
plain one and the request's layer self times must add up to its traced
wall time.  The result is written as JSON to --result.

    PYTHONPATH=src python3 perfbench/worker.py --requests R.json \\
        --seconds 30 --trace 0 --seed 1 --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import numpy

import lieyam
from lieyam import cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calib import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402

# Untraced, each request runs in at least this many passes, spread over the
# run, and run.py takes the median of its passes.
MIN_PASSES = 3


def call(argv):
    """(seconds, exit code or None, stdout, error text) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    # Garbage left by earlier requests is collected here, untimed, so that a
    # request pays only for the collections its own allocations cause.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a traceback is a failed request, not a crash
            error = traceback.format_exc()
        elapsed = perf_counter() - t0
    return elapsed, code, out.getvalue(), error or err.getvalue()


def verdict(code, stdout):
    """What the request answered: exit code, pass flag, count/dim, failing checks."""
    lines = stdout.strip().splitlines()
    if not lines:
        return {"code": code}
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"code": code, "unparsed": lines[-1][:200]}
    return {
        "code": code,
        "passed": report.get("passed"),
        "values": {k: v for k, v in report.items() if k.startswith("dim_H") or k == "count"},
        "failing": sorted(c["name"] for c in report.get("checks", []) if c["status"] != "pass"),
    }


def problem(req, code, stdout, error):
    """None if the answer is the expected one, else why it is not."""
    exp = req["expect"]
    if error and code is None:
        return f"traceback: {error.strip().splitlines()[-1]}"
    if code != exp["code"]:
        return f"exit {code}, expected {exp['code']}: {error.strip()[:200]}"
    got = verdict(code, stdout)
    if "passed" not in got:
        return f"exit {code} without a report on stdout"
    if got["passed"] != exp["passed"]:
        return f"passed={got['passed']}, expected {exp['passed']}"
    if "key" in exp and got["values"].get(exp["key"]) != exp["value"]:
        return f"{exp['key']}={got['values'].get(exp['key'])}, expected {exp['value']}"
    if "fails" in exp and not set(got["failing"]) & set(exp["fails"]):
        return f"failing checks {got['failing']}, expected one of {exp['fails']}"
    if "same_as" in exp:
        with open(exp["out"], encoding="utf-8") as fh, \
                open(exp["same_as"], encoding="utf-8") as ref:
            if json.load(fh)["found"] != json.load(ref)["found"]:
                return f"{exp['out']} differs from {exp['same_as']}"
    return None


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernel_backend": lieyam.KERNEL_BACKEND}


def run(reqs, seconds, seed, tracer=None):
    argvs = [["--format", "json", "--seed", str(seed)] + r["argv"] for r in reqs]
    latencies = [[] for _ in reqs]
    calibration = []
    failures = []
    peak_rss_mb = None
    plain_s = traced_s = gap_s = 0.0
    passes = attempted = 0
    min_passes = MIN_PASSES if tracer is None else 1
    start = perf_counter()
    while True:
        calibration.append([])
        for i, (req, argv) in enumerate(zip(reqs, argvs)):
            attempted += 1
            if tracer is None:
                calibration[-1].append(calibrate())
                elapsed, code, stdout, error = call(argv)
                latencies[i].append(elapsed * 1000)
                why = problem(req, code, stdout, error)
            else:
                since = len(tracer.spans)
                why, (plain, traced) = traced_pair(tracer, req, argv, first_traced=i % 2 == 1)
                plain_s += plain
                traced_s += traced
                gap_s += traced - sum(tracer.self_times(since))
            if why:
                failures.append(f"request {req['id']} ({req['group']}): {why}")
        if tracer is None:
            calibration[-1].append(calibrate())
        passes += 1
        if passes == 1:
            # Peak memory of one pass of the mix: later passes only repeat it,
            # and their number depends on the machine's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = perf_counter() - start
        if passes >= min_passes and elapsed + elapsed / passes > seconds:
            break
    out = {"attempted": attempted, "failed": len(failures), "failures": failures[:20],
           "passes": passes, "requests_per_pass": len(reqs), "latencies_ms": latencies,
           "calibration_ms": calibration,
           "machine": machine(), "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        out["overhead_s"] = (traced_s - plain_s) / passes
        out["self_time_gap_s"] = gap_s / passes
        # The traced overhead is a difference of two noisy wall times and can
        # come out near zero; 1 ms per request is the floor of the tolerance.
        if abs(out["self_time_gap_s"]) > max(abs(out["overhead_s"]), 1e-3 * len(reqs)):
            out["failed"] += 1
            out["failures"].append(
                f"layer self times miss traced wall time by {out['self_time_gap_s']:.6f} s "
                f"per pass, more than the tracing overhead {out['overhead_s']:.6f} s")
        out["layers"] = tracer.layer_metrics(passes)
    return out


def traced_pair(tracer, req, argv, first_traced):
    """Run one request plain and traced; both must give the expected, same verdict."""
    results = {}
    for traced in ((True, False) if first_traced else (False, True)):
        if traced:
            tracer.request = req["id"]
            tracer.install()
        try:
            results[traced] = call(argv)
        finally:
            tracer.uninstall()
    why = problem(req, *results[False][1:]) or problem(req, *results[True][1:])
    if not why and verdict(*results[False][1:3]) != verdict(*results[True][1:3]):
        why = "traced verdict differs from the plain one"
    return why, (results[False][0], results[True][0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--requests", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None, help="write the traced spans here as JSON lines")
    args = ap.parse_args()
    with open(args.requests, encoding="utf-8") as fh:
        reqs = json.load(fh)
    tracer = Tracer() if args.trace else None
    result = run(reqs, args.seconds, args.seed, tracer)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

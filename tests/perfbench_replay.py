"""Replay every perfbench request in process and print a digest of each.

    python tests/perfbench_replay.py

It generates the inputs of the cohomology, verify and search workloads at
seeds 1 and 2 with perfbench/gen.py (under .perfbench/replay/ of the
checkout it lives in, whose src/lieyam it imports), runs each request once
through perfbench/worker.py's `call` with `--format json --seed <seed>`
prepended, as the worker does, and prints one line per request: workload,
seed, id, exit code, a hash of stdout (with `runtime_ms` blanked), of
stderr and of every `--out` file, and the number of operations the request
ran on Python-int numerators (`linalg.NUMERATOR_OPS["object"]`).  The
paths are relative to the checkout, so two checkouts print the same lines
exactly when they answer every request alike; diff the output of the copy
in each.  It exits 1 if `worker.problem` finds a wrong verdict.

Not collected by pytest (its name does not start with test_); it reads
perfbench/ and changes nothing there.
"""

import hashlib
import os
import re
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cohomology", "verify", "search")
SEEDS = (1, 2)
RUNTIME = re.compile(r'"runtime_ms": [-0-9.e+]+')


def digest(text):
    return hashlib.sha256(RUNTIME.sub('"runtime_ms": 0', text).encode()).hexdigest()[:16]


def out_files(argv):
    return [argv[k + 1] for k, arg in enumerate(argv[:-1]) if arg == "--out"]


def main():
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import gen
    import worker
    from lieyam import linalg

    wrong = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            inputs = os.path.join(".perfbench", "replay", f"{workload}-{seed}")
            shutil.rmtree(inputs, ignore_errors=True)
            for req in gen.generate(workload, seed, inputs):
                outs = out_files(req["argv"])
                for path in outs:
                    if os.path.exists(path):
                        os.remove(path)
                before = linalg.NUMERATOR_OPS["object"]
                _, code, stdout, error = worker.call(["--format", "json", "--seed", str(seed)]
                                                     + req["argv"])
                objects = linalg.NUMERATOR_OPS["object"] - before
                files = []
                for path in outs:
                    if os.path.exists(path):
                        with open(path, encoding="utf-8") as fh:
                            files.append(digest(fh.read()))
                    else:
                        files.append("-")
                why = worker.problem(req, code, stdout, error)
                wrong += why is not None
                print(f"{workload} {seed} {req['id']} exit={code} stdout={digest(stdout)} "
                      f"stderr={digest(error)} out={','.join(files) or '-'} object={objects}"
                      + (f" WRONG {why}" if why else ""), flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself (not of lieyam).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The tests that run the command end to end take about a minute.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import laws  # noqa: E402
import oracle  # noqa: E402
from lieyam.algebra import is_nijenhuis  # noqa: E402
from lieyam.deform import is_nijenhuis_structure  # noqa: E402
from lieyam.jsonio import operator_to_dict  # noqa: E402
from lieyam.linalg import Matrix  # noqa: E402
from lieyam.reps import LieYRepPair, adjoint_rep, coadjoint_rep  # noqa: E402
from lieyam.rotabaxter import is_relative_rb  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _files(outdir):
    return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())
            if p.name != "requests.json"}


def _mix(reqs, outdir):
    """The request mix with the output directory and input file names taken out."""
    def norm(arg):
        return "<file>" if arg.startswith(str(outdir)) else arg
    return [(r["group"], [norm(a) for a in r["argv"]], r["expect"].get("value")) for r in reqs]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    reqs_a = gen.generate(workload, 3, str(a))
    reqs_b = gen.generate(workload, 3, str(b))
    reqs_c = gen.generate(workload, 4, str(c))
    assert _files(a) == _files(b)
    assert _mix(reqs_a, a) == _mix(reqs_b, b)
    assert sorted(_mix(reqs_a, a)) == sorted(_mix(reqs_c, c))
    assert _files(a).keys() == _files(c).keys()
    assert _files(a) != _files(c)


def test_cached_answers_match_a_fresh_oracle():
    smoke = [case for case in oracle.cohomology_cases()
             if case[0] in ("a2", "a2lts", "abelian2") and case[3] <= 2]
    cheap = [case for case in oracle.search_cases()
             if case[1] in ("a2", "so3lts") and case[3] == gen.GRID3
             and (case[0] == "rbo" or case[4] == 1)]
    assert smoke and cheap
    fresh = oracle.build(cohomology=smoke, search=cheap)
    cached = gen.load_expected()
    for kind in ("cohomology", "search"):
        for key, value in fresh[kind].items():
            assert cached[kind][key] == value, (kind, key)


def test_cached_answers_cover_every_mix_entry():
    cached = gen.load_expected()
    for case in oracle.cohomology_cases():
        assert gen.cohomology_key(*case) in cached["cohomology"]
    for case in oracle.search_cases():
        assert gen.search_key(*case) in cached["search"]


def test_independent_laws_agree_with_lieyam():
    rng = random.Random(7)
    for inst, special in (("a2", "adjoint"), ("sl2", "coadjoint"), ("heis3", "adjoint")):
        frame = gen.Frame(inst, special, "rand", rng)
        b, t, rho, mu = laws.pair_tensors(frame.pair_dict())
        rep = adjoint_rep(frame.alg) if special == "adjoint" else coadjoint_rep(frame.alg)
        pair = LieYRepPair(frame.alg, rep)
        n = frame.alg.dim
        for _ in range(12):
            op = Matrix([[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)])
            other = Matrix.identity(n).scale(2) if rng.random() < 0.5 else op
            arr = laws.operator(operator_to_dict(op))
            rb = is_relative_rb(pair, op)
            assert rb == (not laws.rb_broken(b, t, rho, mu, arr))
            assert is_nijenhuis(frame.alg, op) == (not laws.nijenhuis_broken(b, t, arr))
            assert is_nijenhuis_structure(pair, op, other) == (
                not laws.structure_broken(b, t, rho, mu, arr, laws.operator(operator_to_dict(other))))


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_exactly_the_declared_metrics(trace, section):
    out = _run(ROOT, "--workload", "verify", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    for name in declared:
        assert f"  {name} = " in out.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert not out.stdout.strip()
    assert not (tmp_path / ".perfbench").exists() or not os.listdir(tmp_path / ".perfbench")

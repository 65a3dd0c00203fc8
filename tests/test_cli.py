import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lieyam import __version__
from lieyam.cli import build_parser, main
from lieyam.jsonio import (
    MAX_DIM,
    algebra_from_dict,
    algebra_to_dict,
    dump_json,
    load_algebra,
    load_operator,
    load_pair,
    operator_to_dict,
)
from lieyam.errors import ConflictingEntryError, ParseError
from lieyam.linalg import Matrix
from lieyam.scalars import MAX_POLY_DEGREE, T, format_rational

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_cli(*args, capsys=None):
    try:
        code = main(list(args))
    except SystemExit as exc:  # a usage error found by argparse
        code = exc.code
    out = capsys.readouterr() if capsys else None
    return code, out


def test_check_algebra_pass(capsys):
    code, out = run_cli("check", "algebra", fx("A2.json"), capsys=capsys)
    assert code == 0
    assert "LY4" in out.out and "PASS" in out.out


def test_check_algebra_fail_exit1(capsys):
    code, out = run_cli("check", "algebra", fx("A2-bad-ternary.json"), capsys=capsys)
    assert code == 1
    assert "FAIL" in out.out and "witness" in out.out


def test_parse_error_exit2(capsys, tmp_path):
    code, _ = run_cli("check", "algebra", fx("A2-conflicting.json"), capsys=capsys)
    assert code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _ = run_cli("check", "algebra", str(bad), capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("kind, payload", [
    ("algebra", {"dim": "abc"}),
    ("algebra", {"dim": 2.5}),
    ("algebra", {"dim": -1}),
    ("algebra", {"dim": 2, "binary": [{"i": "x", "j": 1, "value": {}}]}),
    ("pair", {"algebra": {"dim": 2}, "module_dim": "two", "rho": [], "mu": []}),
    ("pair", {"algebra": {"dim": 2}, "special": "zero", "module_dim": None}),
    # above MAX_DIM: rejected before any table is allocated
    ("algebra", {"dim": MAX_DIM + 1}),
    ("algebra", {"dim": 10**9}),
    ("pair", {"algebra": {"dim": 2}, "special": "zero", "module_dim": MAX_DIM + 1}),
    ("pair", {"algebra": {"dim": 2}, "module_dim": 10**9, "rho": [], "mu": []}),
    ("pair", {"algebra": {"dim": 10**9}, "special": "adjoint"}),
])
def test_bad_integer_field_exit2(capsys, tmp_path, kind, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli("check", kind, str(path), capsys=capsys)
    assert code == 2
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1 and "Traceback" not in out.err
    assert "must be" in out.err


def test_bad_operator_size_exit2(capsys, tmp_path):
    op = tmp_path / "T.json"
    op.write_text(json.dumps({"rows": "2", "cols": "abc", "entries": ["0"] * 4}))
    code, out = run_cli("verify-rbo", "--pair", fx("A2-adjoint.json"), "--T", str(op), capsys=capsys)
    assert code == 2
    assert len(out.err.strip().splitlines()) == 1 and "'cols' must be an integer" in out.err
    # rows * cols = 0 matches the empty entries, but 10**9 rows would still be allocated
    op.write_text(json.dumps({"rows": 10**9, "cols": 0, "entries": []}))
    code, out = run_cli("verify-rbo", "--pair", fx("A2-adjoint.json"), "--T", str(op), capsys=capsys)
    assert code == 2
    assert len(out.err.strip().splitlines()) == 1 and f"'rows' must be <= {MAX_DIM}" in out.err


@pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (0, 0)])
def test_empty_operator_round_trip(tmp_path, rows, cols):
    op = tmp_path / "T.json"
    op.write_text(json.dumps(operator_to_dict(Matrix.zero(rows, cols))))
    mat = load_operator(str(op))
    assert (mat.rows, mat.cols) == (rows, cols)


def test_search_then_verify_an_empty_operator(tmp_path, capsys):
    """search rbo on a dim-0 algebra with a 2-dim zero module writes T as
    0 x 2, and verify-rbo reads that file back."""
    pair, found = tmp_path / "pair.json", tmp_path / "found.json"
    pair.write_text(json.dumps({"algebra": {"dim": 0, "binary": [], "ternary": []},
                                "special": "zero", "module_dim": 2}))
    code, _ = run_cli("search", "rbo", "--pair", str(pair), "--out", str(found), capsys=capsys)
    assert code == 0
    op = tmp_path / "T.json"
    op.write_text(json.dumps(json.loads(found.read_text())["found"][0]))
    code, out = run_cli("verify-rbo", "--pair", str(pair), "--T", str(op), capsys=capsys)
    assert code == 0, out.err


def test_usage_error_exit2():
    proc = subprocess.run(
        [sys.executable, "-m", "lieyam.cli", "no-such-command"],
        capture_output=True, text=True, cwd=os.path.dirname(FIXTURES),
    )
    assert proc.returncode == 2


def _without_runtime(stdout):
    """A JSON report line with its runtime_ms dropped (the one field that varies)."""
    if not stdout:
        return stdout
    payload = json.loads(stdout)
    payload.pop("runtime_ms")
    return payload


def test_one_parser_per_process(capsys):
    """main builds the parser on its first call and reuses it on every later one."""
    build_parser.cache_clear()
    for _ in range(3):
        code, _ = run_cli("check", "algebra", fx("A2.json"), capsys=capsys)
        assert code == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert build_parser() is build_parser()


def test_reused_parser_output_equals_a_fresh_process(capsys):
    """An option of one call does not carry over to the next: each output of a
    sequence of calls in one process equals that of a fresh process, and
    --seed 5 is echoed, and --seed 1.5 refused, in one call only."""
    base = ["cohomology", "--pair", fx("A2-adjoint.json"), "--degree", "2"]
    argvs = {seed: ["--format", "json", *(["--seed", seed] if seed else []), *base]
             for seed in ("5", None, "1.5")}
    fresh = {}
    for seed, argv in argvs.items():
        proc = subprocess.run([sys.executable, "-m", "lieyam.cli", *argv],
                              capture_output=True, text=True, cwd=os.path.dirname(FIXTURES))
        fresh[seed] = (proc.returncode, _without_runtime(proc.stdout), proc.stderr)
    assert fresh["5"][0] == fresh[None][0] == 0 and fresh["1.5"][0] == 2
    assert (fresh["5"][1]["seed"], fresh[None][1]["seed"]) == (5, 0)
    for seed in ("5", None, "1.5", None):
        code, out = run_cli(*argvs[seed], capsys=capsys)
        assert (code, _without_runtime(out.out), out.err) == fresh[seed]


def test_usage_error_between_calls_changes_nothing(capsys):
    """A usage error that has already parsed --seed leaves the next call as it was."""
    argv = ("--format", "json", "check", "pair", fx("A2-adjoint.json"))
    code, first = run_cli(*argv, capsys=capsys)
    assert code == 0
    code, out = run_cli("--seed", "5", "check", "nothing", fx("A2.json"), capsys=capsys)
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error: ") and len(out.err.strip().splitlines()) == 1
    code, second = run_cli(*argv, capsys=capsys)
    assert code == 0 and second.err == ""
    assert _without_runtime(second.out) == _without_runtime(first.out)
    assert _without_runtime(second.out)["seed"] == 0


def test_version_on_a_reused_parser(capsys):
    run_cli("check", "algebra", fx("A2.json"), capsys=capsys)
    for _ in range(2):
        code, out = run_cli("--version", capsys=capsys)
        assert code == 0 and out.out == f"lieyam {__version__}\n" and out.err == ""


def test_check_pair_and_rep(capsys):
    code, out = run_cli("check", "pair", fx("A2-adjoint.json"), capsys=capsys)
    assert code == 0
    assert "rep5" in out.out and "der3" in out.out
    code, _ = run_cli("check", "rep", fx("A2-coadjoint.json"), capsys=capsys)
    assert code == 0


def test_cohomology_json(capsys):
    code, out = run_cli("--format", "json", "cohomology", "--pair", fx("A2-adjoint.json"),
                        "--degree", "2", capsys=capsys)
    assert code == 0
    payload = json.loads(out.out)
    assert payload["dim_H2"] == 6
    code, out = run_cli("--format", "json", "cohomology", "--pair", fx("A2-adjoint.json"),
                        "--degree", "1", "--complex", "classical", capsys=capsys)
    payload = json.loads(out.out)
    assert payload["dim_H1"] == 2


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cohomology_module_dim_zero(capsys, tmp_path, degree):
    """A 0-dim module is a legal pair: its classical complex is 0, and its
    pair complex is the adjoint-coefficient complex of the algebra."""
    with open(fx("A2.json"), encoding="utf-8") as fh:
        zero = {"algebra": json.load(fh), "special": "zero", "module_dim": 0}
    path = tmp_path / "a2-zero0.json"
    path.write_text(json.dumps(zero))
    dims = {}
    for cx, pair in (("classical", str(path)), ("pair", str(path)), ("adjoint", fx("A2-adjoint.json"))):
        code, out = run_cli("--format", "json", "cohomology", "--pair", pair, "--degree", str(degree),
                            "--complex", "pair" if cx == "pair" else "classical", capsys=capsys)
        assert code == 0, out.err
        dims[cx] = json.loads(out.out)[f"dim_H{degree}"]
    assert dims["classical"] == 0
    assert dims["pair"] == dims["adjoint"] > 0


def test_cohomology_builds_one_pair(capsys, monkeypatch):
    from lieyam.reps import LieYRepPair

    built = []
    init = LieYRepPair.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("validate", True))
        init(self, *args, **kwargs)

    monkeypatch.setattr(LieYRepPair, "__init__", counting_init)
    for cx in ("classical", "pair"):
        built.clear()
        code, _ = run_cli("cohomology", "--pair", fx("A2-adjoint.json"), "--degree", "2",
                          "--complex", cx, capsys=capsys)
        assert code == 0 and built == [True]


def test_one_derived_d_per_request(capsys, monkeypatch):
    """check pair and cohomology compute the derived D of (g, V) once; the
    pair complex adds the semidirect product's own."""
    import lieyam.reps as reps

    calls = []
    derived_D = reps.derived_D

    def counting(alg, rep):
        calls.append((alg.dim, rep.module_dim))
        return derived_D(alg, rep)

    monkeypatch.setattr(reps, "derived_D", counting)
    cohomology = ("cohomology", "--pair", fx("A2-adjoint.json"), "--degree", "2", "--complex")
    for argv, want in ((("check", "pair", fx("A2-adjoint.json")), [(2, 2)]),
                       (cohomology + ("classical",), [(2, 2)]),
                       (cohomology + ("pair",), [(2, 2), (4, 4)])):
        calls.clear()
        code, _ = run_cli(*argv, capsys=capsys)
        assert code == 0 and calls == want


def test_verify_rbn_with_consequences(capsys):
    code, out = run_cli("verify-rbn", "--pair", fx("A2-adjoint.json"), "--T", fx("T-a1.json"),
                        "--S", fx("S-lam2.json"), "--N", fx("N-lam2.json"), capsys=capsys)
    assert code == 0
    assert "consequence:" in out.out


def test_verify_commands(capsys):
    assert run_cli("verify-nijenhuis", "--algebra", fx("A2.json"), "--N", fx("N-lam2.json"),
                   capsys=capsys)[0] == 0
    assert run_cli("verify-nijenhuis-structure", "--pair", fx("A2-adjoint.json"),
                   "--N", fx("N-lam2.json"), "--S", fx("S-lam2.json"), capsys=capsys)[0] == 0
    assert run_cli("verify-rbo", "--pair", fx("A2-adjoint.json"), "--T", fx("T-a1.json"),
                   capsys=capsys)[0] == 0
    assert run_cli("verify-strong", "--pair", fx("A2-adjoint.json"), "--T", fx("T-a1.json"),
                   "--S", fx("S-lam2.json"), capsys=capsys)[0] == 0
    assert run_cli("verify-compatible", "--pair", fx("A2-adjoint.json"), "--T1", fx("T-a1.json"),
                   "--T2", fx("T-a1.json"), capsys=capsys)[0] == 0


def test_deform_command(tmp_path, capsys):
    """The --out certificate is the printed report, its seed and runtime included."""
    out_path = tmp_path / "deformation.json"
    code, out = run_cli("--format", "json", "--seed", "4", "deform", "--pair", fx("A2-adjoint.json"),
                        "--from-nijenhuis", "--N", fx("N-lam2.json"), "--S", fx("S-lam2.json"),
                        "--out", str(out_path), capsys=capsys)
    assert code == 0
    printed = json.loads(out.out)
    assert {"triviality-witness", "cocycle-closed"} <= {c["name"] for c in printed["checks"]}
    assert printed.pop("written") == str(out_path)
    certificate = json.loads(out_path.read_text())["certificate"]
    assert certificate == printed and certificate["seed"] == 4 and certificate["passed"] is True


def test_quadratic_commands(tmp_path, capsys):
    alg_path = tmp_path / "ab2.json"
    from lieyam.search import catalog_algebra

    dump_json(algebra_to_dict(catalog_algebra("abelian2")), alg_path)
    b_path = tmp_path / "B.json"
    dump_json(operator_to_dict(Matrix.identity(2)), b_path)
    r_path = tmp_path / "R.json"
    dump_json(operator_to_dict(Matrix([[0, 2], [-2, 0]])), r_path)
    n_path = tmp_path / "N.json"
    dump_json(operator_to_dict(Matrix.identity(2).scale(3)), n_path)
    code, _ = run_cli("quadratic", "check-form", "--algebra", str(alg_path), "--B", str(b_path),
                      capsys=capsys)
    assert code == 0
    pi_path = tmp_path / "pi.json"
    code, out = run_cli("--format", "json", "quadratic", "convert", "--algebra", str(alg_path),
                        "--B", str(b_path), "--direction", "rbn-to-rmn", "--R", str(r_path),
                        "--N", str(n_path), "--out", str(pi_path), capsys=capsys)
    assert code == 0
    pi = json.loads(pi_path.read_text())
    assert pi["entries"] == ["0", "-2", "2", "0"]
    code, out = run_cli("--format", "json", "quadratic", "convert", "--algebra", str(alg_path),
                        "--B", str(b_path), "--direction", "rmn-to-rbn", "--pi", str(pi_path),
                        "--N", str(n_path), capsys=capsys)
    assert code == 0
    assert json.loads(out.out)["result"]["entries"] == ["0", "2", "-2", "0"]


def test_search_command(tmp_path, capsys):
    out_path = tmp_path / "found.json"
    code, out = run_cli("--format", "json", "search", "rbo", "--pair", fx("A2-adjoint.json"),
                        "--values=-1,0,1", "--limit", "4", "--out", str(out_path),
                        capsys=capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["found"]


def test_seed_appears_and_reports_deterministic(capsys):
    code, out1 = run_cli("--format", "json", "--seed", "7", "check", "algebra", fx("A2.json"),
                         capsys=capsys)
    code, out2 = run_cli("--format", "json", "--seed", "7", "check", "algebra", fx("A2.json"),
                         capsys=capsys)
    p1, p2 = json.loads(out1.out), json.loads(out2.out)
    assert p1["seed"] == 7
    p1.pop("runtime_ms"), p2.pop("runtime_ms")
    assert p1 == p2


def test_serialization_roundtrip_semantic():
    alg = load_algebra(fx("A2.json"))
    again = algebra_from_dict(algebra_to_dict(alg))
    assert again.b_arr.tolist() == alg.b_arr.tolist()
    assert again.t_arr.tolist() == alg.t_arr.tolist()
    # i > j entries load through antisymmetrization
    swapped = load_algebra(fx("A2-swapped.json"))
    assert swapped.b_arr.tolist() == alg.b_arr.tolist()
    assert swapped.t_arr.tolist() == alg.t_arr.tolist()


def test_conflicting_duplicate_detected():
    with pytest.raises(ConflictingEntryError):
        load_algebra(fx("A2-conflicting.json"))
    with pytest.raises(ParseError):
        algebra_from_dict({"dim": 2, "binary": [{"i": 0, "j": 5, "value": {"0": "1"}}]})


def test_pair_file_roundtrip(tmp_path):
    from lieyam.jsonio import pair_to_dict

    pair = load_pair(fx("A2-adjoint.json"))
    path = tmp_path / "pair.json"
    dump_json(pair_to_dict(pair), path)
    again = load_pair(str(path))
    assert again.algebra.b_arr.tolist() == pair.algebra.b_arr.tolist()
    assert again.algebra.t_arr.tolist() == pair.algebra.t_arr.tolist()
    assert again.rep.rho_arr.tolist() == pair.rep.rho_arr.tolist()
    assert again.rep.mu_arr.tolist() == pair.rep.mu_arr.tolist()


@pytest.mark.parametrize("which", ["N", "S"])
def test_deform_refuses_polynomial_operators_on_loading(monkeypatch, capsys, tmp_path, which):
    """deform takes t as its own parameter: an N or S over Q[t] is refused
    right after loading, before any premise is decided (exit 2, one line)."""
    import lieyam.cli as cli

    def never(*args):
        raise AssertionError("NijenhuisStructure was constructed")

    monkeypatch.setattr(cli, "NijenhuisStructure", never)
    dump_json(operator_to_dict(Matrix.identity(2).scale(T)), tmp_path / "tId.json")
    ops = {"N": fx("N-lam2.json"), "S": fx("S-lam2.json"), which: str(tmp_path / "tId.json")}
    code, out = run_cli("deform", "--pair", fx("A2-adjoint.json"), "--from-nijenhuis",
                        "--N", ops["N"], "--S", ops["S"], capsys=capsys)
    assert code == 2 and out.out == ""
    assert out.err.splitlines() == [f"error: deform: {which} has entries in Q[t]; evaluate t first"]
    assert load_operator(str(tmp_path / "tId.json")).has_poly_entries()
    assert run_cli("verify-nijenhuis", "--algebra", fx("A2.json"), "--N", str(tmp_path / "tId.json"),
                   capsys=capsys)[0] == 0


def test_consequence_violation_exit3(monkeypatch, capsys):
    import lieyam.cli as cli
    from lieyam.errors import ConsequenceViolatedError

    def boom(*a, **k):
        raise ConsequenceViolatedError("synthetic")

    monkeypatch.setattr(cli, "rbn_consequences", boom)
    code = cli.main(["verify-rbn", "--pair", fx("A2-adjoint.json"), "--T", fx("T-a1.json"),
                     "--S", fx("S-lam2.json"), "--N", fx("N-lam2.json")])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("smap, code", [([[0, 2], [0, 0]], 0), ([[-1, -1], [-1, -1]], 1)])
def test_verify_rbn_decides_each_premise_once(monkeypatch, capsys, tmp_path, smap, code):
    """verify-rbn evaluates the Rota-Baxter identities of T and the
    Nijenhuis-structure report of (N, S) once each: the validating
    constructors decide them and the triple's report takes their verdicts
    (the consequences check other operators, N T among them)."""
    import lieyam.cli as cli
    from lieyam import deform, rotabaxter

    tmap = load_operator(fx("T-a1.json"))
    loaded, rb_calls, ns_calls = [], [], []
    load, rb_residuals, ns_report = cli.load_pair, rotabaxter._rb_residuals, \
        deform.nijenhuis_structure_report

    def counted_load(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    def counted_rb(pair, t, *args):
        rb_calls.append(pair is loaded[0] and t == tmap)
        return rb_residuals(pair, t, *args)

    def counted_ns(*args):
        ns_calls.append(args)
        return ns_report(*args)

    monkeypatch.setattr(cli, "load_pair", counted_load)
    monkeypatch.setattr(rotabaxter, "_rb_residuals", counted_rb)
    for module in (deform, rotabaxter):
        monkeypatch.setattr(module, "nijenhuis_structure_report", counted_ns)
    dump_json(operator_to_dict(Matrix(smap)), tmp_path / "S.json")
    argv = ["verify-rbn", "--pair", fx("A2-adjoint.json"), "--T", fx("T-a1.json"),
            "--S", str(tmp_path / "S.json"), "--N", fx("N-lam2.json")]
    assert cli.main(argv) == code
    capsys.readouterr()
    assert sum(rb_calls) == 1 and len(ns_calls) == 1


def test_search_bad_values_exit2(capsys):
    code, out = run_cli("search", "rbo", "--pair", fx("A2-adjoint.json"), "--values=a",
                        capsys=capsys)
    assert code == 2
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1 and "Traceback" not in out.err
    assert "'--values' must be an integer" in out.err


def _contract_inputs(tmp_path):
    """One failing input per command (operator files written to tmp_path)."""
    from lieyam.search import catalog_algebra

    def op(name, rows):
        path = tmp_path / f"{name}.json"
        dump_json(operator_to_dict(Matrix(rows)), path)
        return str(path)

    sl2 = tmp_path / "sl2.json"
    dump_json(algebra_to_dict(catalog_algebra("sl2")), sl2)
    pair = fx("A2-adjoint.json")
    bad_s = op("S-bad", [[-1, -1], [-1, -1]])
    bad_t = op("T-bad", [[-1, -1], [-1, -1]])
    t_strong = op("T-strong", [[-1, -1], [1, 1]])
    return [
        ["verify-nijenhuis", "--algebra", str(sl2), "--N", op("E11", [[1, 0, 0], [0, 0, 0], [0, 0, 0]])],
        ["verify-nijenhuis-structure", "--pair", pair, "--N", fx("N-lam2.json"), "--S", bad_s],
        ["deform", "--pair", pair, "--from-nijenhuis", "--N", fx("N-lam2.json"), "--S", bad_s],
        ["verify-rbo", "--pair", pair, "--T", bad_t],
        ["verify-rbn", "--pair", pair, "--T", bad_t, "--S", fx("S-lam2.json"), "--N", fx("N-lam2.json")],
        ["verify-rbn", "--pair", pair, "--T", fx("T-a1.json"), "--S", bad_s, "--N", fx("N-lam2.json")],
        ["verify-rbn", "--pair", pair, "--T", fx("T-a1.json"), "--S", op("Z", [[0, 0], [0, 0]]),
         "--N", op("Id", [[1, 0], [0, 1]])],
        ["verify-strong", "--pair", pair, "--T", t_strong, "--S", op("S-strong", [[-1, -1], [-1, 0]])],
        ["verify-compatible", "--pair", pair, "--T1", t_strong, "--T2", op("T2", [[-1, 1], [-1, 1]])],
        ["check", "algebra", fx("A2-bad-ternary.json")],
        ["quadratic", "check-form", "--algebra", fx("A2.json"), "--B", op("B", [[1, 0], [0, 1]])],
    ]


def test_failing_checks_carry_witness(tmp_path, capsys):
    """Every failing check names its first violating tuple with the exact residual."""
    for argv in _contract_inputs(tmp_path):
        code, out = run_cli("--format", "json", *argv, capsys=capsys)
        assert code == 1, argv
        payload = json.loads(out.out)
        failing = [c for c in payload["checks"] if c["status"] == "fail"]
        assert failing, argv
        for check in failing:
            if check["name"] == "nondegenerate":
                assert "rank" in check["witness"]
                continue
            assert {"tuple", "residual"} <= set(check["witness"]), (argv, check)


_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                    st.sampled_from(["1", "-1/2", "1/0", "x", "", " 2 ", "1e2", "1.5", "1e20000"]),
                    st.fixed_dictionaries({"poly": st.one_of(st.integers(), st.lists(
                        st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans()),
                        max_size=MAX_POLY_DEGREE + 2))}))
_operator_json = st.one_of(
    st.recursive(st.one_of(st.none(), st.integers(), st.text(max_size=4)),
                 lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                             max_size=3),
                 max_leaves=6),
    st.fixed_dictionaries({
        "rows": st.one_of(st.integers(-1, 3), st.sampled_from(["2", "x", 2.5, True, None])),
        "cols": st.one_of(st.integers(-1, 3), st.sampled_from(["2", "x", 2.5, True, None])),
        "entries": st.one_of(st.lists(_scalar, max_size=5),
                             st.lists(st.lists(_scalar, max_size=3), max_size=3), _scalar),
    }),
    st.fixed_dictionaries({"rows": st.just(2), "cols": st.just(2),
                           "entries": st.lists(_scalar, min_size=4, max_size=4)}),
)


def _assert_contract(code, out):
    assert code in (0, 1, 2)
    assert "Traceback" not in out.err
    if code == 2:
        assert len(out.err.strip().splitlines()) == 1
    if code == 1:
        assert "checks" in json.loads(out.out)


@settings(derandomize=True, deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_fuzz_operators(tmp_path, capsys, data):
    """Malformed operator files give exit 0/1/2, never a traceback or a bare exit 1."""
    command = data.draw(st.sampled_from([
        ("verify-rbo", "--T"), ("verify-nijenhuis-structure", "--N", "--S"),
        ("verify-rbn", "--T", "--S", "--N"),
    ]))
    argv = ["--format", "json", command[0], "--pair", fx("A2-adjoint.json")]
    for flag in command[1:]:
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(data.draw(_operator_json, label=flag)))
        argv += [flag, str(path)]
    _assert_contract(*run_cli(*argv, capsys=capsys))


@settings(derandomize=True, deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.text(alphabet="0129-,a. ", max_size=6))
def test_cli_contract_fuzz_values(capsys, values):
    """Malformed --values strings give exit 2 with one line on stderr."""
    _assert_contract(*run_cli("--format", "json", "search", "rbo", "--pair", fx("A2-adjoint.json"),
                              f"--values={values}", "--limit", "1", capsys=capsys))


@pytest.mark.parametrize("argv, needle", [
    (["cohomology", "--pair", fx("A2-adjoint.json"), "--degree", "x"], "'--degree' must be an integer"),
    (["search", "rbo", "--pair", fx("A2-adjoint.json"), "--limit", "x"], "'--limit' must be an integer"),
    (["--seed", "x", "search", "quadratic"], "'--seed' must be an integer"),
    (["--seed", "1.5", "check", "algebra", fx("A2.json")], "'--seed' must be an integer"),
    (["cohomology", "--pair", fx("A2-adjoint.json")], "required: --degree"),
    (["verify-rbo", "--T", fx("T-a1.json")], "required: --pair"),
    (["search", "nothing"], "invalid choice"),
    (["cohomology", "--pair", fx("A2-adjoint.json"), "--degree", "1", "--complex", "x"], "invalid choice"),
    (["quadratic"], "required: qcommand"),
    (["no-such-command"], "invalid choice"),
    ([], "required: command"),
])
def test_usage_errors_are_one_input_error_line(capsys, argv, needle):
    """Bad integers, missing options and bad choices exit 2 with one line on stderr."""
    code, out = run_cli("--format", "json", *argv, capsys=capsys)
    _assert_contract(code, out)
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error: ") and needle in out.err


def test_search_input_contract(capsys):
    """search without --pair and a --limit below 1 are input errors; a
    repeated grid value does not repeat hits."""
    for what in ("rbo", "rbn"):
        code, out = run_cli("--format", "json", "search", what, "--values=0,1", capsys=capsys)
        _assert_contract(code, out)
        assert code == 2 and "--pair" in out.err
    for limit in ("0", "-1", "x"):
        code, out = run_cli("--format", "json", "search", "rbo", "--pair", fx("A2-adjoint.json"),
                            "--values=0,1", "--limit", limit, capsys=capsys)
        _assert_contract(code, out)
        assert code == 2 and "--limit" in out.err
    counts = []
    for grid in ("-1,0,1", "-1,0,1,1", "1,-1,0,-1"):
        code, out = run_cli("--format", "json", "search", "rbo", "--pair", fx("A2-adjoint.json"),
                            f"--values={grid}", capsys=capsys)
        _assert_contract(code, out)
        counts.append(json.loads(out.out)["count"])
    assert counts == [15, 15, 15]


def test_search_grid_bound(tmp_path, capsys):
    """A search grid above MAX_GRID_POINTS is an input error, found before the
    pair is validated: sl2 with its adjoint has 5^9 T on the default grid,
    and with a 1-dim zero rep 5^3 T (scanned) but 5^9 N (refused for rbn)."""
    from lieyam import LieYRepPair, Representation, adjoint_rep
    from lieyam.cli import MAX_GRID_POINTS
    from lieyam.jsonio import pair_to_dict
    from lieyam.search import catalog_algebra

    sl2 = catalog_algebra("sl2")
    adjoint = pair_to_dict(LieYRepPair(sl2, adjoint_rep(sl2)))
    adjoint["rho"][0][0][0] = "1"  # no longer a representation: the bound comes first
    zero = pair_to_dict(LieYRepPair(sl2, Representation.zero(3, 1)))
    for name, pair, what, refused in (("adjoint", adjoint, "rbo", "T would hold 5^9"),
                                      ("adjoint", adjoint, "rbn", "T would hold 5^9"),
                                      ("zero", zero, "rbn", "N would hold 5^9")):
        path = tmp_path / f"sl2-{name}.json"
        dump_json(pair, str(path))
        code, out = run_cli("--format", "json", "search", what, "--pair", str(path), capsys=capsys)
        _assert_contract(code, out)
        assert code == 2 and out.out == ""
        assert out.err.startswith("input error: ") and refused in out.err
        assert str(MAX_GRID_POINTS) in out.err
    code, out = run_cli("--format", "json", "search", "rbo", "--pair", str(tmp_path / "sl2-zero.json"),
                        capsys=capsys)
    _assert_contract(code, out)
    assert code == 0 and json.loads(out.out)["count"] == 5 ** 3


_junk = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3)),
                     lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                 max_size=3),
                     max_leaves=6)
# Sizes above MAX_DIM must be rejected before anything is allocated.
_size = st.one_of(st.integers(-1, 3),
                  st.sampled_from(["2", "x", 2.5, True, None, [], MAX_DIM + 1, 10**9, str(10**9)]))
_index = st.one_of(st.integers(-1, 3), st.sampled_from(["1", "x", 1.5, None]))
_value = st.one_of(_junk, st.dictionaries(st.sampled_from(["0", "1", "2", "x", "-1"]), _scalar, max_size=3))
_algebra_json = st.one_of(
    _junk,
    st.fixed_dictionaries({"dim": _size}, optional={
        "basis": st.one_of(_junk, st.lists(st.sampled_from(["e1", "e2", 7]), max_size=3)),
        "binary": st.one_of(_junk, st.lists(st.fixed_dictionaries(
            {"i": _index, "j": _index}, optional={"value": _value}), max_size=3)),
        "ternary": st.one_of(_junk, st.lists(st.fixed_dictionaries(
            {"i": _index, "j": _index, "k": _index}, optional={"value": _value}), max_size=3)),
    }),
)
_matrix_json = st.one_of(_junk, st.lists(st.lists(_scalar, max_size=3), max_size=3))
_pair_json = st.one_of(
    _junk,
    st.fixed_dictionaries({"algebra": st.one_of(_algebra_json, st.sampled_from(["", "missing.json", "."]))},
                          optional={
        "special": st.one_of(st.sampled_from(["adjoint", "coadjoint", "zero", "other"]), _junk),
        "module_dim": _size,
        "rho": st.one_of(_junk, st.lists(_matrix_json, max_size=3)),
        "mu": st.one_of(_junk, st.lists(st.lists(_matrix_json, max_size=3), max_size=3)),
    }),
)


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_fuzz_algebras_and_pairs(tmp_path, capsys, data):
    """Malformed algebra and pair files give exit 0/1/2, never a traceback or a bare exit 1."""
    kind = data.draw(st.sampled_from(["algebra", "pair"]))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data.draw(_algebra_json if kind == "algebra" else _pair_json)))
    _assert_contract(*run_cli("--format", "json", "check", kind, str(path), capsys=capsys))


@pytest.mark.parametrize("kind, text", [
    ("algebra", json.dumps({"dim": 2, "binary": 5})),
    ("algebra", json.dumps({"dim": 2, "ternary": {"i": 0}})),
    ("algebra", json.dumps({"dim": 2, "basis": 7})),
    ("algebra", json.dumps({"dim": 2, "basis": ["e1"]})),
    ("algebra", '{"dim": ' + "1" * 5000 + "}"),
    ("algebra", "[" * 100000),
    ("pair", json.dumps({"algebra": {"dim": 2, "binary": 5}, "special": "adjoint"})),
])
def test_malformed_json_exit2(capsys, tmp_path, kind, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run_cli("check", kind, str(path), capsys=capsys)
    assert code == 2
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1 and "Traceback" not in out.err


@pytest.mark.parametrize("entry", ["1e20000", "1.5", "1e2", "0x10", "1_000", "9" * 4001, True, False])
def test_operator_rational_forms_exit2(capsys, tmp_path, entry):
    """Only 'p' and 'p/q' with decimal digits are rationals, and their length is bounded.

    JSON integers are rationals too, but JSON booleans are not.
    """
    op = tmp_path / "T.json"
    op.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [entry, "0", "0", "1"]}))
    code, out = run_cli("--format", "json", "verify-rbo", "--pair", fx("A2-adjoint.json"),
                        "--T", str(op), capsys=capsys)
    assert code == 2
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1 and "Traceback" not in out.err


def _a2_times(tmp_path, coefficients):
    """A2 with its binary and ternary constant both {"poly": coefficients}."""
    with open(fx("A2.json")) as f:
        data = json.load(f)
    for table in ("binary", "ternary"):
        data[table][0]["value"] = {"0": {"poly": coefficients}}
    path = tmp_path / "A2-poly.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_polynomial_degree_bounded_on_loading(capsys, tmp_path):
    """A {"poly": [...]} scalar of degree MAX_POLY_DEGREE loads and is
    checked; one more coefficient exits 2 with one line naming the bound,
    before a product over Q[t] could build its outer product."""
    ok = _a2_times(tmp_path, ["0"] * MAX_POLY_DEGREE + ["1"])
    code, out = run_cli("check", "algebra", ok, capsys=capsys)
    assert code == 0 and "PASS" in out.out
    for degree in (MAX_POLY_DEGREE + 1, 2400):
        code, out = run_cli("check", "algebra", _a2_times(tmp_path, ["0"] * degree + ["1"]),
                            capsys=capsys)
        assert code == 2 and out.out == "" and "Traceback" not in out.err
        assert len(out.err.strip().splitlines()) == 1 and f"degree {MAX_POLY_DEGREE}" in out.err


def test_polynomial_coefficients_are_rationals(capsys, tmp_path):
    """A coefficient is read like a top-level rational: a JSON integer is
    one, a boolean or a nested {"poly": ...} object is not (exit 2)."""
    op = tmp_path / "T.json"
    op.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [{"poly": [0, 1]}]}))
    assert load_operator(str(op))[0, 0] == T
    for bad in ([True], [{"poly": []}]):
        code, out = run_cli("check", "algebra", _a2_times(tmp_path, bad), capsys=capsys)
        assert code == 2 and out.out == "" and "Traceback" not in out.err
        assert len(out.err.strip().splitlines()) == 1


def test_witness_past_the_int_str_digit_limit(capsys, tmp_path):
    """A residual of more than 4,300 digits is printed in full, with no traceback."""
    scale = 10**3999 - 1
    op = tmp_path / "T.json"
    dump_json(operator_to_dict(Matrix([[-scale, -scale], [-scale, -scale]])), op)
    code, out = run_cli("--format", "json", "verify-rbo", "--pair", fx("A2-adjoint.json"),
                        "--T", str(op), capsys=capsys)
    assert code == 1
    assert "Traceback" not in out.err
    (check,) = [c for c in json.loads(out.out)["checks"] if c["name"] == "rb-ternary"]
    assert check["status"] == "fail" and check["witness"]["tuple"] == [0, 1, 0]
    # T is scale * [[-1,-1],[-1,-1]], whose ternary residual at (0,1,0) is (2,2), and the
    # identity is cubic in T.
    expected = format_rational(2 * scale**3)
    assert len(expected) > 4300
    assert check["witness"]["residual"] == [expected, expected]
    code, out = run_cli("verify-rbo", "--pair", fx("A2-adjoint.json"), "--T", str(op), capsys=capsys)
    assert code == 1 and "Traceback" not in out.err


def _pair_file(tmp_path, name, alg, special="adjoint"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"algebra": algebra_to_dict(alg), "special": special}))
    return str(path)


def test_cohomology_sizes_bounded_exit2(capsys, tmp_path):
    """--degree and the coboundary size are bounded before anything is built."""
    import time

    from lieyam import adjoint_rep, semidirect
    from lieyam.cli import MAX_DEGREE
    from lieyam.search import catalog_algebra

    sl2 = catalog_algebra("sl2")
    sl2_pair = _pair_file(tmp_path, "sl2", sl2)
    sd6_pair = _pair_file(tmp_path, "sd6", semidirect(sl2, adjoint_rep(sl2)))
    dim16 = tmp_path / "dim16.json"
    dim16.write_text(json.dumps({"algebra": {"dim": MAX_DIM}, "special": "adjoint"}))
    cases = [
        (sl2_pair, "12", "pair"),
        (sl2_pair, "0", "pair"),
        (sl2_pair, str(MAX_DEGREE + 1), "pair"),
        (sl2_pair, str(10**9), "classical"),
        (sd6_pair, "2", "pair"),
        *((str(dim16), str(d), cx) for d in range(1, 10) for cx in ("pair", "classical")),
    ]
    for path, degree, cx in cases:
        t0 = time.perf_counter()
        code, out = run_cli("cohomology", "--pair", path, "--degree", degree, "--complex", cx, capsys=capsys)
        assert time.perf_counter() - t0 < 1.0, (path, degree, cx)
        assert code == 2, (path, degree, cx, out.out)
        assert out.out == "" and "Traceback" not in out.err
        assert len(out.err.strip().splitlines()) == 1, out.err


def test_cohomology_has_no_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--pair", fx("A2-adjoint.json"), "--degree", "1", "--cap", "3"])
    assert exc.value.code == 2


def test_deform_and_check_form_build_their_premise_report_once(tmp_path, capsys, monkeypatch):
    """deform and quadratic check-form build their premise report (of the
    Nijenhuis structure, of the invariant form) once per call, in the
    validating constructor, and print it followed by the other checks."""
    from lieyam import cli, deform, quadratic
    from lieyam.search import catalog_algebra

    def op(name, rows):
        dump_json(operator_to_dict(Matrix(rows)), tmp_path / f"{name}.json")
        return str(tmp_path / f"{name}.json")

    dump_json(algebra_to_dict(catalog_algebra("abelian2")), tmp_path / "ab2.json")
    pair = load_pair(fx("A2-adjoint.json"))
    n_lam, s_lam, bad_s = fx("N-lam2.json"), fx("S-lam2.json"), op("S-bad", [[-1, -1], [-1, -1]])
    identity = op("Id", [[1, 0], [0, 1]])

    def deform_checks(s_path):
        nmap, smap = load_operator(n_lam), load_operator(s_path)
        report = deform.nijenhuis_structure_report(pair, nmap, smap)
        if report.passed:
            d = deform.trivial_deformation_from(pair, deform.NijenhuisStructure(pair, nmap, smap))
            report.extend(deform.linear_deformation_report(pair, d))
            wit = deform.equivalence_witness(pair, d, deform.DeformationData.zero(pair), nmap, smap)
            report.add("triviality-witness", wit is None,
                       "(Id + tN, Id + tS) intertwines the family with the undeformed pair", wit)
            wit = deform.cocycle_witness(pair, d)
            report.add("cocycle-closed", wit is None, "the first-order data is a closed 2-cochain", wit)
        return report

    def form_checks(alg_path):
        alg, b = load_algebra(alg_path), load_operator(identity)
        report = quadratic.invariant_form_report(alg, b)
        if report.passed:
            report.extend(quadratic.invariance_transport(quadratic.QuadraticForm(alg, b)))
        return report

    cases = [
        (["deform", "--pair", fx("A2-adjoint.json"), "--from-nijenhuis", "--N", n_lam, "--S", s_lam],
         "nijenhuis_structure_report", deform_checks(s_lam)),
        (["deform", "--pair", fx("A2-adjoint.json"), "--from-nijenhuis", "--N", n_lam, "--S", bad_s],
         "nijenhuis_structure_report", deform_checks(bad_s)),
        (["quadratic", "check-form", "--algebra", str(tmp_path / "ab2.json"), "--B", identity],
         "invariant_form_report", form_checks(str(tmp_path / "ab2.json"))),
        (["quadratic", "check-form", "--algebra", fx("A2.json"), "--B", identity],
         "invariant_form_report", form_checks(fx("A2.json"))),
    ]
    assert [want.passed for _, _, want in cases] == [True, False, True, False]

    calls = {}
    for name, home in (("nijenhuis_structure_report", deform), ("invariant_form_report", quadratic)):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        for module in (cli, deform, quadratic):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for argv, premise, want in cases:
        calls.clear()
        code, out = run_cli("--format", "json", *argv, capsys=capsys)
        assert calls == {premise: 1}, argv
        assert code == (0 if want.passed else 1)
        payload = json.loads(out.out)
        assert payload["checks"] == want.to_dict()["checks"], argv

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lieyam.cli import main
from lieyam.jsonio import (
    algebra_from_dict,
    algebra_to_dict,
    dump_json,
    load_algebra,
    load_pair,
    operator_to_dict,
)
from lieyam.errors import ConflictingEntryError, ParseError
from lieyam.linalg import Matrix
from lieyam.scalars import format_rational

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_cli(*args, capsys=None):
    code = main(list(args))
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


def test_usage_error_exit2():
    proc = subprocess.run(
        [sys.executable, "-m", "lieyam.cli", "no-such-command"],
        capture_output=True, text=True, cwd=os.path.dirname(FIXTURES),
    )
    assert proc.returncode == 2


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
    out_path = tmp_path / "deformation.json"
    code, out = run_cli("deform", "--pair", fx("A2-adjoint.json"), "--from-nijenhuis",
                        "--N", fx("N-lam2.json"), "--S", fx("S-lam2.json"),
                        "--out", str(out_path), capsys=capsys)
    assert code == 0
    assert "triviality-witness" in out.out and "cocycle-closed" in out.out
    payload = json.loads(out_path.read_text())
    assert payload["certificate"]["passed"] is True


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
    assert again.binary_tensor == alg.binary_tensor
    assert again.ternary_tensor == alg.ternary_tensor
    # i > j entries load through antisymmetrization
    swapped = load_algebra(fx("A2-swapped.json"))
    assert swapped.binary_tensor == alg.binary_tensor
    assert swapped.ternary_tensor == alg.ternary_tensor


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
    assert again.algebra.binary_tensor == pair.algebra.binary_tensor
    assert all(again.rep.rho[i] == pair.rep.rho[i] for i in range(2))
    assert all(again.rep.mu[i][j] == pair.rep.mu[i][j] for i in range(2) for j in range(2))


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
                    st.fixed_dictionaries({"poly": st.one_of(st.integers(), st.lists(st.text(max_size=3),
                                                                                     max_size=2))}))
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


_junk = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3)),
                     lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                 max_size=3),
                     max_leaves=6)
# Sizes stay small: no dimension cap is checked before allocation yet.
_size = st.one_of(st.integers(-1, 3), st.sampled_from(["2", "x", 2.5, True, None, []]))
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


@pytest.mark.parametrize("entry", ["1e20000", "1.5", "1e2", "0x10", "1_000", "9" * 4001])
def test_operator_rational_forms_exit2(capsys, tmp_path, entry):
    """Only 'p' and 'p/q' with decimal digits are rationals, and their length is bounded."""
    op = tmp_path / "T.json"
    op.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [entry, "0", "0", "1"]}))
    code, out = run_cli("--format", "json", "verify-rbo", "--pair", fx("A2-adjoint.json"),
                        "--T", str(op), capsys=capsys)
    assert code == 2
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1 and "Traceback" not in out.err


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

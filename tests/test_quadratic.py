import itertools
import json
import os
import time
from fractions import Fraction

import pytest

from lieyam import LieYRepPair, Matrix, adjoint_rep, coadjoint_rep
from lieyam.errors import (
    ConsequenceViolatedError,
    NotSkewError,
    NotSymmetricError,
    PreconditionFailedError,
)
from lieyam.cli import main
from lieyam.jsonio import algebra_from_dict
from lieyam.quadratic import (
    QuadraticForm,
    invariance_transport,
    invariant_form_report,
    is_dual_nijenhuis,
    is_invariant_form,
    is_r_matrix,
    is_rb_dual_nijenhuis,
    is_rb_nijenhuis,
    is_rmatrix_nijenhuis,
    is_skew_endomorphism,
    pi_sharp_of,
    rbn_to_rmn,
    rmn_to_rbn,
)
from lieyam.search import CATALOG_FORMS, catalog_algebra

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_invariant_form_examples(a2):
    ab = catalog_algebra("abelian2")
    assert is_invariant_form(ab, Matrix.identity(2))
    assert is_invariant_form(ab, Matrix.diag([1, -1]))
    with pytest.raises(NotSymmetricError):
        is_invariant_form(ab, Matrix([[0, 1], [-1, 0]]))
    # degenerate symmetric form fails the nondegeneracy check
    rep = invariant_form_report(ab, Matrix([[1, 0], [0, 0]]))
    assert not rep.passed and not rep.check("nondegenerate").ok


def test_a2_admits_no_invariant_nondegenerate_form(a2):
    """Invariance forces B(e1,e1) = B(e1,e2) = 0, hence degeneracy."""
    for diag in itertools.product((-2, -1, 1, 2), repeat=2):
        for off in (-2, -1, 0, 1, 2):
            b = Matrix([[diag[0], off], [off, diag[1]]])
            if b.rank() == 2:
                assert not is_invariant_form(a2, b)
    # and the forced entries really are the reason
    for b in (Matrix.identity(2), Matrix([[2, 1], [1, 3]])):
        rep = invariant_form_report(a2, b)
        assert not rep.check("binary-invariance").ok


def test_catalog_forms_validate():
    for name, b in CATALOG_FORMS.items():
        alg = catalog_algebra(name)
        assert is_invariant_form(alg, b), name
        qf = QuadraticForm(alg, b)
        report = invariance_transport(qf)
        assert [c.name for c in report.checks] == ["transport-ad", "transport-right", "transport-left"]
        assert report.passed


def test_transport_fails_on_perturbed_form():
    """A non-invariant form must trip at least one transport identity."""
    alg = catalog_algebra("so3lts")
    qf = QuadraticForm(alg, Matrix.identity(3))
    qf.b_sharp = Matrix.diag([1, 1, 2])  # deliberately inconsistent index map
    rep = invariance_transport(qf, raise_on_failure=False)
    assert not rep.passed
    failing = [c for c in rep.checks if not c.ok]
    assert failing and failing[0].witness is not None


def test_r_matrix_examples(a2):
    assert is_r_matrix(a2, Matrix.zero(2))
    ab = catalog_algebra("abelian3")
    assert is_r_matrix(ab, Matrix([[0, 2, 0], [-2, 0, 1], [0, -1, 0]]))
    assert is_r_matrix(a2, Matrix([[0, 3], [-3, 0]]))
    with pytest.raises(NotSkewError):
        is_r_matrix(a2, Matrix.identity(2))
    assert pi_sharp_of(Matrix([[0, 3], [-3, 0]])) == Matrix([[0, -3], [3, 0]])


def test_skew_endomorphism(a2):
    ab = catalog_algebra("abelian2")
    qf = QuadraticForm(ab, Matrix.identity(2))
    assert is_skew_endomorphism(qf, Matrix.zero(2))
    assert is_skew_endomorphism(qf, Matrix([[0, 5], [-5, 0]]))
    assert not is_skew_endomorphism(qf, Matrix([[0, 1], [1, 0]]))


def test_rb_nijenhuis_example_family(a2):
    for a, lam in itertools.product((1, 2, -1, Fraction(3, 2)), repeat=2):
        assert is_rb_nijenhuis(a2, Matrix([[0, a], [0, 0]]), Matrix([[0, lam], [0, 0]]))
    assert is_rb_nijenhuis(a2, Matrix.zero(2), Matrix.zero(2))
    assert is_rb_nijenhuis(a2, Matrix([[0, 1], [0, 0]]), Matrix.identity(2))
    assert not is_rb_nijenhuis(a2, Matrix([[0, 1], [0, 0]]), Matrix.diag([1, 2]))


def test_rmatrix_nijenhuis_and_identification(a2):
    Pco = LieYRepPair(a2, coadjoint_rep(a2))
    assert is_rmatrix_nijenhuis(a2, Matrix.zero(2), Matrix.zero(2))
    hits = 0
    for k, lam in itertools.product((-2, -1, 1, 2), repeat=2):
        pi = Matrix([[0, k], [-k, 0]])
        nmap = Matrix.identity(2).scale(lam)
        if is_rmatrix_nijenhuis(a2, pi, nmap):
            hits += 1
            assert is_rb_dual_nijenhuis(Pco, pi_sharp_of(pi), nmap.transpose(), nmap)
    assert hits > 0


def test_dual_nijenhuis(a2):
    Pco = LieYRepPair(a2, coadjoint_rep(a2))
    nmap = Matrix([[0, 2], [0, 0]])
    assert is_dual_nijenhuis(Pco, nmap, nmap.transpose())
    assert is_dual_nijenhuis(Pco, Matrix.zero(2), Matrix.zero(2))
    Pad = LieYRepPair(a2, adjoint_rep(a2))
    assert not is_dual_nijenhuis(Pad, nmap, nmap.transpose())


def test_dual_routes_never_disagree(a2, so3, rng):
    for alg in (a2, so3):
        for P in (LieYRepPair(alg, adjoint_rep(alg)), LieYRepPair(alg, coadjoint_rep(alg))):
            n = alg.dim
            for _ in range(60):
                nmap = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                smap = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                is_dual_nijenhuis(P, nmap, smap)  # raises on route disagreement


def test_correspondence_roundtrip_abelian():
    ab2 = catalog_algebra("abelian2")
    qf2 = QuadraticForm(ab2, Matrix.identity(2))
    rmap = Matrix([[0, 2], [-2, 0]])
    nmap = Matrix.identity(2).scale(Fraction(3, 2))
    rm = rbn_to_rmn(ab2, qf2, rmap, nmap)
    assert rm.pi == Matrix([[0, -2], [2, 0]])
    assert rmn_to_rbn(ab2, qf2, rm.pi, nmap) == rmap
    # zero case
    rm0 = rbn_to_rmn(ab2, qf2, Matrix.zero(2), nmap)
    assert rm0.pi.is_zero()
    assert rmn_to_rbn(ab2, qf2, rm0.pi, nmap).is_zero()


def test_correspondence_roundtrip_nondiagonal_form():
    ab3 = catalog_algebra("abelian3")
    qf = QuadraticForm(ab3, CATALOG_FORMS["abelian3"])
    rmap = Matrix([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
    assert is_skew_endomorphism(qf, rmap)
    nmap = Matrix.identity(3).scale(2)
    rm = rbn_to_rmn(ab3, qf, rmap, nmap)
    assert rmn_to_rbn(ab3, qf, rm.pi, nmap) == rmap


def test_rmn_to_rbn_round_trip_reads_the_stored_b_sharp():
    """R = pi# B, and the round trip (R B#)^T = pi is checked against the
    stored index map: a B# that is not B^-1 fails it, where re-deriving pi
    through the same B# that was inverted would not notice."""
    ab = catalog_algebra("abelian2")
    qf = QuadraticForm(ab, Matrix.identity(2))
    pi = Matrix([[0, 1], [-1, 0]])
    assert rmn_to_rbn(ab, qf, pi, Matrix.identity(2)) == Matrix([[0, -1], [1, 0]])
    qf.b_sharp = Matrix.diag([1, 2])
    with pytest.raises(ConsequenceViolatedError, match="round-trip"):
        rmn_to_rbn(ab, qf, pi, Matrix.identity(2))


def test_correspondence_preconditions(a2):
    ab = catalog_algebra("abelian2")
    qf = QuadraticForm(ab, Matrix.identity(2))
    with pytest.raises(PreconditionFailedError) as err:
        rbn_to_rmn(ab, qf, Matrix([[0, 1], [1, 0]]), Matrix.identity(2))
    assert err.value.which == "skew"
    rot = Matrix([[0, 1], [-1, 0]])
    with pytest.raises(PreconditionFailedError) as err:
        rbn_to_rmn(ab, qf, rot, rot)  # N = R commutes but is not B-compatible
    assert err.value.which == "compat"


def test_committed_quadratic_fixtures():
    """Every committed searched fixture round-trips and passes its predicates."""
    with open(os.path.join(FIXTURES, "quadratic-fixtures.json")) as fh:
        found = json.load(fh)["found"]
    assert len(found) >= 6
    nonabelian = 0
    for entry in found:
        alg = algebra_from_dict(entry["algebra"])
        b = load_matrix(entry["B"])
        rmap = load_matrix(entry["R"])
        nmap = load_matrix(entry["N"])
        qf = QuadraticForm(alg, b)
        assert is_skew_endomorphism(qf, rmap)
        assert is_rb_nijenhuis(alg, rmap, nmap)
        rm = rbn_to_rmn(alg, qf, rmap, nmap)
        assert rmn_to_rbn(alg, qf, rm.pi, nmap) == rmap
        nonabelian += bool((alg.t_arr != 0).any())
    assert nonabelian >= 2  # the search finds genuinely non-abelian instances


def test_default_grid_quadratic_search_reaches_all_fixtures(tmp_path, capsys):
    """`lieyam search quadratic` on its default 5-value grid finds 8
    fixtures that pass their predicates and round-trip, in under 3 s."""
    out = tmp_path / "found.json"
    t0 = time.perf_counter()
    assert main(["search", "quadratic", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    assert "(-2, -1, 0, 1, 2)" in capsys.readouterr().out
    found = json.loads(out.read_text())["found"]
    assert len(found) == 8
    for entry in found:
        alg = algebra_from_dict(entry["algebra"])
        qf = QuadraticForm(alg, load_matrix(entry["B"]))
        rmap, nmap = load_matrix(entry["R"]), load_matrix(entry["N"])
        assert is_skew_endomorphism(qf, rmap)
        assert is_rb_nijenhuis(alg, rmap, nmap)
        rm = rbn_to_rmn(alg, qf, rmap, nmap)
        assert rmn_to_rbn(alg, qf, rm.pi, nmap) == rmap
    assert elapsed < 3.0


def load_matrix(data):
    rows, cols = data["rows"], data["cols"]
    e = data["entries"]
    return Matrix([[parse(e[i * cols + j]) for j in range(cols)] for i in range(rows)])


def parse(s):
    return Fraction(s)

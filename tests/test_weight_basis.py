"""Cohomology in a weight basis: the route moves no dimension.

cohomology_dim and pair_cohomology_dim take their ranks in the eigenbasis
of a derivation of the pair that is diagonalizable over Q when the input
is dense (yamaguti._weight_route).  These tests force the route on and
off and compare, force a wrong basis, check the moved pair against the
given one, check the derivations against the derivation laws written
out by hand, and check that no derivation is searched for when the
derivation system outweighs the coboundary.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from lieyam import yamaguti
from lieyam.algebra import LieYamagutiAlgebra
from lieyam.errors import DimMismatchError
from lieyam.jsonio import dump_json, pair_to_dict
from lieyam.linalg import Matrix
from lieyam.paircomplex import pair_cochain_dim, pair_cohomology_dim
from lieyam.reps import (
    LieYRepPair,
    Representation,
    adjoint_rep,
    change_rep_basis,
    coadjoint_rep,
    is_pair_homomorphism,
    pair_derivations,
    semidirect,
)
from lieyam.search import CATALOG, catalog_algebra, change_basis, random_invertible
from lieyam.yamaguti import cochain_dim, cohomology_dim, weight_basis

from test_cli import run_cli


def _rep(alg, kind):
    if kind == "adjoint":
        return adjoint_rep(alg)
    if kind == "coadjoint":
        return coadjoint_rep(alg)
    return Representation.zero(alg.dim, 2)


def _route(monkeypatch, on):
    """Take the weight basis for every input (on) or for none."""
    monkeypatch.setattr(yamaguti, "WEIGHT_ENTRIES", 0 if on else float("inf"))
    monkeypatch.setattr(yamaguti, "WEIGHT_RATIO", 0)
    monkeypatch.setattr(yamaguti, "WEIGHT_SHARE", 0)


#: Largest coboundary the catalog tests rank, so that the tests of this
#: file take about 3 s.  It takes every classical degree 1-3, the pair
#: degrees 1-3 at dim 2, and at dim 3 the pair H^1 and the pair H^2 with
#: the zero module.  The pair H^2 with a dim-3 module (143,127 entries) and
#: the pair H^3 (0.75-2.9 M entries, 13 s in a dense basis of so3) of a
#: dim-3 algebra are left out.
ENTRIES = 1 << 16


def _dims(alg, rep):
    """{(complex, degree): dim} at degrees 1-3, for the coboundaries of at
    most ENTRIES entries."""
    out = {}
    n, m = alg.dim, rep.module_dim
    pair = LieYRepPair(alg, rep, validate=False)
    for cx, size, dim in (("classical", cochain_dim, lambda p: cohomology_dim(alg, rep, p)),
                          ("pair", pair_cochain_dim, lambda p: pair_cohomology_dim(pair, p))):
        for p in (1, 2, 3):
            if size(n, m, p + 1) * size(n, m, p) <= ENTRIES:
                out[cx, p] = dim(p)
    return out


@pytest.mark.parametrize("name", CATALOG)
def test_route_moves_no_dimension(monkeypatch, name):
    """Every catalog algebra with its adjoint, coadjoint and zero
    representations, in its catalog basis and in a seeded dense basis: the
    classical and pair dims at degrees 1-3 (_dims) in the weight basis are
    those the user-basis path gives in the catalog basis."""
    base = catalog_algebra(name)
    dense = change_basis(base, random_invertible(base.dim, random.Random(name), (-1, 1)))
    for kind in ("adjoint", "coadjoint", "zero"):
        _route(monkeypatch, False)
        want = _dims(base, _rep(base, kind))
        _route(monkeypatch, True)
        for alg in (base, dense):
            assert _dims(alg, _rep(alg, kind)) == want, (name, kind)


def test_a_wrong_basis_moves_no_dimension(monkeypatch):
    """A basis choice that returns any invertible (P, Q), not eigenvectors,
    costs speed but gives the same dims."""
    rng = random.Random(5)
    _route(monkeypatch, False)
    cases = [(catalog_algebra(name), kind) for name in ("a2", "sl2") for kind in ("adjoint", "coadjoint", "zero")]
    want = [_dims(alg, _rep(alg, kind)) for alg, kind in cases]
    _route(monkeypatch, True)
    chosen = []
    monkeypatch.setattr(yamaguti, "weight_basis", lambda alg, rep: chosen.append(1) or (
        random_invertible(alg.dim, rng), random_invertible(rep.module_dim, rng)))
    assert [_dims(alg, _rep(alg, kind)) for alg, kind in cases] == want
    assert chosen


def _dense_sd4():
    a2 = catalog_algebra("a2")
    return change_basis(semidirect(a2, adjoint_rep(a2)), random_invertible(4, random.Random(1), (-1, 1)))


@pytest.mark.parametrize("kind", ["adjoint", "coadjoint", "zero"])
def test_moved_pair_is_isomorphic(kind):
    """The weight basis (P, Q) is a pair isomorphism from the moved pair to
    the given one (2P is not), and the moved pair has fewer nonzero
    constants than the dense one."""
    alg = _dense_sd4()
    rep = _rep(alg, kind)
    p, q = weight_basis(alg, rep)
    moved_alg, moved_rep = change_basis(alg, p), change_rep_basis(rep, p, q)
    moved, given = LieYRepPair(moved_alg, moved_rep), LieYRepPair(alg, rep)
    assert is_pair_homomorphism(p, q, moved, given)
    assert not is_pair_homomorphism(p.scale(2), q, moved, given)
    with pytest.raises(DimMismatchError):
        change_rep_basis(rep, p, Matrix.identity(rep.module_dim + 1))
    count = lambda a, r: sum(int((x != 0).sum()) for x in (a.b_arr, a.t_arr, r.rho_arr, r.mu_arr))
    assert count(moved_alg, moved_rep) < count(alg, rep)


def _frac(mat):
    return np.array(mat.data, dtype=object)


@pytest.mark.parametrize("kind", ["adjoint", "coadjoint", "zero"])
def test_derivations_satisfy_the_laws(kind):
    """Each (D_g, D_V) of pair_derivations passes the derivation laws
    written out with Fractions, the basis is independent and its size is
    the nullity of the same laws' system; a perturbed D_g fails them."""
    alg = _dense_sd4()
    rep = _rep(alg, kind)
    n, m = alg.dim, rep.module_dim
    b, t = np.array(alg.b_arr.tolist(), dtype=object), np.array(alg.t_arr.tolist(), dtype=object)
    rho, mu = np.array(rep.rho_arr.tolist(), dtype=object), np.array(rep.mu_arr.tolist(), dtype=object)

    def residual(dg, dv):
        # D[x, y] - [Dx, y] - [x, Dy], and likewise for the ternary bracket
        r_b = np.einsum("ijk,lk->ijl", b, dg) - np.einsum("ai,ajk->ijk", dg, b) - np.einsum("aj,iak->ijk", dg, b)
        r_t = (np.einsum("ijkl,ml->ijkm", t, dg) - np.einsum("ai,ajkl->ijkl", dg, t)
               - np.einsum("aj,iakl->ijkl", dg, t) - np.einsum("ak,ijal->ijkl", dg, t))
        # D_V X(x) - X(x) D_V - X(D_g x), for X = rho and each slot of mu
        r_rho = dv @ rho - rho @ dv - np.einsum("ai,aob->iob", dg, rho)
        r_mu = (dv @ mu - mu @ dv - np.einsum("ai,ajob->ijob", dg, mu) - np.einsum("aj,iaob->ijob", dg, mu))
        return np.concatenate([r.ravel() for r in (r_b, r_t, r_rho, r_mu)])

    ders = pair_derivations(alg, rep)
    for dg, dv in ders:
        assert not residual(_frac(dg), _frac(dv)).any()
    flat = Matrix([list(_frac(dg).ravel()) + list(_frac(dv).ravel()) for dg, dv in ders])
    assert flat.rank() == len(ders)
    size = n * n + m * m
    units = np.identity(size, dtype=object)
    system = Matrix([list(col) for col in np.array(
        [residual(u[:n * n].reshape(n, n), u[n * n:].reshape(m, m)) for u in units]).T])
    assert system.nullspace_dim() == len(ders)
    dg, dv = ders[0]
    bump = np.zeros((n, n), dtype=object)
    bump[0, 1] = Fraction(1)
    assert residual(_frac(dg) + bump, _frac(dv)).any()


def test_no_rational_weight_basis_for_so3():
    """so3's derivations are rotations: no eigenbasis over Q, so the route
    keeps the given basis."""
    so3 = catalog_algebra("so3")
    assert weight_basis(so3, adjoint_rep(so3)) is None
    assert yamaguti._weight_route(so3, adjoint_rep(so3), 1 << 40)[0] is so3


def test_no_derivation_search_for_a_coboundary_smaller_than_the_system(monkeypatch):
    """With a dim-16 algebra and a dim-2 module the derivation system is
    33,728 x 260: delta_1 (4,080 x 32) is smaller, so H^1 keeps the given
    basis without a search, while H^2 searches."""
    monkeypatch.setattr(yamaguti, "WEIGHT_ENTRIES", 0)
    monkeypatch.setattr(yamaguti, "WEIGHT_SHARE", 0)
    searched = []
    monkeypatch.setattr(yamaguti, "weight_basis", lambda alg, rep: searched.append(alg.dim))
    alg, rep = LieYamagutiAlgebra.abelian(16), Representation.zero(16, 2)
    for p in (1, 2):
        assert yamaguti._weight_route(alg, rep, cochain_dim(16, 2, p + 1) * cochain_dim(16, 2, p))[0] is alg
    assert searched == [16]


def test_sd4_h3_in_a_dense_basis_through_the_cli(tmp_path, capsys, monkeypatch):
    """H^3 of sd4 (a2 x ad) in a dense basis, written with pair_to_dict, is
    44 through the CLI, and is computed in the weight basis."""
    alg = _dense_sd4()
    path = tmp_path / "sd4.json"
    dump_json(pair_to_dict(LieYRepPair(alg, adjoint_rep(alg))), path)
    chosen = []
    choose = yamaguti.weight_basis
    monkeypatch.setattr(yamaguti, "weight_basis", lambda *args: chosen.append(1) or choose(*args))
    code, out = run_cli("--format", "json", "cohomology", "--pair", str(path), "--degree", "3",
                        "--complex", "classical", capsys=capsys)
    assert code == 0, out.err
    assert json.loads(out.out)["dim_H3"] == 44
    assert chosen == [1]

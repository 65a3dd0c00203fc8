import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
import sympy

from lieyam import LieYRepPair, Matrix, Representation, adjoint_rep, coadjoint_rep
from lieyam.errors import (
    NotInSubcomplexError,
    PolynomialEntriesError,
    UnsupportedDegreeError,
)
from lieyam.linalg import exact, solve
from lieyam.paircomplex import (
    PairCochain,
    _pc,
    lift,
    pair_cochain_dim,
    pair_cohomology_dim,
    pair_delta_direct,
    pair_delta_lifted,
    pair_delta_matrix,
    project,
    random_pair_cochain,
    zero_pair_cochain,
)
from lieyam.reps import pair_derivations, semidirect
from lieyam.scalars import T
from lieyam.search import CATALOG, catalog_algebra
from lieyam.yamaguti import YamagutiCochain, delta, random_cochain


@pytest.fixture(scope="module")
def pairs():
    a2 = catalog_algebra("a2")
    sl2 = catalog_algebra("sl2")
    return [
        LieYRepPair(a2, adjoint_rep(a2)),
        LieYRepPair(a2, coadjoint_rep(a2)),
        LieYRepPair(sl2, Representation.zero(3, 2)),
    ]


def test_lift_zero_and_identity(pairs):
    P = pairs[0]
    assert lift(P, zero_pair_cochain(P, 2)).is_zero()
    one = PairCochain.degree1(Matrix.identity(2), Matrix.identity(2))
    lifted = lift(P, one)
    assert lifted.f == Matrix.identity(4)


def test_lift_comp1_only_matches_hand_expansion(pairs):
    """A comp1-only degree-2 cochain lifts to (f on the g part, 0)."""
    P = pairs[0]
    c1f, c1g = np.zeros((1, 2), dtype=np.int64), np.zeros((1, 2, 2), dtype=np.int64)
    c1f[0], c1g[0, 1] = (3, 5), (7, 0)
    c = PairCochain.from_blocks(2, 2, 2, {"c1f": c1f, "c1g": c1g})
    lifted = lift(P, c)
    # pure wedge e1^e2 of the semidirect is index 0 in its wedge basis
    assert tuple(lifted.f_at((0,))) == (3, 5, 0, 0)
    assert tuple(lifted.g_at((0,), 1)) == (7, 0, 0, 0)
    # mixed and V-final inputs carry nothing for a comp1-only cochain
    assert tuple(lifted.g_at((0,), 2)) == (0, 0, 0, 0)
    assert tuple(lifted.f_at((1,))) == (0, 0, 0, 0)


def test_project_roundtrip(pairs, rng):
    for P in pairs:
        for degree in (1, 2, 3):
            c = random_pair_cochain(P, degree, rng)
            assert project(P, lift(P, c)) == c
    assert project(pairs[0], lift(pairs[0], zero_pair_cochain(pairs[0], 2))).is_zero()


def test_lift_injectivity(pairs, rng):
    P = pairs[0]
    for degree in (1, 2):
        c = random_pair_cochain(P, degree, rng)
        if c.is_zero():
            continue
        assert not lift(P, c).is_zero()


def test_not_in_subcomplex_detected(pairs):
    """A g-valued output on a pure-V input is outside the lifted subspace."""
    P = pairs[0]
    bad = Matrix([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(NotInSubcomplexError) as err:
        project(P, YamagutiCochain.from_blocks(1, 4, 4, {"f": bad.arr.T}))
    assert err.value.witness is not None

    # a g-part output on a mixed (g^V) wedge input cannot come from a lift:
    # wedge index 1 of the semidirect is e1 ^ v1
    g = np.zeros((6, 4, 4), dtype=np.int64)
    g[1, 0, 0] = 1
    raw = YamagutiCochain.from_blocks(2, 4, 4, {"g": g})
    with pytest.raises(NotInSubcomplexError):
        project(P, raw)
    # nor can any value on a pure-V wedge (index 5 is v1 ^ v2)
    f = np.zeros((6, 4), dtype=np.int64)
    f[5, 2] = 1
    raw2 = YamagutiCochain.from_blocks(2, 4, 4, {"f": f})
    with pytest.raises(NotInSubcomplexError):
        project(P, raw2)

    # a matrix (here L itself, as triples) is checked on every column at
    # once; the witness names the lowest offending column, here not the
    # first bad entry
    im = _pc(P).index_map(2)
    rows = np.concatenate([im.home, im.home[im.dst]])
    cols = np.concatenate([np.arange(len(im.home)), im.src])
    vals = np.concatenate([np.ones(len(im.home), dtype=object), im.sign.astype(object)])
    im.verify(rows, exact(vals), cols)  # a member
    with pytest.raises(NotInSubcomplexError) as err:
        im.verify(np.append(rows, [1 * 4 + 0, 5 * 4 + 2]), exact(np.append(vals, [1, 3])),
                  np.append(cols, [20, 7]))
    assert err.value.witness == {"column": 7, "flat_index": 5 * 4 + 2, "expected": 0, "found": 3}


def test_coboundary_leaving_the_subspace_is_caught(monkeypatch):
    """Both lifted paths check delta_E's output: a term that writes off the
    home coordinates is reported at its column and entry."""
    a2 = catalog_algebra("a2")
    P = LieYRepPair(a2, adjoint_rep(a2))
    pc = _pc(P)
    off = int(np.flatnonzero(pc.index_map(2).coordinate < 0)[0])
    col = 3
    triples = pc.terms.triples

    def leaky(p):
        yield from triples(p)
        yield (np.array([[[off]]]), np.array([[[pc.index_map(1).home[col]]]]),
               exact(np.array([[5]], dtype=object)))

    monkeypatch.setattr(pc.terms, "triples", leaky)
    with pytest.raises(NotInSubcomplexError, match=r"\(f part\)") as err:
        pair_delta_matrix(P, 1)
    assert err.value.witness == {"column": col, "flat_index": off, "expected": 0, "found": 5}
    e_col = PairCochain.unflatten(1, 2, 2, [int(j == col) for j in range(pair_cochain_dim(2, 2, 1))])
    with pytest.raises(NotInSubcomplexError, match=r"\(f part\)") as err:
        pair_delta_lifted(P, e_col)
    assert err.value.witness == {"flat_index": off, "expected": 0, "found": 5}


@pytest.mark.parametrize("scale", [2**60, 2**70, Fraction(1, 3), Fraction(2**70, 3)])
def test_numerator_paths_commute_with_scaling(pairs, scale):
    """delta, lift, project and pair_delta_lifted of a scaled cochain are the
    scaled results: over a denominator, and past INT64_LIMIT, where the
    numerators of 2^60 times a cochain leave int64 on the way (those of
    2^40 times one would stay below 2^53) and those of 2^70 start out as
    Python ints."""
    rng = random.Random(16)
    big = scale >= 2**60
    for P in pairs[:2]:  # a2 with the adjoint and the coadjoint representation
        alg, rep = P.algebra, P.rep
        for degree in (1, 2):
            c = random_cochain(alg, rep, degree, rng)
            got = delta(alg, rep, c.scale(scale))
            assert got == delta(alg, rep, c).scale(scale)
            assert (got.flat.num.dtype == object) == big
            pc = random_pair_cochain(P, degree, rng)
            lifted = lift(P, pc.scale(scale))
            assert lifted == lift(P, pc).scale(scale)
            assert (lifted.flat.num.dtype == object) == big and lifted.flat.den == Fraction(scale).denominator
            assert project(P, lifted) == pc.scale(scale)
            got = pair_delta_lifted(P, pc.scale(scale))
            assert got == pair_delta_lifted(P, pc).scale(scale)
            assert (got.flat.num.dtype == object) == big
    # a big lift bumped off the home coordinates: the witness holds the exact value
    off = int(np.flatnonzero(_pc(P).index_map(2).coordinate < 0)[0])
    coords = lifted.flatten()
    coords[off] += scale + 1
    with pytest.raises(NotInSubcomplexError) as err:
        project(P, YamagutiCochain.unflatten(2, 4, 4, coords))
    assert err.value.witness == {"flat_index": off, "expected": 0, "found": scale + 1}


def test_project_bounds_the_unmixed_numerators(pairs):
    """P subtracts an overlap from a home coordinate, which can double the
    largest entry; the carried bound covers that, past INT64_LIMIT on
    Python ints."""
    im = _pc(pairs[0]).index_map(2)
    for a in (3, 2**61):
        y = [0] * im.size
        y[im.home[im.dst[0]]], y[im.home[im.src[0]]] = a, -int(im.sign[0]) * a
        got = project(pairs[0], YamagutiCochain.unflatten(2, 4, 4, y)).flat
        assert max(map(abs, got.num.tolist())) == 2 * a <= got.bound
        assert (got.num.dtype == object) == (a == 2**61)


def test_cochains_over_polynomials_are_refused(pairs):
    """A cochain is rational, as the coboundary's term table is."""
    with pytest.raises(PolynomialEntriesError):
        PairCochain.unflatten(1, 2, 2, [T] + [0] * 7)
    with pytest.raises(PolynomialEntriesError):
        YamagutiCochain.unflatten(1, 2, 2, [0, 1 + T, 0, 0])


def test_delta_lifted_squares_to_zero(pairs, rng):
    for P in pairs:
        for degree in (1, 2):
            c = random_pair_cochain(P, degree, rng)
            dd = pair_delta_lifted(P, pair_delta_lifted(P, c))
            assert dd.is_zero()


def test_direct_equals_lifted(pairs, rng):
    for P in pairs:
        for degree in (1, 2):
            for _ in range(4):
                c = random_pair_cochain(P, degree, rng)
                assert pair_delta_direct(P, c) == pair_delta_lifted(P, c)


def test_direct_unsupported_degree(pairs):
    with pytest.raises(UnsupportedDegreeError):
        pair_delta_direct(pairs[0], zero_pair_cochain(pairs[0], 3))


def test_degree2_comp3_shape_invariant(pairs):
    c = zero_pair_cochain(pairs[0], 2)
    names = set(c.shapes)
    assert "c3g1" in names and not any(n.startswith("c3f") for n in names)
    c3 = zero_pair_cochain(pairs[0], 3)
    assert {"c3f1", "c3g1", "c3g2"} <= set(c3.shapes)


def test_abelian_pair_h1():
    ab = catalog_algebra("abelian3")
    P = LieYRepPair(ab, Representation.zero(3, 2))
    assert pair_cohomology_dim(P, 1) == 3 * 3 + 2 * 2


def test_pair_cohomology_double_route(pairs):
    """Matrix rank-nullity against an independent sympy kernel/image count."""
    P = pairs[0]
    d1 = pair_delta_matrix(P, 1)
    d2 = pair_delta_matrix(P, 2)
    s1 = sympy.Matrix([[sympy.Rational(x) for x in row] for row in d1.data])
    s2 = sympy.Matrix([[sympy.Rational(x) for x in row] for row in d2.data])
    h1 = pair_cohomology_dim(P, 1)
    h2 = pair_cohomology_dim(P, 2)
    assert h1 == len(s1.nullspace())
    assert h2 == len(s2.nullspace()) - s1.rank()
    assert (s2 * s1).is_zero_matrix  # image inside kernel, exactly
    assert d1.cols == pair_cochain_dim(2, 2, 1) == 8
    assert d2.cols == pair_cochain_dim(2, 2, 2) == 34


def test_flatten_roundtrip(pairs, rng):
    P = pairs[0]
    for degree in (1, 2, 3):
        c = random_pair_cochain(P, degree, rng)
        assert PairCochain.unflatten(degree, P.dim_g, P.dim_v, c.flatten()) == c


# The one-pass matrix against the per-cochain path, column by column.  The
# per-column reference is slow at degree 3, so large matrices are checked
# on a seeded sample of columns.
MAX_PAIR_DIM = {1: 8, 2: 6, 3: 5}


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_matrix_columns_match_per_cochain_path(corpus, degree):
    rng = random.Random(degree)
    for P in corpus:
        if P.dim_g + P.dim_v > MAX_PAIR_DIM[degree]:
            continue
        mat = pair_delta_matrix(P, degree)
        rows = mat.data
        size = pair_cochain_dim(P.dim_g, P.dim_v, degree)
        assert mat.cols == size
        cols = range(size) if size <= 40 else sorted(rng.sample(range(size), 12))
        for j in cols:
            e_j = PairCochain.unflatten(degree, P.dim_g, P.dim_v,
                                        [1 if i == j else 0 for i in range(size)])
            assert [row[j] for row in rows] == pair_delta_lifted(P, e_j).flatten()


def test_pair_complex_owned_by_pair():
    """The semidirect complex is built once per pair and freed with it."""
    a2 = catalog_algebra("a2")
    P = LieYRepPair(a2, adjoint_rep(a2))
    pair_delta_matrix(P, 1)
    pc = P._pair_complex
    assert pc is not None
    pair_delta_matrix(P, 2)
    pair_delta_lifted(P, zero_pair_cochain(P, 2))
    pair_cohomology_dim(P, 2)
    assert P._pair_complex is pc
    pair_ref, pc_ref = weakref.ref(P), weakref.ref(pc)
    del P, pc
    gc.collect()
    assert pair_ref() is None and pc_ref() is None


def test_pair_h1_is_the_derivations():
    """Pair H^1 = Der(g, V) as spans: the kernel of delta_1 and the basis of
    reps.pair_derivations, read as degree-1 cochains, have the same size,
    and stacking the two does not raise the rank.  Both go through
    linalg.solve, from independent matrices.  The 9 catalog algebras and
    sd4 = a2 x| ad, each with its adjoint, its coadjoint and zero modules
    of dim 1 and 2: 40 pairs."""
    a2 = catalog_algebra("a2")
    sizes = []
    for alg in [catalog_algebra(name) for name in CATALOG] + [semidirect(a2, adjoint_rep(a2))]:
        for rep in (adjoint_rep(alg), coadjoint_rep(alg), Representation.zero(alg.dim, 1),
                    Representation.zero(alg.dim, 2)):
            _, kernel = solve(pair_delta_matrix(LieYRepPair(alg, rep), 1))
            ders = [PairCochain.degree1(dg, dv).flat.reshape(1, -1) for dg, dv in pair_derivations(alg, rep)]
            assert len(ders) == kernel.rows
            assert Matrix.from_array(np.concatenate([kernel.arr, *ders])).rank() == kernel.rows
            sizes.append(kernel.rows)
    assert len(sizes) == 40 and min(sizes) > 0

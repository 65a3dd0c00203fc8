import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lieyam import LieYRepPair, coadjoint_rep
from lieyam.algebra import LieYamagutiAlgebra
from lieyam.errors import DimMismatchError, PolynomialEntriesError, SingularMatrixError
from lieyam.linalg import INT64_LIMIT, Matrix, exact, exact_product_is_zero, reduced, solve
from lieyam.paircomplex import pair_delta_matrix
from lieyam.reps import adjoint_rep
from lieyam.scalars import T
from lieyam.search import catalog_algebra, change_basis, random_invertible
from lieyam.yamaguti import cohomology_dim, delta_matrix


def _column(v):
    return Matrix([[x] for x in v], 1)


def test_rank_examples():
    assert Matrix.identity(2).rank() == 2
    assert Matrix.zero(2).rank() == 0
    # [[1,2],[2,4]]: row 2 = 2 * row 1, so elimination leaves one pivot
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_nullspace_examples():
    assert Matrix.identity(2).nullspace_dim() == 0
    assert Matrix.zero(3).nullspace_dim() == 3
    m = Matrix([[1, 2], [2, 4]])
    assert m.nullspace_dim() == m.cols - m.rank() == 1
    (v,) = m.nullspace_basis()
    assert exact_product_is_zero(m, _column(v))


def test_invert_examples(rng):
    assert Matrix.identity(3).invert() == Matrix.identity(3)
    assert Matrix.diag([2, Fraction(1, 2)]).invert() == Matrix.diag([Fraction(1, 2), 2])
    for _ in range(20):
        m = Matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)])
        if m.rank() < 3:
            with pytest.raises(SingularMatrixError):
                m.invert()
            continue
        inv = m.invert()
        assert m * inv == Matrix.identity(3)
        assert inv * m == Matrix.identity(3)


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 2], [2, 4]]).invert()


def test_polynomial_entries_rejected():
    m = Matrix([[T, 0], [0, 1]])
    for op in ("rank", "nullspace_dim", "invert"):
        with pytest.raises(PolynomialEntriesError):
            getattr(m, op)()
    # constant polynomials are fine
    from lieyam.scalars import Poly

    assert Matrix([[Poly([2]), 0], [0, 1]]).rank() == 2


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.fractions(max_denominator=6), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
).map(Matrix)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(m):
    assert m.rank() + m.nullspace_dim() == m.cols
    for v in m.nullspace_basis():
        assert exact_product_is_zero(m, _column(v))


def test_matrix_shape_errors():
    with pytest.raises(DimMismatchError):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimMismatchError):
        Matrix.identity(2) * Matrix.identity(3)
    with pytest.raises(DimMismatchError):
        exact_product_is_zero(Matrix.identity(2), _column((1, 2, 3)))
    with pytest.raises(DimMismatchError):
        Matrix.identity(2) + Matrix.identity(3)
    with pytest.raises(DimMismatchError):
        solve(Matrix.identity(2), Matrix.identity(3))


def test_exact_product_is_zero():
    a = Matrix([[1, 2], [2, 4]])
    b = Matrix([[2], [-1]])
    assert exact_product_is_zero(a, b)
    assert not exact_product_is_zero(a, Matrix([[1], [0]]))
    # huge entries exercise the object-dtype fallback
    big = 2**40
    a2 = a.scale(big)
    assert exact_product_is_zero(a2, b.scale(big))


def _sympy(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.rational_rows() for x in row])


def _assert_matches_sympy(m):
    """rank, nullspace_basis (the canonical RREF vectors) and invert against sympy."""
    s = _sympy(m)
    assert m.rank() == s.rank()
    expected = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in s.nullspace()]
    assert m.nullspace_basis() == expected
    if m.is_square():
        if s.rank() < m.rows:
            with pytest.raises(SingularMatrixError):
                m.invert()
        else:
            inv = s.inv()
            assert m.invert().data == tuple(
                tuple(Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(m.cols))
                for i in range(m.rows))


def _random_matrix(rng, rows, cols, density, scale=1):
    def entry():
        if rng.random() >= density:
            return 0
        return Fraction(rng.randint(-9, 9) * scale + rng.randint(0, 1), rng.randint(1, 6))
    return Matrix([[entry() for _ in range(cols)] for _ in range(rows)], cols)


def test_elimination_matches_sympy(rng):
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1), (1, 6), (6, 1)]
    shapes += [(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(40)]
    shapes += [(n, n) for n in range(2, 8)] * 3
    for rows, cols in shapes:
        for density in (0.15, 0.5, 1.0):
            m = _random_matrix(rng, rows, cols, density)
            _assert_matches_sympy(m)
            if rows:
                # zero rows anywhere change nothing but the row count
                data = list(m.data)
                data.insert(rng.randint(0, rows), (0,) * cols)
                _assert_matches_sympy(Matrix(data + [(Fraction(0),) * cols], cols))
    for _ in range(10):
        # entries above 10**30, sparse and dense
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), rng.choice((0.3, 1.0)), 10**31)
        _assert_matches_sympy(m)
    low_rank = _random_matrix(rng, 3, 6, 1.0, 10**31)
    _assert_matches_sympy(low_rank.transpose() * low_rank)


@st.composite
def _systems(draw):
    """(A, B) over the integers or the rationals: A is up to 12 x 12, of a
    drawn rank bound (a product L R through 0-12 columns) with drawn zero
    rows and columns; B has 0-3 columns, each A y (consistent) or drawn
    (mostly inconsistent when A is rank deficient)."""
    scalars = st.integers(-3, 3) if draw(st.booleans()) else st.fractions(-3, 3, max_denominator=4)

    def matrix(rows, cols):
        return Matrix([draw(st.lists(scalars, min_size=cols, max_size=cols)) for _ in range(rows)], cols)

    rows, cols, inner, width = (draw(st.integers(0, 12)) for _ in range(4))
    width %= 4
    keep = [draw(st.lists(st.sampled_from([1, 1, 1, 0]), min_size=k, max_size=k)) for k in (rows, cols)]
    a = Matrix.diag(keep[0]) * matrix(rows, inner) * matrix(inner, cols) * Matrix.diag(keep[1])
    b = a * matrix(cols, width) if draw(st.booleans()) else matrix(rows, width)
    return a, b


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_systems())
def test_solve_matches_sympy(system):
    """solve(A, B) is None exactly when sympy's rank of [A | B] exceeds that
    of A; otherwise A X = B and A K^T = 0 by exact products, X is zero on
    the free unknowns (sympy's non-pivot columns) and K is the identity
    there, with cols - rank rows."""
    a, b = system
    s = _sympy(a)
    aug = s.row_join(_sympy(b))
    solution = solve(a, b)
    assert (solution is None) == (aug.rank() > s.rank())
    if solution is not None:
        x, k = solution
        free = [j for j in range(a.cols) if j not in s.rref()[1]]
        assert a * x == b and (a * k.transpose()).is_zero()
        assert k.rows == a.cols - s.rank() == len(free)
        assert Matrix.from_array(k.arr[:, free]) == Matrix.identity(len(free))
        assert Matrix.from_array(x.arr[free]).is_zero()


def test_elimination_on_coboundary_matrices(corpus):
    """Tall sparse coboundary shapes, classical and pair, against sympy."""
    sl2 = catalog_algebra("sl2")
    mats = [delta_matrix(sl2, adjoint_rep(sl2), 1), delta_matrix(sl2, adjoint_rep(sl2), 2)]
    mats += [delta_matrix(corpus[2].algebra, corpus[2].rep, 1)]
    mats += [pair_delta_matrix(pair, p) for pair in corpus[:2] for p in (1, 2, 3)]
    mats += [pair_delta_matrix(pair, 1) for pair in corpus[3:8]]
    assert max(m.rows for m in mats) > 100 and any(m.rows > 3 * m.cols for m in mats)
    for m in mats:
        _assert_matches_sympy(m)


def test_classical_h3_of_the_semidirect(corpus):
    """delta_3 of A2 x ad (4320 x 720) has rank 581; H^3 by rank-nullity with its kernel vectors."""
    sd = corpus[2]
    d3 = delta_matrix(sd.algebra, sd.rep, 3)
    d2 = delta_matrix(sd.algebra, sd.rep, 2)
    assert (d3.rows, d3.cols, d2.cols) == (4320, 720, 120)
    assert d3.rank() == 581
    kernel = d3.nullspace_basis()
    assert len(kernel) == d3.cols - 581 == d3.nullspace_dim()
    assert exact_product_is_zero(d3, Matrix(kernel, d3.cols).transpose())
    assert exact_product_is_zero(d3, d2)
    assert cohomology_dim(sd.algebra, sd.rep, 3) == len(kernel) - d2.rank()


def test_empty_shapes_keep_their_columns():
    m = Matrix([], 3)
    assert (m.rows, m.cols, m.rank(), m.nullspace_dim()) == (0, 3, 0, 3)
    assert (m.transpose().rows, m.transpose().cols) == (3, 0)
    assert Matrix.zero(0, 3).cols == 3


def test_zero_codomain_cohomology():
    """On a 1-dim algebra C^2 = 0, so every 1-cochain is a cocycle."""
    z = Fraction(0)
    line = LieYamagutiAlgebra(1, [[(z,)]], [[[(z,)]]])
    assert cohomology_dim(line, adjoint_rep(line), 1) == 1


def test_tensor_basics():
    """Tensors are exact arrays: shape, entries, last-axis slices, ragged input, zero test."""
    t = exact([[1, 2], [3, 4]])
    assert t.shape == (2, 2)
    assert t[1, 0] == 3
    assert t[1].tolist() == [3, 4]
    with pytest.raises(DimMismatchError):
        exact([[1, 2], [3]])
    assert not (exact([[0] * 3] * 2) != 0).any()


def _domain_rank(m):
    """The rank by sympy's DomainMatrix over QQ, an elimination independent of lieyam's."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not m.rows or not m.cols:
        return 0
    rows = [[QQ(x.numerator, x.denominator) for x in row] for row in m.rational_rows()]
    return DomainMatrix(rows, (m.rows, m.cols), QQ).rank()


def test_coboundary_numerators_by_kind():
    """Coboundaries are assembled as numerators over one denominator: int64
    on integer catalog pairs, over a denominator > 1 on a rational basis,
    and Python ints once the structure constants pass 2**62.  Rank and
    nullity equal sympy's in all three cases."""
    heis = catalog_algebra("heis3")
    rational = change_basis(heis, random_invertible(3, random.Random(0)) * Matrix.diag([1, 1, 2]))
    # the basis 2**31 e_i multiplies [.,.] by 2**31 and <<.,.,.>> by 2**62
    huge = change_basis(catalog_algebra("sl2"), Matrix.identity(3).scale(2**31))
    assert max(abs(x) for x in np.asarray(huge.t_arr).ravel()) >= INT64_LIMIT
    cases = [  # (algebra, representation, numerator dtype, denominator test, pair degrees)
        (catalog_algebra("a2"), adjoint_rep, np.int64, lambda den: den == 1, (1, 2)),
        (catalog_algebra("sl2"), coadjoint_rep, np.int64, lambda den: den == 1, (1,)),
        (rational, coadjoint_rep, np.int64, lambda den: den > 1, (1,)),
        (huge, adjoint_rep, object, lambda den: True, (1, 2)),
    ]
    for alg, rep_of, dtype, den_ok, degrees in cases:
        pair = LieYRepPair(alg, rep_of(alg))
        mats = [delta_matrix(alg, pair.rep, 2)] + [pair_delta_matrix(pair, p) for p in degrees]
        for m in mats:
            assert m.arr.num.dtype == dtype and den_ok(m.arr.den)
            rank = _domain_rank(m)
            assert (m.rank(), m.nullspace_dim()) == (rank, m.cols - rank)


def test_stored_structure_constants_in_lowest_terms():
    """The basis 2 e_i gives integer structure constants: the algebra and the
    representation store them over den 1, and the classical delta_2 built
    from them is over den 1 too.  A genuine half keeps its denominator."""
    alg = change_basis(catalog_algebra("sl2"), Matrix.identity(3).scale(2))
    rep = adjoint_rep(alg)
    for arr in (alg.b_arr, alg.t_arr, rep.rho_arr, rep.mu_arr, delta_matrix(alg, rep, 2).arr):
        assert arr.den == 1 and arr.num.dtype == np.int64
    whole = reduced(exact([Fraction(1, 2), 3]) * exact([2, 2]))  # [2, 12] over den 2 at first
    assert (whole.den, whole.num.tolist(), whole.bound) == (1, [1, 6], 6)
    kept = reduced(exact([Fraction(1, 2), 1]))
    assert (kept.den, kept.tolist()) == (2, [Fraction(1, 2), 1])


def test_matrix_surface_read_by_the_benchmark():
    """The names perfbench/ (gen, oracle, tracer, worker) reads, which no
    other tier-1 test covers by name."""
    import lieyam
    from lieyam import jsonio, search

    for name in ("rank", "nullspace_dim", "nullspace_basis", "invert"):
        assert callable(Matrix.__dict__[name])  # the tracer patches them by name
    assert isinstance(lieyam.KERNEL_BACKEND, str)
    for fn in (search.change_basis, search.random_invertible, jsonio.algebra_to_dict,
               jsonio.operator_to_dict):
        assert callable(fn)
    empty = Matrix([], 3)
    assert (empty.rows, empty.cols, empty.data) == (0, 3, ())
    p = Matrix([[1, 2], [0, 1]])
    q = (p.transpose() * Matrix.identity(2).scale(Fraction(3, 2)) * p).invert()
    assert (q.rows, q.cols) == (2, 2)
    for mat in (p, q, p.scale(2), p * q, Matrix([[Fraction(4, 2), Fraction(1, 3)]])):
        assert type(mat.data) is tuple and all(type(row) is tuple for row in mat.data)
        assert all(type(x) in (int, Fraction) for row in mat.data for x in row)
        assert mat.rational_rows() == [[Fraction(x) for x in row] for row in mat.data]
    assert q * (p.transpose() * p).scale(Fraction(3, 2)) == Matrix.identity(2)
    assert q.data == ((Fraction(10, 3), Fraction(-4, 3)), (Fraction(-4, 3), Fraction(2, 3)))


def _eigen_cases():
    """Seeded integer matrices: diagonalizable ones (P diag P^-1 with small
    integer weights), random ones, a Jordan block and the so3 rotation
    generator."""
    rng = random.Random(24)
    cases = []
    for n in (1, 2, 3, 4, 5):
        p = random_invertible(n, rng)
        d = Matrix.diag([rng.randint(-3, 3) for _ in range(n)])
        cases.append(p * d * p.invert())
        cases.append(Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
    cases.append(Matrix([[Fraction(1, 2), 0], [3, Fraction(-1, 3)]]))
    cases.append(Matrix([[2, 1, 0], [0, 2, 0], [0, 0, -1]]))      # a Jordan block
    cases.append(Matrix([[0, 0, 0], [0, 0, -1], [0, 1, 0]]))       # a rotation of so3
    return cases


@pytest.mark.parametrize("m", _eigen_cases())
def test_characteristic_polynomial_and_eigenbasis_match_sympy(m):
    """_integer_charpoly, rational_eigenvalues and rational_eigenbasis
    against sympy (charpoly, eigenvects over Q)."""
    from lieyam.linalg import _integer_charpoly, rational_eigenbasis, rational_eigenvalues

    s = _sympy(m)
    x = sympy.Symbol("x")
    integer = s * m.arr.den
    want = [int(c) for c in reversed(integer.charpoly(x).all_coeffs())]
    assert _integer_charpoly(np.array(integer.tolist(), dtype=object)) == want
    roots = sympy.roots(s.charpoly(x).as_expr(), x)
    split = all(r.is_rational for r in roots) and sum(roots.values()) == m.rows
    values = rational_eigenvalues(m)
    assert (values is not None) == split
    if not split:
        return
    assert values == {Fraction(int(r.p), int(r.q)): k for r, k in roots.items()}
    assert list(values) == sorted(values)
    diagonalizable = all(len(vecs) == k for _, k, vecs in s.eigenvects())
    p = rational_eigenbasis(m, values)
    assert (p is not None) == diagonalizable
    if diagonalizable:
        weights = [v for v, k in values.items() for _ in range(k)]
        assert p.rank() == m.rows
        assert m * p == p * Matrix.diag(weights)


def test_jordan_block_and_rotation_are_refused():
    from lieyam.linalg import rational_eigenbasis, rational_eigenvalues

    jordan = Matrix([[1, 1], [0, 1]])
    rotation = Matrix([[0, -1], [1, 0]])
    assert rational_eigenvalues(jordan) == {1: 2} and rational_eigenbasis(jordan, {1: 2}) is None
    assert rational_eigenvalues(rotation) is None

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lieyam.algebra import LieYamagutiAlgebra
from lieyam.errors import DimMismatchError, PolynomialEntriesError, SingularMatrixError
from lieyam.linalg import LinComb, Matrix, Tensor, exact_product_is_zero
from lieyam.paircomplex import pair_delta_matrix
from lieyam.reps import adjoint_rep
from lieyam.scalars import T
from lieyam.search import catalog_algebra
from lieyam.yamaguti import cohomology_dim, delta_matrix


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
    assert all(x == 0 for x in m.apply(v))


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
        assert all(x == 0 for x in m.apply(v))


def test_matrix_shape_errors():
    with pytest.raises(DimMismatchError):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimMismatchError):
        Matrix.identity(2) * Matrix.identity(3)
    with pytest.raises(DimMismatchError):
        Matrix.identity(2).apply((1, 2, 3))


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


def test_elimination_on_coboundary_matrices(corpus):
    """Tall sparse coboundary shapes, classical and pair, against sympy."""
    sl2 = catalog_algebra("sl2")
    mats = [delta_matrix(sl2, adjoint_rep(sl2), 1), delta_matrix(sl2, adjoint_rep(sl2), 2)]
    mats += [delta_matrix(corpus[2].algebra, corpus[2].rep, 1)]
    mats += [pair_delta_matrix(pair, p, cap=p + 1) for pair in corpus[:2] for p in (1, 2, 3)]
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
    assert exact_product_is_zero(d3, Matrix.from_cols(kernel))
    assert exact_product_is_zero(d3, d2)
    assert cohomology_dim(sd.algebra, sd.rep, 3) == len(kernel) - d2.rank()


def test_empty_shapes_keep_their_columns():
    m = Matrix([], 3)
    assert (m.rows, m.cols, m.rank(), m.nullspace_dim()) == (0, 3, 0, 3)
    assert (m.transpose().rows, m.transpose().cols) == (3, 0)
    assert (Matrix.zero(0, 3).cols, Matrix.from_linear_forms([], 3).cols) == (3, 3)
    assert Matrix.from_linear_forms([], 3).transpose().transpose() == m


def test_zero_codomain_cohomology():
    """On a 1-dim algebra C^2 = 0, so every 1-cochain is a cocycle."""
    z = Fraction(0)
    line = LieYamagutiAlgebra(1, [[(z,)]], [[[(z,)]]])
    assert cohomology_dim(line, adjoint_rep(line), 1) == 1


def test_tensor_basics():
    t = Tensor.from_nested([[1, 2], [3, 4]])
    assert t.shape == (2, 2)
    assert t.at(1, 0) == 3
    assert t.slice_vector(1) == (3, 4)
    with pytest.raises(DimMismatchError):
        Tensor((2, 2), [1, 2, 3])
    assert Tensor.zeros((2, 3)).is_zero()


def test_lincomb_algebra():
    a = LinComb.unit(0)
    b = LinComb.unit(1)
    c = 2 * a + b - a
    assert c.terms == {0: 1, 1: 1}
    assert (c - c).is_zero()
    assert (0 * c).is_zero()
    assert (0 - c).terms == {0: -1, 1: -1}

import random
from fractions import Fraction

import pytest

from lieyam import LieYRepPair, Matrix, adjoint_rep
from lieyam import search
from lieyam.errors import ConsequenceViolatedError
from lieyam.reps import check_representation
from lieyam.search import (
    CATALOG,
    _grid_solutions,
    _matrices,
    catalog_algebra,
    change_basis,
    random_invertible,
    random_valid_pair,
    search_quadratic_fixtures,
    search_rbn_triples,
)


def test_catalog_entries_are_valid():
    for name in CATALOG:
        assert catalog_algebra(name).check_axioms().passed, name


def test_change_basis_involution(rng):
    for name in ("a2", "so3", "sl2"):
        alg = catalog_algebra(name)
        p = random_invertible(alg.dim, rng)
        moved = change_basis(alg, p)
        assert moved.check_axioms().passed
        back = change_basis(moved, p.invert())
        assert back.binary_tensor == alg.binary_tensor
        assert back.ternary_tensor == alg.ternary_tensor


def test_change_basis_identity(a2):
    same = change_basis(a2, Matrix.identity(2))
    assert same.binary_tensor == a2.binary_tensor


def test_random_valid_pairs_validate(rng):
    for _ in range(6):
        pair = random_valid_pair(rng, max_dim=3)
        assert pair.algebra.check_axioms().passed
        assert check_representation(pair.algebra, pair.rep).passed


# ---------------------------------------------------------------------------
# the exact solver of the grid searches' linear conditions

SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (2, 3)]
GRIDS = [(1, 0, -1), (0, 2, -1)]
INTEGER = (-2, -1, 0, 0, 1, 2)
RATIONAL = INTEGER + (Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2))


def _linear_map(coeffs, rows, cols):
    """X -> the column of sum_k coeffs[e][k] x_k, x = X read row by row."""
    def fn(x):
        flat = [v for r in x.data for v in r]
        return Matrix([[sum(c * v for c, v in zip(row, flat))] for row in coeffs], 1)
    return fn


def _brute_force(fn, rows, cols, values, rhs):
    return [x for x in _matrices(rows, cols, values) if fn(x) == rhs]


@pytest.mark.parametrize("values", GRIDS)
@pytest.mark.parametrize("rows, cols", SHAPES)
@pytest.mark.parametrize("scalars", [INTEGER, RATIONAL], ids=["integer", "rational"])
def test_grid_solutions_match_brute_force(rows, cols, values, scalars):
    """Seeded homogeneous and affine systems of 1-3 equations: the solver
    returns exactly the filtered grid, in grid order."""
    rng = random.Random(f"{rows}x{cols}{values}{len(scalars)}")
    size = rows * cols
    for _ in range(4):
        equations = rng.randint(1, min(3, size))
        coeffs = [[rng.choice(scalars) for _ in range(size)] for _ in range(equations)]
        fn = _linear_map(coeffs, rows, cols)
        point = Matrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])
        for rhs in (None, fn(point)):
            expected = _brute_force(fn, rows, cols, values, rhs or Matrix.zero(equations, 1))
            assert _grid_solutions(fn, rows, cols, values, rhs=rhs) == expected
            assert rhs is None or point in expected


@pytest.mark.parametrize("values", GRIDS)
def test_grid_solutions_inconsistent_and_zero_systems(values):
    """x + y = 0 and x + y = 1 at once has no solution; the zero map keeps
    the whole grid in `_matrices` order, also the one point of a 2 x 0 grid."""
    fn = _linear_map([[1, 1, 0], [1, 1, 0]], 1, 3)
    assert _grid_solutions(fn, 1, 3, values, rhs=Matrix([[0], [1]])) == []
    zero = _linear_map([[0] * 6], 2, 3)
    assert _grid_solutions(zero, 2, 3, values) == list(_matrices(2, 3, values))
    assert _grid_solutions(zero, 2, 3, values, rhs=Matrix([[1]])) == []
    empty = _linear_map([[]], 2, 0)
    assert _grid_solutions(empty, 2, 0, values) == list(_matrices(2, 0, values))


def test_grid_solutions_keep_grid_values():
    """Every returned entry is the grid's own value object, as `_matrices` yields."""
    fn = _linear_map([[1, -1, Fraction(1, 2), 0]], 2, 2)
    for x in _grid_solutions(fn, 2, 2, (1, 0, -1)):
        assert all(type(v) is int for r in x.data for v in r)


def test_searches_recheck_every_solution(monkeypatch):
    """A solver point that fails its condition raises, it is never used."""
    monkeypatch.setattr(search, "_grid_solutions",
                        lambda fn, rows, cols, values, rhs=None: [Matrix.identity(rows).scale(7)])
    a2 = catalog_algebra("a2")
    with pytest.raises(ConsequenceViolatedError, match="T S = N T"):
        search_rbn_triples(LieYRepPair(a2, adjoint_rep(a2)), (-1, 0, 1), limit=1)
    with pytest.raises(ConsequenceViolatedError, match="R B# skew"):
        search_quadratic_fixtures(names=("abelian2",))

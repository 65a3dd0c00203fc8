import json
import os
import random
from fractions import Fraction

import pytest

from lieyam import LieYRepPair, Matrix, Representation, adjoint_rep, coadjoint_rep
from lieyam import search
from lieyam.algebra import G, is_nijenhuis
from lieyam.errors import ConsequenceViolatedError
from lieyam.jsonio import algebra_from_dict, parse_scalar
from lieyam.quadratic import QuadraticForm
from lieyam.reps import check_representation
from lieyam.rotabaxter import is_relative_rb
from lieyam.search import (
    CATALOG,
    _grid_solutions,
    _matrices,
    _system,
    catalog_algebra,
    change_basis,
    random_invertible,
    random_valid_pair,
    search_nijenhuis_operators,
    search_quadratic_fixtures,
    search_rb_operators,
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
        assert back.b_arr.tolist() == alg.b_arr.tolist()
        assert back.t_arr.tolist() == alg.t_arr.tolist()


def test_change_basis_identity(a2):
    same = change_basis(a2, Matrix.identity(2))
    assert same.b_arr.tolist() == a2.b_arr.tolist()
    assert same.t_arr.tolist() == a2.t_arr.tolist()


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
    """The stack map X -> the column of sum_k coeffs[e][k] x_k, x = X read
    row by row, on a (k, rows, cols) stack of matrices X, as `_system` takes it."""
    a = Matrix(coeffs, rows * cols).arr
    return lambda x: (x.reshape(x.shape[0], rows * cols) @ a.T).reshape(x.shape[0], len(coeffs), 1)


def _image(fn, x):
    """The image of one matrix under a stack map, as a column."""
    return Matrix.from_array(fn(x.arr.reshape(1, x.rows, x.cols)).reshape(-1, 1))


def _brute_force(fn, rows, cols, values, rhs):
    return [x for x in _matrices(rows, cols, values) if _image(fn, x) == rhs]


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
        system = _system(fn, rows, cols)  # one system matrix for both right-hand sides
        for rhs in (None, _image(fn, point)):
            expected = _brute_force(fn, rows, cols, values, rhs or Matrix.zero(equations, 1))
            assert _grid_solutions(system, rows, cols, values, rhs=rhs) == expected
            assert rhs is None or point in expected


@pytest.mark.parametrize("values", GRIDS)
def test_grid_solutions_inconsistent_and_zero_systems(values):
    """x + y = 0 and x + y = 1 at once has no solution; the zero map keeps
    the whole grid in `_matrices` order, also the one point of a 2 x 0 grid."""
    fn = _system(_linear_map([[1, 1, 0], [1, 1, 0]], 1, 3), 1, 3)
    assert _grid_solutions(fn, 1, 3, values, rhs=Matrix([[0], [1]])) == []
    zero = _system(_linear_map([[0] * 6], 2, 3), 2, 3)
    assert _grid_solutions(zero, 2, 3, values) == list(_matrices(2, 3, values))
    assert _grid_solutions(zero, 2, 3, values, rhs=Matrix([[1]])) == []
    empty = _system(_linear_map([[]], 2, 0), 2, 0)
    assert _grid_solutions(empty, 2, 0, values) == list(_matrices(2, 0, values))


def test_grid_solutions_keep_grid_values():
    """Every returned entry is the grid's own value object, as `_matrices` yields."""
    fn = _system(_linear_map([[1, -1, Fraction(1, 2), 0]], 2, 2), 2, 2)
    for x in _grid_solutions(fn, 2, 2, (1, 0, -1)):
        assert all(type(v) is int for r in x.data for v in r)


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fixture_matrix(data):
    cols = data["cols"]
    return Matrix([[parse_scalar(x) for x in data["entries"][i * cols:(i + 1) * cols]]
                   for i in range(data["rows"])], cols)


def _unit_columns(image, rows, cols):
    """The matrix whose column k lists the entries of the Matrix (or Matrices)
    image(E_k), E_k the k-th unit matrix read row by row: one map at a time."""
    size = rows * cols
    columns = []
    for k in range(size):
        unit = Matrix([[int(i * cols + j == k) for j in range(cols)] for i in range(rows)])
        columns.append([v for m in image(unit) for r in m.data for v in r])
    return Matrix(list(zip(*columns)), size)


def test_stacked_systems_match_unit_columns(a2_adjoint):
    """The three search maps, run once on the stack of unit matrices, give
    the matrices built column by column from Matrix products: X -> T X for
    the Rota-Baxter operators T of the (a2, adjoint) rbn hits, and the
    skew and commutator maps of the committed quadratic fixtures' B and R."""
    ts = {repr(t): t for t, _, _ in search_rbn_triples(a2_adjoint, (-1, 0, 1))}
    assert len(ts) > 1
    m = a2_adjoint.dim_v
    for t in ts.values():
        assert _system(search._left_product(t), m, m) == _unit_columns(lambda x: [t * x], m, m)
    with open(os.path.join(FIXTURES, "quadratic-fixtures.json")) as fh:
        found = json.load(fh)["found"]
    assert found
    for entry in found:
        alg = algebra_from_dict(entry["algebra"])
        bs = QuadraticForm(alg, _fixture_matrix(entry["B"])).b_sharp
        r, d = _fixture_matrix(entry["R"]), alg.dim
        assert _system(search._skew_part(bs), d, d) == \
            _unit_columns(lambda x: [x * bs + (x * bs).transpose()], d, d)
        assert _system(search._commutators(bs, r), d, d) == \
            _unit_columns(lambda x: [bs * x.transpose() - x * bs, x * r - r * x], d, d)


def test_searches_recheck_every_solution(monkeypatch):
    """A solver point that fails its condition raises, it is never used."""
    monkeypatch.setattr(search, "_grid_solutions",
                        lambda fn, rows, cols, values, rhs=None: [Matrix.identity(rows).scale(7)])
    a2 = catalog_algebra("a2")
    with pytest.raises(ConsequenceViolatedError, match="T S = N T"):
        search_rbn_triples(LieYRepPair(a2, adjoint_rep(a2)), (-1, 0, 1), limit=1)
    with pytest.raises(ConsequenceViolatedError, match="R B# skew"):
        search_quadratic_fixtures(names=("abelian2",))


def test_quadratic_search_stops_at_its_limit(monkeypatch):
    """limit=1 returns the first fixture of the full search and stops there,
    with fewer full Rota-Baxter-Nijenhuis checks."""
    calls = []
    check = search.is_rbn
    monkeypatch.setattr(search, "is_rbn", lambda *args: calls.append(1) or check(*args))
    everything = search_quadratic_fixtures()
    unlimited = len(calls)
    calls.clear()
    first = search_quadratic_fixtures(limit=1)
    assert len(first) == 1 and first[0]["name"] == everything[0]["name"]
    assert (first[0]["R"], first[0]["N"]) == (everything[0]["R"], everything[0]["N"])
    assert len(calls) < unlimited


# ---------------------------------------------------------------------------
# the block scans of the nonlinear laws, against the per-candidate predicates


def _rational_basis(name, seed):
    """A catalog algebra in a seeded basis of determinant 2, so that some of
    its structure constants are not integers."""
    alg = catalog_algebra(name)
    p = random_invertible(alg.dim, random.Random(seed)) * Matrix.diag([1] * (alg.dim - 1) + [2])
    moved = change_basis(alg, p)
    assert any(isinstance(x, Fraction) for x in (*moved.b_arr.ravel(), *moved.t_arr.ravel()))
    return moved


def _rb_case(alg, rep):
    pair = LieYRepPair(alg, rep(alg))
    return (lambda values, limit: search_rb_operators(pair, values, limit=limit),
            lambda x: is_relative_rb(pair, x), pair.dim_g, pair.dim_v)


def _nijenhuis_case(alg):
    return (lambda values, limit: search_nijenhuis_operators(alg, values, limit=limit),
            lambda x: is_nijenhuis(alg, x), alg.dim, alg.dim)


def _filtered(holds, rows, cols, values, limit=None):
    hits = []
    for x in _matrices(rows, cols, values):
        if holds(x):
            hits.append(x)
            if len(hits) == limit:
                break
    return hits


SCAN_CASES = {
    # most candidates fail
    "rb-a2-adjoint": lambda: _rb_case(catalog_algebra("a2"), adjoint_rep),
    "rb-sl2-coadjoint": lambda: _rb_case(catalog_algebra("sl2"), coadjoint_rep),
    "nijenhuis-heis3": lambda: _nijenhuis_case(catalog_algebra("heis3")),
    # structure constants with non-integer entries
    "rb-heis3-rational-adjoint": lambda: _rb_case(_rational_basis("heis3", 0), adjoint_rep),
    "rb-so3-rational-coadjoint": lambda: _rb_case(_rational_basis("so3", 1), coadjoint_rep),
    "nijenhuis-sl2-rational": lambda: _nijenhuis_case(_rational_basis("sl2", 0)),
}

# (values, limit) per case: whole small grids, limited walks through larger
# ones, and the one-point grids
SCAN_GRIDS = [(name, values, limit) for name in SCAN_CASES
              for values, limit in (((0, 1), None), ((1, 0), 5), ((2,), None), ((0,), None))]
SCAN_GRIDS += [("rb-a2-adjoint", (-2, -1, 0, 1, 2), None), ("rb-a2-adjoint", (1, -1, 0), 5),
               ("rb-sl2-coadjoint", (-1, 0, 1), 12), ("nijenhuis-heis3", (-1, 0, 1), 12)]


@pytest.mark.parametrize("name, values, limit", SCAN_GRIDS)
def test_block_scan_matches_per_candidate_filter(name, values, limit):
    """The batched scans return exactly the grid matrices the per-candidate
    predicates accept, in grid order, up to the limit."""
    scan, holds, rows, cols = SCAN_CASES[name]()
    assert scan(values, limit) == _filtered(holds, rows, cols, values, limit)


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 7, 8, 15, 16])
def test_block_scan_limit_at_block_edges(limit):
    """Every candidate passes on abelian2 (with a 2-dim zero rep), so the
    limit-th hit is candidate number `limit`, the first or the last of a
    block of 1, 2, 4, 8, 16 candidates; on A2 the hits are sparse."""
    abelian = catalog_algebra("abelian2")
    cases = [_rb_case(abelian, lambda alg: Representation.zero(2, 2)), _nijenhuis_case(abelian),
             _rb_case(catalog_algebra("a2"), coadjoint_rep)]
    values = (-2, -1, 0, 1, 2)
    for scan, holds, rows, cols in cases:
        assert scan(values, limit) == _filtered(holds, rows, cols, values, limit)
    assert cases[0][0](values, limit) == list(_matrices(2, 2, values))[:limit]


def _recording_laws(monkeypatch):
    """The (arity, candidates) of every Rota-Baxter or Nijenhuis law call
    the scans make."""
    seen = []

    def recording(law, arity_and_stack):
        return lambda *args: seen.append(arity_and_stack(*args)) or law(*args)

    for name, arity_and_stack in (("_rb_residual", lambda pair, stack, arity: (arity, len(stack))),
                                  ("_nijenhuis_residual", lambda br, maps, slots: (len(slots), len(maps[G])))):
        monkeypatch.setattr(search, name, recording(getattr(search, name), arity_and_stack))
    return seen


def test_block_scan_grows_blocks_and_tests_ternary_on_survivors(monkeypatch):
    """Without a limit every block holds SCAN_BLOCK candidates from the
    first one; under a limit blocks double from one candidate up to
    SCAN_BLOCK and the limit stops the walk; the ternary identity sees only
    the binary survivors."""
    seen = _recording_laws(monkeypatch)
    monkeypatch.setattr(search, "SCAN_BLOCK", 4)
    abelian = LieYRepPair(catalog_algebra("abelian2"), Representation.zero(2, 1))
    assert len(search_rb_operators(abelian, (0, 1), limit=3)) == 3
    assert seen == [(2, 1), (3, 1), (2, 2), (3, 2)]
    seen.clear()
    assert len(search_rb_operators(abelian, (0, 1))) == 4
    assert seen == [(2, 4), (3, 4)]
    seen.clear()
    a2 = LieYRepPair(catalog_algebra("a2"), adjoint_rep(catalog_algebra("a2")))
    hits = search_rb_operators(a2, (-1, 0, 1))
    assert [n for arity, n in seen if arity == 2] == [4] * 20 + [1]
    assert sum(n for arity, n in seen if arity == 3) < 81 and len(hits) == 15
    seen.clear()
    assert search_rb_operators(a2, (-1, 0, 1), limit=3) == hits[:3]
    assert [n for arity, n in seen if arity == 2][:3] == [1, 2, 4]


@pytest.mark.parametrize("case", [
    lambda: _rb_case(catalog_algebra("a2"), adjoint_rep),
    lambda: _rb_case(catalog_algebra("a2"), coadjoint_rep),
    lambda: _rb_case(catalog_algebra("abelian2"), lambda alg: Representation.zero(2, 2)),
    lambda: _nijenhuis_case(catalog_algebra("a2")),
], ids=["rb-a2-adjoint", "rb-a2-coadjoint", "rb-abelian2-zero", "nijenhuis-a2"])
def test_unlimited_scan_across_block_edges(monkeypatch, case):
    """With SCAN_BLOCK = 7 the 81 candidates of a 3^4 grid come in eleven
    blocks of 7 and one of 4, edges that no doubling reaches; the hits are
    the per-candidate filter's, in grid order."""
    seen = _recording_laws(monkeypatch)
    monkeypatch.setattr(search, "SCAN_BLOCK", 7)
    scan, holds, rows, cols = case()
    values = (-1, 0, 1)
    assert scan(values, None) == _filtered(holds, rows, cols, values)
    assert [n for arity, n in seen if arity == 2] == [7] * 11 + [4]

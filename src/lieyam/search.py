"""Fixture construction: a catalog of small algebras, deterministic grid
searches for operators, and a randomized corpus of valid pairs.

The grid searches are deterministic (fixed iteration order) so that the
fixtures they find can be committed together with their verification
transcripts and reproduced exactly.  They are test utilities, exposed
through the `search` CLI subcommand, not a general solver.

The nonlinear laws (Rota-Baxter, Nijenhuis) are tested on every grid
point, one block of candidates at a time (`_scan`): a block is stacked
into one exact array with a leading batch axis, the law's
contractions (algebra._homomorphism_residual, through
rotabaxter._rb_residual and algebra._nijenhuis_residual) run on the whole stack, and
report.vanishing says which candidates pass.  The binary identity is
evaluated on the whole block and the ternary one on its survivors only.
Blocks follow `_matrices` order, so the hits come in grid order.  A
scan with no limit walks the grid in blocks of SCAN_BLOCK candidates
from the first one; under a limit the blocks grow from one candidate,
doubling up to SCAN_BLOCK, so that a search with a small limit stops
after little more work than its last hit needs.

The linear conditions (R B# skew, B# N^T = N B#, N R = R N, T S = N T)
are not tested on the grid: `_system` builds the matrix of each (once
per T for T S = N T) from one evaluation of the map on the stack of all
unit matrices, and `_grid_solutions` takes its general solution
x + lambda K from linalg.solve and returns its points on the grid, in
grid order.  Every solution is re-checked by the condition's own
predicate before use.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product
from math import prod

import numpy as np

from .algebra import G, LieYamagutiAlgebra, _nijenhuis_residual
from .deform import _append_s_conditions
from .errors import ConsequenceViolatedError
from .linalg import Matrix, exact_array, solve
from .quadratic import QuadraticForm, is_invariant_form, is_skew_endomorphism
from .report import VerificationReport, vanishing
from .reps import LieYRepPair, Representation, adjoint_rep, change_basis, coadjoint_rep
from .rotabaxter import _rb_residual, append_twist_conditions, is_rbn, is_relative_rb


def _antisym_table(n, entries):
    """Binary constants with [e_i, e_j] = sum_k c_k e_k for entries {(i, j): {k: c_k}}."""
    out = np.zeros((n, n, n), dtype=object)
    for (i, j), comp in entries.items():
        for k, c in comp.items():
            out[i, j, k], out[j, i, k] = c, -c
    return out


def catalog_algebra(name: str) -> LieYamagutiAlgebra:
    """Small named algebras used as fixture seeds."""
    if name.startswith("abelian"):
        return LieYamagutiAlgebra.abelian(int(name[len("abelian"):]))
    if name == "a2":
        # [e1,e2] = e1, <<e1,e2,e2>> = e1
        ternary = np.zeros((2,) * 4, dtype=object)
        ternary[0, 1, 1, 0], ternary[1, 0, 1, 0] = 1, -1
        return LieYamagutiAlgebra(2, _antisym_table(2, {(0, 1): {0: 1}}), ternary)
    if name == "a2lts":
        return LieYamagutiAlgebra.from_triple_system(2, catalog_algebra("a2").t_arr)
    if name == "heis3":
        return LieYamagutiAlgebra.from_lie_algebra(3, _antisym_table(3, {(0, 1): {2: 1}}))
    if name == "sl2":
        return LieYamagutiAlgebra.from_lie_algebra(
            3, _antisym_table(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
        )
    if name == "so3":
        return LieYamagutiAlgebra.from_lie_algebra(
            3, _antisym_table(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
        )
    if name == "so3lts":
        return LieYamagutiAlgebra.from_triple_system(3, catalog_algebra("so3").t_arr)
    if name == "sl2lts":
        return LieYamagutiAlgebra.from_triple_system(3, catalog_algebra("sl2").t_arr)
    raise KeyError(f"unknown catalog algebra {name!r}")


CATALOG = ("a2", "a2lts", "abelian2", "abelian3", "heis3", "sl2", "so3", "so3lts", "sl2lts")

#: invariant forms that go with the catalog entries (checked, not assumed)
CATALOG_FORMS = {
    "abelian2": Matrix.identity(2),
    "abelian3": Matrix.diag([Fraction(1), Fraction(-1), Fraction(2)]),
    "so3": Matrix.identity(3),
    "so3lts": Matrix.identity(3),
    "sl2": Matrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]]),
    "sl2lts": Matrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]]),
}


def _matrices(rows, cols, values):
    for entries in product(values, repeat=rows * cols):
        yield Matrix([entries[i * cols:(i + 1) * cols] for i in range(rows)])


#: Most candidates a grid scan stacks into one array.
SCAN_BLOCK = 1024


def _scan(rows, cols, values, residual, first, limit):
    """The rows x cols grid matrices that satisfy a law, in `_matrices` order.

    residual(stack, arity) gives the blocks of first basis indices
    (report.vanishing) of the law's identity of that arity, 2 or 3, on a
    stack of candidates; the first index runs over range(first).  The grid
    is walked in blocks of SCAN_BLOCK candidates, or, when a `limit` can
    stop the walk early, of 1, 2, 4, ... SCAN_BLOCK; the binary identity
    runs on the whole block and the ternary one on its survivors.  At most
    `limit` hits are returned.
    """
    hits = []
    keys = product(range(len(values)), repeat=rows * cols)
    grid = exact_array(values, (len(values),))
    size = SCAN_BLOCK if limit is None else 1
    while block := list(islice(keys, size)):
        alive = np.arange(len(block))
        stack = grid[np.array(block, dtype=np.intp).reshape(len(block), rows, cols)]
        for arity in (2, 3):
            if alive.size:
                alive = alive[vanishing(residual(stack[alive], arity), (first,) * arity, alive.size)]
        for k in alive:
            hits.append(Matrix.from_array(stack[k]))
            if limit is not None and len(hits) >= limit:
                return hits
        size = min(2 * size, SCAN_BLOCK)
    return hits


def _system(fn, rows, cols):
    """The matrix of a linear map on rows x cols matrices: column k is the
    image of the k-th unit matrix (row by row), flattened.

    fn takes a stack of matrices, an exact array of shape (k, rows, cols),
    and returns the stack of their images, k first (a map written with @
    and .mT keeps the batch axis); it runs once, on the stack of all unit
    matrices.  The image size is read off its shape, so a grid with no
    entries still gives the 0 columns of its equations."""
    size = rows * cols
    images = fn(Matrix.identity(size).arr.reshape(size, rows, cols))
    return Matrix.from_array(images.reshape(size, prod(images.shape[1:])).T)


# the linear conditions of the searches, as maps of a stack of matrices X

def _left_product(t):
    """X -> T X: the map of T S = N T in S."""
    return lambda x: t.arr @ x


def _skew_part(bs):
    """X -> X B# + (X B#)^T, zero exactly when X B# is skew."""
    return lambda x: x @ bs.arr + (x @ bs.arr).mT


def _commutators(bs, r):
    """X -> [B# X^T - X B#; X R - R X], zero exactly when B# X^T = X B# and
    X R = R X (np.stack puts the two blocks first, the transpose puts each
    X's pair of blocks back under its batch index)."""
    return lambda x: np.stack([bs.arr @ x.mT - x @ bs.arr, x @ r.arr - r.arr @ x]).transpose(1, 0, 2, 3)


def _grid_solutions(system, rows, cols, values, rhs=None):
    """The rows x cols grid matrices X with system . x = rhs, in `_matrices`
    order, x the entries of X row by row.

    `system` is the `_system` matrix of a linear map; `values` are
    distinct; `rhs` defaults to zero.  linalg.solve gives x0 and the
    kernel rows K; the points x0 + lambda K, lambda over the grid of the
    free coordinates, are kept when every coordinate is a grid value.  An
    inconsistent system has no solutions; k free coordinates give
    len(values)**k candidates, the whole grid only when the map is zero.
    """
    rhs = Matrix.zero(system.rows, 1) if rhs is None else Matrix.from_array(rhs.arr.reshape(-1, 1))
    solution = solve(system, rhs)
    if solution is None:
        return []
    x, kernel = solution
    grid = exact_array(values, (len(values),))
    choices = np.array(list(product(range(len(values)), repeat=kernel.rows)), dtype=np.intp)
    points = grid[choices.reshape(len(values) ** kernel.rows, kernel.rows)] @ kernel.arr + x.arr.T
    keys = np.full(points.shape, -1)
    for i, v in enumerate(values):
        keys[points == v] = i
    keys = sorted(keys[(keys >= 0).all(axis=1)].tolist())  # index tuples into `values`: the grid's order
    return [Matrix.from_array(grid[np.array(key, dtype=np.intp).reshape(rows, cols)]) for key in keys]


def _confirm(holds, x, condition):
    """Raise unless the solver's point x passed the condition's own predicate."""
    if not holds:
        raise ConsequenceViolatedError(f"grid solution {x!r} fails {condition}")


def search_rb_operators(pair: LieYRepPair, values=(-2, -1, 0, 1, 2), limit=None):
    """All V -> g maps over the value grid passing the Rota-Baxter identities."""
    return _scan(pair.dim_g, pair.dim_v, values, lambda stack, arity: _rb_residual(pair, stack, arity),
                 pair.dim_v, limit)


def search_nijenhuis_operators(alg: LieYamagutiAlgebra, values=(-2, -1, 0, 1, 2), limit=None):
    """All maps g -> g over the value grid passing the Nijenhuis law."""
    br = alg.brackets
    return _scan(alg.dim, alg.dim, values,
                 lambda stack, arity: _nijenhuis_residual(br, {G: stack}, (G,) * arity), alg.dim, limit)


def search_rbn_triples(pair: LieYRepPair, values=(-2, -1, 0, 1, 2), limit=None):
    """Triples (T, S, N) with T and N nonzero over the grid passing the full
    triple conditions.

    T and N come from the Rota-Baxter and Nijenhuis grid scans, which
    have verified them.  For each nonzero pair the S candidates are the
    grid solutions of the linear condition T S = N T, in grid order, its
    matrix built once per T; the first S that passes the rest of the
    triple conditions, those on S (deform._append_s_conditions) and then
    the twist conditions (rotabaxter.append_twist_conditions), is the hit
    for that (T, N).  The sub-adjacent algebra V^T is built, and its theorems
    asserted, once per T: by the first S of that T to reach the twist
    conditions.
    """
    hits = []
    rbs = search_rb_operators(pair, values)
    nijs = search_nijenhuis_operators(pair.algebra, values)
    m = pair.dim_v
    for t in rbs:
        if t.is_zero():
            continue
        ts = _system(_left_product(t), m, m)
        sub = None
        for n in nijs:
            if n.is_zero():
                continue
            nt = n * t
            for s in _grid_solutions(ts, m, m, values, rhs=nt):
                _confirm(nt == t * s, s, "T S = N T")
                report = _append_s_conditions(VerificationReport(subject="triple on verified (T, N)"),
                                              pair, n, s)
                if report.passed:
                    sub = append_twist_conditions(report, pair, t, s, n, sub)
                if report.passed:
                    hits.append((t, s, n))
                    if limit is not None and len(hits) >= limit:
                        return hits
                    break
    return hits


def search_quadratic_fixtures(names=("abelian2", "abelian3", "so3lts", "sl2lts"),
                              values=(-1, 0, 1), limit=None):
    """Quadratic algebras with skew Rota-Baxter operators and compatible N.

    For each catalog algebra with a validated invariant form, take the
    nonzero grid solutions R of the linear condition "R B# is skew" that
    are Rota-Baxter operators, and pair each with the first nonzero grid
    solution N of B# N^T = N B# and N R = R N that passes the full
    Rota-Baxter-Nijenhuis conditions.  Returns a list of dicts (name,
    algebra, form, R, N), at most two per algebra, and stops after `limit`
    of them.
    """
    fixtures = []
    for name in names:
        alg = catalog_algebra(name)
        b = CATALOG_FORMS.get(name)
        if b is None or not is_invariant_form(alg, b):
            continue
        qf = QuadraticForm(alg, b)
        pair = LieYRepPair(alg, adjoint_rep(alg), validate=False)
        bs = qf.b_sharp
        n_found = 0
        skew = _system(_skew_part(bs), alg.dim, alg.dim)
        for rmap in _grid_solutions(skew, alg.dim, alg.dim, values):
            if rmap.is_zero():
                continue
            _confirm(is_skew_endomorphism(qf, rmap), rmap, "R B# skew")
            if not is_relative_rb(pair, rmap):
                continue
            match = None
            linear = _grid_solutions(_system(_commutators(bs, rmap), alg.dim, alg.dim), alg.dim, alg.dim, values)
            for nmap in linear:
                if nmap.is_zero():
                    continue
                _confirm(bs * nmap.transpose() == nmap * bs and nmap * rmap == rmap * nmap, nmap,
                         "B# N^T = N B# and N R = R N")
                if is_rbn(pair, rmap, nmap, nmap):
                    match = nmap
                    break
            if match is None:
                continue
            fixtures.append({"name": name, "algebra": alg, "form": b, "R": rmap, "N": match})
            if limit is not None and len(fixtures) >= limit:
                return fixtures
            n_found += 1
            if n_found == 2:
                break
    return fixtures


# ---------------------------------------------------------------------------
# randomized corpus of valid pairs


def random_invertible(dim, rng, values=(-2, -1, 0, 1, 2)):
    """Random invertible integer matrix (product of elementary operations)."""
    mat = np.identity(dim, dtype=object)
    for _ in range(3 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([v for v in values if v])
        mat[i] = mat[i] + c * mat[j]
    return Matrix.from_array(mat)


RANDOM_SEEDS = ("abelian2", "abelian3", "a2", "a2lts", "heis3", "sl2", "so3", "so3lts", "sl2lts")


def random_valid_pair(rng: random.Random, max_dim=3) -> LieYRepPair:
    """A random valid pair: catalog algebra, random basis, standard rep.

    Basis changes preserve validity exactly, so the corpus is both random
    and guaranteed valid; the pair is still fully re-validated.
    """
    name = rng.choice([n for n in RANDOM_SEEDS if catalog_algebra(n).dim <= max_dim])
    alg = change_basis(catalog_algebra(name), random_invertible(catalog_algebra(name).dim, rng))
    kind = rng.choice(("adjoint", "coadjoint", "zero"))
    if kind == "adjoint":
        rep = adjoint_rep(alg)
    elif kind == "coadjoint":
        rep = coadjoint_rep(alg)
    else:
        rep = Representation.zero(alg.dim, rng.randint(1, 2))
    return LieYRepPair(alg, rep, validate=True)

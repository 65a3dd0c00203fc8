"""Fixture construction: a catalog of small algebras, deterministic grid
searches for operators, and a randomized corpus of valid pairs.

The grid searches are deterministic (fixed iteration order) so that the
fixtures they find can be committed together with their verification
transcripts and reproduced exactly.  They are test utilities, exposed
through the `search` CLI subcommand, not a general solver.

The nonlinear laws (Rota-Baxter, Nijenhuis) are tested on every grid
point, one block of candidates at a time (`_scan`): a block is stacked
into one exact array with a leading batch axis, the law's
contractions (written once, in rotabaxter._rb_residual and
algebra._nijenhuis_residual) run on the whole stack, and
report.vanishing says which candidates pass.  The binary identity is
evaluated on the whole block and the ternary one on its survivors only.
Blocks follow `_matrices` order and grow from one candidate, doubling up
to SCAN_BLOCK, so the hits come in grid order and a search with a small
limit stops after little more work than its last hit needs.

The linear conditions (R B# skew, B# N^T = N B#, N R = R N, T S = N T)
are not tested on the grid: `_grid_solutions` solves each system exactly
and returns only its solutions that lie on the grid, in grid order.
Every solution is re-checked by the condition's own predicate before use.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product

import numpy as np

from .algebra import LieYamagutiAlgebra, _nijenhuis_residual
from .errors import ConsequenceViolatedError, DimMismatchError
from .linalg import Matrix, exact_array
from .quadratic import QuadraticForm, is_invariant_form, is_rb_nijenhuis, is_skew_endomorphism
from .report import vanishing
from .reps import LieYRepPair, Representation, adjoint_rep, coadjoint_rep
from .rotabaxter import _rb_residual, _rbn_report, is_relative_rb


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
    stack of candidates; the first index runs over range(first).  The grid is walked in blocks of
    1, 2, 4, ... SCAN_BLOCK candidates; the binary identity runs on the
    whole block and the ternary one on its survivors.  At most `limit`
    hits are returned.
    """
    hits = []
    keys = product(range(len(values)), repeat=rows * cols)
    grid = exact_array(values, (len(values),))
    size = 1
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


class _LinearSystem:
    """A linear fn on rows x cols matrices, reduced once for `_grid_solutions`.

    The images of the unit matrices are the columns of the constraint
    matrix A, and `Matrix._echelon_with_identity` reduces [A | I] once.  A
    reduced row (a | c) is a combination of the equations fn(X) = rhs, so
    a . x = c . rhs: a row with its pivot in A solves that pivot
    coordinate, and a row with a = 0 is a condition on rhs alone.  The
    reduction serves every rhs.
    """

    def __init__(self, fn, rows, cols):
        size = rows * cols
        units = Matrix.identity(size).arr.reshape(size, rows, cols)
        images = [fn(Matrix.from_array(u)).arr.ravel() for u in units]
        system = Matrix.from_array(np.stack(images).T) if images else \
            Matrix.zero(fn(Matrix.zero(rows, cols)).arr.size, 0)
        self.pivots = system._echelon_with_identity()


def _grid_solutions(fn, rows, cols, values, rhs=None):
    """The rows x cols grid matrices X with fn(X) = rhs, in `_matrices` order.

    `fn` is linear, or a `_LinearSystem` of it to reuse one reduction for
    many rhs; `values` are distinct; `rhs` defaults to zero.  The free
    coordinates range over `values`, each pivot coordinate is solved
    exactly, and a point is kept when every coordinate is a grid value.
    An inconsistent system has no solutions; k free coordinates give
    len(values)**k candidates, the whole grid only when fn is zero.
    """
    system = fn if isinstance(fn, _LinearSystem) else _LinearSystem(fn, rows, cols)
    size = rows * cols
    target = None if rhs is None else rhs.arr.ravel().tolist()

    def combine(row):  # c . rhs for the reduced row (a | c)
        return 0 if target is None else sum(c * target[k - size] for k, c in row.items() if k >= size)

    if any(combine(row) for p, row in system.pivots.items() if p >= size):
        return []
    free = [k for k in range(size) if k not in system.pivots]
    # pivot p of row lead*x_p + sum a*x_k = c.rhs is x_p = (c.rhs - sum a*x_k) / lead
    solve = [(p, row[p], combine(row), [(k, a) for k, a in row.items() if k < size and k != p])
             for p, row in system.pivots.items() if p < size]
    index = {v: i for i, v in enumerate(values)}
    keys = []  # index tuples into `values`, whose order is the grid's
    for choice in product(range(len(values)), repeat=len(free)):
        key = [0] * size
        for k, i in zip(free, choice):
            key[k] = i
        for p, lead, c, terms in solve:
            i = index.get(Fraction(c - sum(a * values[key[k]] for k, a in terms), lead))
            if i is None:
                break
            key[p] = i
        else:
            keys.append(key)
    keys.sort()
    grid = exact_array(values, (len(values),))
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
    return _scan(alg.dim, alg.dim, values, lambda stack, arity: _nijenhuis_residual(alg, stack, arity),
                 alg.dim, limit)


def search_rbn_triples(pair: LieYRepPair, values=(-2, -1, 0, 1, 2), limit=None,
                       require_nonzero=True):
    """Triples (T, S, N) over the grid passing the full triple conditions.

    T and N come from the Rota-Baxter and Nijenhuis grid scans, which
    have verified them.  For each nonzero pair the S candidates are the
    grid solutions of the linear condition T S = N T, in grid order, its
    system reduced once per T; the first S that passes the rest of the
    triple conditions (those on S and the twist conditions) is the hit for
    that (T, N).  The sub-adjacent algebra V^T is built, and its theorems
    asserted, once per T: by the first S of that T to reach the twist
    conditions.
    """
    hits = []
    rbs = search_rb_operators(pair, values)
    nijs = search_nijenhuis_operators(pair.algebra, values)
    m = pair.dim_v
    for t in rbs:
        if require_nonzero and t.is_zero():
            continue
        ts = _LinearSystem(lambda x: t * x, m, m)
        sub = None
        for n in nijs:
            if require_nonzero and n.is_zero():
                continue
            nt = n * t
            for s in _grid_solutions(ts, m, m, values, rhs=nt):
                _confirm(nt == t * s, s, "T S = N T")
                report, built = _rbn_report(pair, t, s, n, verified=True, sub=sub)
                sub = sub or built
                if report.passed:
                    hits.append((t, s, n))
                    if limit is not None and len(hits) >= limit:
                        return hits
                    break
    return hits


def search_quadratic_fixtures(names=("abelian2", "abelian3", "so3lts", "sl2lts"),
                              values=(-1, 0, 1), per_algebra=2):
    """Quadratic algebras with skew Rota-Baxter operators and compatible N.

    For each catalog algebra with a validated invariant form, take the
    nonzero grid solutions R of the linear condition "R B# is skew" that
    are Rota-Baxter operators, and pair each with the first nonzero grid
    solution N of B# N^T = N B# and N R = R N that passes the full
    Rota-Baxter-Nijenhuis conditions.  Returns a list of dicts (name,
    algebra, form, R, N).
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
        for rmap in _grid_solutions(lambda x: x * bs + (x * bs).transpose(), alg.dim, alg.dim, values):
            if rmap.is_zero():
                continue
            _confirm(is_skew_endomorphism(qf, rmap), rmap, "R B# skew")
            if not is_relative_rb(pair, rmap):
                continue
            match = None
            linear = _grid_solutions(
                lambda x: Matrix.from_array(np.stack([(bs * x.transpose() - x * bs).arr,
                                                      (x * rmap - rmap * x).arr]).reshape(-1, alg.dim)),
                alg.dim, alg.dim, values)
            for nmap in linear:
                if nmap.is_zero():
                    continue
                _confirm(bs * nmap.transpose() == nmap * bs and nmap * rmap == rmap * nmap, nmap,
                         "B# N^T = N B# and N R = R N")
                if is_rb_nijenhuis(alg, rmap, nmap):
                    match = nmap
                    break
            if match is None:
                continue
            fixtures.append({"name": name, "algebra": alg, "form": b, "R": rmap, "N": match})
            n_found += 1
            if n_found >= per_algebra:
                break
    return fixtures


# ---------------------------------------------------------------------------
# randomized corpus of valid pairs


def change_basis(alg: LieYamagutiAlgebra, p: Matrix) -> LieYamagutiAlgebra:
    """Transport the structure constants along an invertible map P: the
    constants X[..., k] become P^-1 X(P., ..., P.), each input slot
    contracted with P and the output slot with P^-1."""
    if p.rows != alg.dim or p.cols != alg.dim:
        raise DimMismatchError("basis change must be square of the algebra dimension")
    pt, pinv = p.arr, p.invert().arr

    def transport(x):
        # contract the first axis and append the new one: after every
        # slot has had its turn, the slots are back in their order
        ndim = len(x.shape)
        for axis in range(ndim):
            x = np.einsum("a...,ai->...i", x, pt if axis < ndim - 1 else pinv.T)
        return x

    return LieYamagutiAlgebra(alg.dim, transport(alg.b_arr), transport(alg.t_arr), alg.basis_names)


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

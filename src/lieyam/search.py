"""Fixture construction: a catalog of small algebras, deterministic grid
searches for operators, and a randomized corpus of valid pairs.

The grid searches are deterministic (fixed iteration order) so that the
fixtures they find can be committed together with their verification
transcripts and reproduced exactly.  They are test utilities, exposed
through the `search` CLI subcommand, not a general solver.

The nonlinear laws (Rota-Baxter, Nijenhuis) are tested on every grid
point.  The linear conditions (R B# skew, B# N^T = N B#, N R = R N,
T S = N T) are not: `_grid_solutions` solves each system exactly and
returns only its solutions that lie on the grid, in grid order.  Every
solution is re-checked by the condition's own predicate before use.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .algebra import LieYamagutiAlgebra, is_nijenhuis
from .errors import ConsequenceViolatedError, DimMismatchError
from .linalg import Matrix, _echelon, vzero
from .quadratic import QuadraticForm, is_invariant_form, is_rb_nijenhuis, is_skew_endomorphism
from .reps import LieYRepPair, Representation, adjoint_rep, coadjoint_rep
from .rotabaxter import is_rbn, is_relative_rb


def _antisym_table(n, entries):
    out = [[vzero(n) for _ in range(n)] for _ in range(n)]
    for (i, j), comp in entries.items():
        vec = [Fraction(0)] * n
        for k, c in comp.items():
            vec[k] = Fraction(c)
        out[i][j] = tuple(vec)
        out[j][i] = tuple(-x for x in vec)
    return out


def catalog_algebra(name: str) -> LieYamagutiAlgebra:
    """Small named algebras used as fixture seeds."""
    if name.startswith("abelian"):
        return LieYamagutiAlgebra.abelian(int(name[len("abelian"):]))
    if name == "a2":
        # [e1,e2] = e1, <<e1,e2,e2>> = e1
        n = 2
        binary = _antisym_table(n, {(0, 1): {0: 1}})
        ternary = [[[vzero(n)] * n for _ in range(n)] for _ in range(n)]
        ternary[0][1] = [vzero(n), (Fraction(1), Fraction(0))]
        ternary[1][0] = [vzero(n), (Fraction(-1), Fraction(0))]
        return LieYamagutiAlgebra(n, binary, ternary)
    if name == "a2lts":
        return LieYamagutiAlgebra.from_triple_system(2, catalog_algebra("a2").ternary_tensor)
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
        return LieYamagutiAlgebra.from_triple_system(3, catalog_algebra("so3").ternary_tensor)
    if name == "sl2lts":
        return LieYamagutiAlgebra.from_triple_system(3, catalog_algebra("sl2").ternary_tensor)
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


def _grid_solutions(fn, rows, cols, values, rhs=None):
    """The rows x cols grid matrices X with fn(X) = rhs, in `_matrices` order.

    `fn` is linear and `values` are distinct; `rhs` defaults to zero.  The
    images of the unit matrices, with rhs as one more column, form the
    constraint matrix, which `_echelon` reduces once.  The free
    coordinates range over `values`, each pivot coordinate is solved
    exactly, and a point is kept when every coordinate is a grid value.
    An inconsistent system has no solutions; k free coordinates give
    len(values)**k candidates, the whole grid only when fn is zero.
    """
    size = rows * cols

    def flat(x):
        return [v for r in x.data for v in r]

    images = [flat(fn(Matrix([[int(i * cols + j == k) for j in range(cols)] for i in range(rows)])))
              for k in range(size)]
    target = flat(rhs if rhs is not None else fn(Matrix.zero(rows, cols)))
    system = Matrix([[m[e] for m in images] + [target[e]] for e in range(len(target))], size + 1)
    pivots = _echelon(system._integer_rows())
    if size in pivots:
        return []
    free = [k for k in range(size) if k not in pivots]
    # pivot p of row lead*x_p + sum a*x_k = c is x_p = (c - sum a*x_k) / lead
    solve = [(p, row[p], row.get(size, 0), [(k, a) for k, a in row.items() if k not in (p, size)])
             for p, row in pivots.items()]
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
    return [Matrix([[values[i] for i in key[r * cols:(r + 1) * cols]] for r in range(rows)])
            for key in keys]


def _confirm(holds, x, condition):
    """Raise unless the solver's point x passed the condition's own predicate."""
    if not holds:
        raise ConsequenceViolatedError(f"grid solution {x!r} fails {condition}")


def search_rb_operators(pair: LieYRepPair, values=(-2, -1, 0, 1, 2), limit=None):
    """All V -> g maps over the value grid passing the Rota-Baxter identities."""
    hits = []
    for t in _matrices(pair.dim_g, pair.dim_v, values):
        if is_relative_rb(pair, t):
            hits.append(t)
            if limit is not None and len(hits) >= limit:
                break
    return hits


def search_nijenhuis_operators(alg: LieYamagutiAlgebra, values=(-2, -1, 0, 1, 2), limit=None):
    hits = []
    for n in _matrices(alg.dim, alg.dim, values):
        if is_nijenhuis(alg, n):
            hits.append(n)
            if limit is not None and len(hits) >= limit:
                break
    return hits


def search_rbn_triples(pair: LieYRepPair, values=(-2, -1, 0, 1, 2), limit=None,
                       require_nonzero=True):
    """Triples (T, S, N) over the grid passing the full triple conditions.

    T and N come from the Rota-Baxter and Nijenhuis grid scans.  For each
    nonzero pair the S candidates are the grid solutions of the linear
    condition T S = N T, in grid order; the first that passes the full
    triple conditions is the hit for that (T, N).
    """
    hits = []
    rbs = search_rb_operators(pair, values)
    nijs = search_nijenhuis_operators(pair.algebra, values)
    for t in rbs:
        if require_nonzero and t.is_zero():
            continue
        for n in nijs:
            if require_nonzero and n.is_zero():
                continue
            nt = n * t
            for s in _grid_solutions(lambda x: t * x, pair.dim_v, pair.dim_v, values, rhs=nt):
                _confirm(nt == t * s, s, "T S = N T")
                if is_rbn(pair, t, s, n):
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
                lambda x: Matrix((bs * x.transpose() - x * bs).data + (x * rmap - rmap * x).data),
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
    """Transport the structure constants along an invertible map."""
    if p.rows != alg.dim or p.cols != alg.dim:
        raise DimMismatchError("basis change must be square of the algebra dimension")
    pinv = p.invert()
    n = alg.dim
    cols = [p.col(i) for i in range(n)]
    binary = [[pinv.apply(alg.bracket(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    ternary = [
        [
            [pinv.apply(alg.triple(cols[i], cols[j], cols[k])) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return LieYamagutiAlgebra(n, binary, ternary, alg.basis_names)


def random_invertible(dim, rng, values=(-2, -1, 0, 1, 2)):
    """Random invertible integer matrix (product of elementary operations)."""
    mat = Matrix.identity(dim)
    for _ in range(3 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([v for v in values if v])
        rows = [list(r) for r in mat.data]
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        mat = Matrix(rows)
    return mat


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

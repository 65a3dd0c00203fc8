"""Cohomology complex of an algebra-with-representation pair.

Cochains of degree n+1 >= 2 have three components:

* comp1 (f1, g1): g-valued maps on wedge powers of g (a Yamaguti cochain
  for the adjoint coefficients);
* comp2 (f2, g2): f2 on (wedge^2 g)^(n-1) x (g^V) -> V with the mixed
  slot last, g2 on (wedge^2 g)^n x V -> V;
* comp3: families f3^(i) (i = 1..n-1) and g3^(j) (j = 1..n) with the
  mixed g^V slot at position i resp. j.

Degree 1 is a pair of square matrices (one on g, one on V).

A mixed slot holds an element of g^V, indexed by (basis of g) x (basis
of V); the element e_x ^ v_beta has mixed index x*dim(V) + beta.

The coboundary has two implementations:

* the *lifted* path (reference): embed into the Yamaguti complex of the
  semidirect product with adjoint coefficients, apply its coboundary,
  and project back, i.e. P delta_E L.  The embedding L of each degree is
  one signed index map (_IndexMap): pair coordinate j lifts to a single
  semidirect coordinate home[j] with coefficient 1, and the g2 block
  (c2g) is placed a second time, with signs +1 and -1, at home
  coordinates of the last g3 block, where the two overlap.  lift
  scatters through the map and project gathers the home coordinates
  and subtracts the overlaps.  A semidirect cochain lies in the lifted
  subspace exactly when it vanishes off the home coordinates; project
  checks that, and raises NotInSubcomplexError with the first offending
  entry as witness otherwise.  The coboundary is the semidirect
  product's term table (yamaguti._Terms): applied term by term to one
  lifted cochain (pair_delta_lifted), or, for the whole matrix, its
  (row, column, value) triples composed with L on the right, checked on
  every column at once (the witness names the lowest offending column),
  summed on the home rows and unmixed by P (pair_delta_matrix).  The
  semidirect product, its term table and the index maps are built once
  per pair and kept on it.
* the *direct* path: closed formulas at degrees 1 and 2, written out
  component by component.  Published versions of these formulas leave
  several index conventions ambiguous; the expansions implemented here
  were fixed against the lifted path, and the two paths are asserted to
  agree entry-for-entry in the test suite.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import (
    DegreeCapExceededError,
    DimMismatchError,
    NotInSubcomplexError,
    UnsupportedDegreeError,
)
from .linalg import Matrix, vadd, vneg, vscale, vsub, vzero
from .reps import LieYRepPair, _assert_adjoint_d, adjoint_rep
from .scalars import is_zero
from .yamaguti import (
    YamagutiCochain,
    _apply,
    _assemble,
    _flat,
    _terms,
    cochain_dim,
    wedge_dim,
    wedge_index_map,
    wedge_pairs,
)

DEFAULT_PAIR_CAP = 3


def _unit_v(m, b):
    return tuple(1 if i == b else 0 for i in range(m))


def _block_shapes(degree, n, m):
    """Ordered (name, shape) list of the storage blocks at a given degree."""
    if degree == 1:
        return [("f1", (n, n)), ("f2", (m, m))]
    k = degree - 1
    w = wedge_dim(n)
    mx = n * m
    blocks = [
        ("c1f", (w,) * k + (n,)),
        ("c1g", (w,) * k + (n, n)),
        ("c2f", (w,) * (k - 1) + (mx, m)),
        ("c2g", (w,) * k + (m, m)),
    ]
    for i in range(1, k):
        blocks.append((f"c3f{i}", (w,) * (i - 1) + (mx,) + (w,) * (k - i) + (m,)))
    for j in range(1, k + 1):
        blocks.append((f"c3g{j}", (w,) * (j - 1) + (mx,) + (w,) * (k - j) + (n, m)))
    return blocks


def _size(shape):
    s = 1
    for x in shape:
        s *= x
    return s


class PairCochain:
    """A cochain of the pair complex, stored as named dense blocks."""

    def __init__(self, degree, dim_g, dim_v, blocks=None):
        self.degree = int(degree)
        self.n = dim_g
        self.m = dim_v
        self.w = wedge_dim(dim_g)
        self.mx = dim_g * dim_v
        self.shapes = dict(_block_shapes(self.degree, dim_g, dim_v))
        self.blocks = {}
        for name, shape in self.shapes.items():
            if blocks is not None and name in blocks:
                data = list(blocks[name])
                if len(data) != _size(shape):
                    raise DimMismatchError(f"block {name} needs {_size(shape)} entries")
            else:
                data = [0] * _size(shape)
            self.blocks[name] = data

    @classmethod
    def degree1(cls, f1: Matrix, f2: Matrix):
        n, m = f1.rows, f2.rows
        if not f1.is_square() or not f2.is_square():
            raise DimMismatchError("degree-1 pair cochain needs square matrices")
        return cls(1, n, m, blocks={
            "f1": [f1[i, j] for i in range(n) for j in range(n)],
            "f2": [f2[i, j] for i in range(m) for j in range(m)],
        })

    @property
    def f1_matrix(self) -> Matrix:
        n = self.n
        data = self.blocks["f1"]
        return Matrix(tuple(tuple(data[i * n + j] for j in range(n)) for i in range(n)))

    @property
    def f2_matrix(self) -> Matrix:
        m = self.m
        data = self.blocks["f2"]
        return Matrix(tuple(tuple(data[i * m + j] for j in range(m)) for i in range(m)))

    def value(self, name, idx):
        """Output vector of a block at a leading multi-index."""
        shape = self.shapes[name]
        last = shape[-1]
        pos = 0
        for i, s in zip(idx, shape[:-1]):
            pos = pos * s + i
        data = self.blocks[name]
        return data[pos * last:(pos + 1) * last]

    def set_value(self, name, idx, vec):
        shape = self.shapes[name]
        last = shape[-1]
        pos = 0
        for i, s in zip(idx, shape[:-1]):
            pos = pos * s + i
        data = self.blocks[name]
        data[pos * last:(pos + 1) * last] = list(vec)

    def is_zero(self):
        return all(is_zero(x) for data in self.blocks.values() for x in data)

    def __eq__(self, other):
        if not isinstance(other, PairCochain):
            return NotImplemented
        if (self.degree, self.n, self.m) != (other.degree, other.n, other.m):
            return False
        return all(
            is_zero(a - b)
            for name in self.shapes
            for a, b in zip(self.blocks[name], other.blocks[name])
        )

    def __add__(self, other):
        self._same_shape(other)
        return PairCochain(self.degree, self.n, self.m, blocks={
            name: [a + b for a, b in zip(self.blocks[name], other.blocks[name])]
            for name in self.shapes
        })

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return PairCochain(self.degree, self.n, self.m, blocks={
            name: [s * x for x in self.blocks[name]] for name in self.shapes
        })

    def _same_shape(self, other):
        if (self.degree, self.n, self.m) != (other.degree, other.n, other.m):
            raise DimMismatchError("pair cochain shape mismatch")

    def flatten(self):
        out = []
        for name, _ in _block_shapes(self.degree, self.n, self.m):
            out.extend(self.blocks[name])
        return out

    @classmethod
    def unflatten(cls, degree, dim_g, dim_v, coords):
        blocks = {}
        pos = 0
        for name, shape in _block_shapes(degree, dim_g, dim_v):
            sz = _size(shape)
            blocks[name] = list(coords[pos:pos + sz])
            pos += sz
        if pos != len(coords):
            raise DimMismatchError("wrong coordinate count for pair cochain")
        return cls(degree, dim_g, dim_v, blocks=blocks)

    def __repr__(self):
        return f"PairCochain(degree={self.degree}, dim_g={self.n}, dim_v={self.m})"


def pair_cochain_dim(dim_g, dim_v, degree):
    return sum(_size(shape) for _, shape in _block_shapes(degree, dim_g, dim_v))


def zero_pair_cochain(pair: LieYRepPair, degree):
    return PairCochain(degree, pair.dim_g, pair.dim_v)


def random_pair_cochain(pair: LieYRepPair, degree, rng, lo=-3, hi=3):
    size = pair_cochain_dim(pair.dim_g, pair.dim_v, degree)
    return PairCochain.unflatten(degree, pair.dim_g, pair.dim_v,
                                 [rng.randint(lo, hi) for _ in range(size)])


# ---------------------------------------------------------------------------
# the semidirect embedding


class _IndexMap:
    """The embedding L of the degree-p pair cochains into the semidirect
    cochains, as a signed index map.

    Pair coordinate j lifts to the one semidirect coordinate home[j], with
    coefficient 1.  At degree >= 2 every c2g coordinate src[t] is placed
    again, with sign[t] = +1 or -1, at home[dst[t]], the home of a
    coordinate of the last c3g block (the overlap N of L on the home
    rows).  The dst are distinct and are never a src, so N^2 = 0, and
    P y = y[home] - N y[home] is the left inverse of L.  The image of L
    is spanned by the home coordinates: a semidirect cochain x is in the
    lifted subspace (x = L P x) exactly when it vanishes off them.
    """

    def __init__(self, pc, degree):
        n, m, nE = pc.n, pc.m, pc.dimE
        self.degree, self.dimE = degree, nE
        self.size = cochain_dim(nE, nE, degree)
        gi, vi = np.arange(n), n + np.arange(m)
        if degree == 1:
            # f[o, x] sits at x * nE + o; f1 and f2 are stored (o, x)
            axes = {"f1": (0, [(1, gi), (nE, gi)]), "f2": (0, [(1, vi), (nE, vi)])}
            self.f_size = self.size
        else:
            k, wE = degree - 1, wedge_dim(nE)
            widx = wedge_index_map(nE)
            gg = np.array([widx[p] for p in wedge_pairs(n)], dtype=np.int64)
            gv = np.array([widx[(x, n + b)] for x in range(n) for b in range(m)], dtype=np.int64)
            self.f_size = wE**k * nE

            def slots(stride, mixed=None):
                return [(stride * wE ** (k - 1 - s), gv if s == mixed else gg) for s in range(k)]

            f, g = self.f_size, nE * nE
            axes = {
                "c1f": (0, slots(nE) + [(1, gi)]),
                "c1g": (f, slots(g) + [(nE, gi), (1, gi)]),
                "c2f": (0, slots(nE, k - 1) + [(1, vi)]),
                "c2g": (f, slots(g) + [(nE, vi), (1, vi)]),
                **{f"c3f{i}": (0, slots(nE, i - 1) + [(1, vi)]) for i in range(1, k)},
                **{f"c3g{j}": (f, slots(g, j - 1) + [(nE, gi), (1, vi)]) for j in range(1, k + 1)},
            }
        shapes = _block_shapes(degree, n, m)
        starts = dict(zip((name for name, _ in shapes),
                          np.cumsum([0] + [_size(s) for _, s in shapes]).tolist()))
        self.home = np.concatenate([
            off + reduce(np.add.outer, [stride * index for stride, index in placed]).ravel()
            for off, placed in (axes[name] for name, _ in shapes)]).astype(np.int64)
        self.src = self.dst = np.zeros(0, dtype=np.int64)
        if degree > 1:
            # c2g at (.., e_a ^ e_b, beta, o) again at c3g_k (.., e_b ^ v_beta, a, o)
            # with sign +1 and at c3g_k (.., e_a ^ v_beta, b, o) with sign -1
            c2g, c3g = dict(shapes)["c2g"], dict(shapes)[f"c3g{k}"]
            *rest, w, beta, o = np.indices(c2g).reshape(len(c2g), -1)
            a, b = np.array(wedge_pairs(n), dtype=np.int64).reshape(-1, 2).T
            src = starts["c2g"] + np.arange(_size(c2g))
            self.src = np.concatenate([src, src])
            self.dst = starts[f"c3g{k}"] + np.concatenate([
                np.ravel_multi_index((*rest, x[w] * m + beta, z[w], o), c3g) for x, z in ((b, a), (a, b))])
        self.sign = np.repeat([1, -1], len(self.src) // 2)
        # per semidirect coordinate: the pair coordinate homed there, and
        # the overlap placed there (-1: none)
        self.coordinate = np.full(self.size, -1, dtype=np.int64)
        self.coordinate[self.home] = np.arange(len(self.home))
        self.overlap = np.full(self.size, -1, dtype=np.int64)
        self.overlap[self.home[self.dst]] = np.arange(len(self.dst))

    def lift(self, x):
        """L x for the flat object array x of a pair cochain."""
        out = np.zeros(self.size, dtype=object)
        out[self.home] = x
        out[self.home[self.dst]] += self.sign * x[self.src]
        return out

    def unmix(self, y):
        """Subtract the overlaps from rows y[j] = x[home[j]] (a vector or a
        matrix with one row per pair coordinate): P x, in place."""
        sign = self.sign if y.ndim == 1 else self.sign[:, None]
        y[self.dst] -= sign * y[self.src]
        return y

    def compose(self, triples):
        """The triples (rows, cols, vals) of a map on the semidirect cochains,
        composed with L on the right: flat (row, pair column, value) arrays."""
        out = []
        for rows, cols, vals in triples:
            vals = np.broadcast_to(vals[..., None], rows.shape).ravel()
            rows, cols = rows.ravel(), cols.ravel()
            home, t = self.coordinate[cols], self.overlap[cols]
            out.append((rows[home >= 0], home[home >= 0], vals[home >= 0]))
            out.append((rows[t >= 0], self.src[t[t >= 0]], self.sign[t[t >= 0]] * vals[t >= 0]))
        return [np.concatenate(parts) for parts in zip(*out)]

    def verify(self, rows, vals, cols=None):
        """Raise NotInSubcomplexError unless the entries vanish off the home
        coordinates.

        The entries are a cochain's values at the coordinates `rows`, or
        with `cols` the (repeatable) triples of a matrix, whose columns are
        then checked at once.  The witness is the lowest offending column,
        then the first offending entry: the lowest flat index (row-major
        entry at degree 1).
        """
        off = self.coordinate[rows] < 0
        rows, vals = rows[off], vals[off]
        scan = rows if self.degree > 1 else (rows % self.dimE) * self.dimE + rows // self.dimE
        key = scan if cols is None else cols[off] * self.size + scan
        if cols is not None and key.size:
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            key, vals = key[starts], np.add.reduceat(vals[order], starts)
        bad = np.flatnonzero(vals)
        if not bad.size:
            return
        first = bad[np.argmin(key[bad])]
        col, pos = divmod(int(key[first]), self.size)
        if self.degree == 1:
            message = "degree-1 semidirect cochain mixes the g and V blocks"
            where = {"entry": divmod(pos, self.dimE)}
        else:
            part = "f" if pos < self.f_size else "g"
            message = f"semidirect cochain is not in the lifted subspace ({part} part)"
            where = {"flat_index": pos if pos < self.f_size else pos - self.f_size}
        witness = {**where, "expected": 0, "found": vals[first]}
        raise NotInSubcomplexError(message, witness=witness if cols is None else {"column": col, **witness})


class _PairComplex:
    """The semidirect complex of one pair: the product E, its adjoint term
    table, and the index map of each degree, built on first use."""

    def __init__(self, pair: LieYRepPair):
        self.n = pair.dim_g
        self.m = pair.dim_v
        self.E = pair.semidirect()
        self.adjE = adjoint_rep(self.E, check=False)
        self.terms = _terms(self.E, self.adjE)
        _assert_adjoint_d(self.E, self.terms.d)
        self.dimE = self.E.dim
        self._maps = {}

    def index_map(self, degree) -> _IndexMap:
        if degree not in self._maps:
            self._maps[degree] = _IndexMap(self, degree)
        return self._maps[degree]


def _pc(pair: LieYRepPair) -> _PairComplex:
    """The pair's semidirect complex, built on first use and kept on the pair."""
    if pair._pair_complex is None:
        pair._pair_complex = _PairComplex(pair)
    return pair._pair_complex


def _lift(pc: _PairComplex, c: PairCochain):
    """L c as a flat object array."""
    if (c.n, c.m) != (pc.n, pc.m):
        raise DimMismatchError("cochain does not match the pair")
    return pc.index_map(c.degree).lift(_flat(c.flatten()))


def _project(pc: _PairComplex, degree, x) -> PairCochain:
    """P x for the flat object array x; NotInSubcomplexError unless x = L P x."""
    im = pc.index_map(degree)
    nonzero = np.flatnonzero(x)
    im.verify(nonzero, x[nonzero])
    return PairCochain.unflatten(degree, pc.n, pc.m, im.unmix(x[im.home]).tolist())


def lift(pair: LieYRepPair, c: PairCochain) -> YamagutiCochain:
    """Embed a pair cochain into the semidirect Yamaguti complex."""
    pc = _pc(pair)
    return YamagutiCochain.unflatten(c.degree, pc.dimE, pc.dimE, _lift(pc, c).tolist())


def project(pair: LieYRepPair, lifted: YamagutiCochain) -> PairCochain:
    """Left inverse of lift; raises NotInSubcomplexError on non-members."""
    pc = _pc(pair)
    if lifted.adim != pc.dimE or lifted.mdim != pc.dimE:
        raise DimMismatchError("lifted cochain does not live on the semidirect algebra")
    return _project(pc, lifted.degree, _flat(lifted.flatten()))


# ---------------------------------------------------------------------------
# coboundary, lifted path


def _check_cap(degree, cap):
    if degree + 1 > cap:
        raise DegreeCapExceededError(f"degree {degree + 1} exceeds pair cap {cap}")


def pair_delta_lifted(pair: LieYRepPair, c: PairCochain,
                      cap: int = DEFAULT_PAIR_CAP) -> PairCochain:
    """Coboundary via the semidirect embedding (reference implementation)."""
    _check_cap(c.degree, cap)
    pc = _pc(pair)
    return _project(pc, c.degree + 1, _apply(pc.terms, c.degree, _lift(pc, c)))


def pair_delta_matrix(pair: LieYRepPair, degree: int,
                      cap: int = DEFAULT_PAIR_CAP) -> Matrix:
    """Matrix P delta_E L of the pair coboundary in the canonical flat bases.

    The semidirect term table's triples, composed with L on the right,
    are the triples of M = delta_E L.  M = L P M holds exactly when M
    vanishes off the home rows, which is checked for every column at
    once; the home rows are summed into the matrix and P subtracts their
    overlaps.
    """
    _check_cap(degree, cap)
    pc = _pc(pair)
    into, onto = pc.index_map(degree), pc.index_map(degree + 1)
    rows, cols, vals = into.compose(pc.terms.triples(degree))
    onto.verify(rows, vals, cols)
    rows = onto.coordinate[rows]
    home = rows >= 0
    summed = _assemble(len(onto.home), len(into.home), [(rows[home], cols[home], vals[home])])
    return Matrix(onto.unmix(summed).tolist(), len(into.home))


def pair_cohomology_dim(pair: LieYRepPair, degree: int,
                        cap: int = DEFAULT_PAIR_CAP) -> int:
    """dim of the degree-n cohomology group of the pair complex."""
    if degree < 1:
        raise DimMismatchError("cohomology degree must be >= 1")
    dmat = pair_delta_matrix(pair, degree, cap=cap)
    kernel = dmat.nullspace_dim()
    if degree == 1:
        return kernel
    dprev = pair_delta_matrix(pair, degree - 1, cap=cap)
    return kernel - dprev.rank()


# ---------------------------------------------------------------------------
# coboundary, direct formulas (degrees 1 and 2)


def pair_delta_direct(pair: LieYRepPair, c: PairCochain) -> PairCochain:
    """Closed-form coboundary at degrees 1 and 2.

    Higher degrees go through pair_delta_lifted.  The two paths agree
    entry-for-entry on their common domain (asserted in the tests).
    """
    if c.degree == 1:
        return _direct_deg1(pair, c)
    if c.degree == 2:
        return _direct_deg2(pair, c)
    raise UnsupportedDegreeError("direct formulas are implemented at degrees 1 and 2 only")


def _direct_deg1(pair: LieYRepPair, c: PairCochain) -> PairCochain:
    alg, rep, d = pair.algebra, pair.rep, pair.d
    n, m = pair.dim_g, pair.dim_v
    f1, f2 = c.f1_matrix, c.f2_matrix
    f1c = [f1.col(i) for i in range(n)]
    f2c = [f2.col(i) for i in range(m)]
    out = PairCochain(2, n, m)
    pairs_g = wedge_pairs(n)
    e = [alg.basis_vector(i) for i in range(n)]

    # comp1: the adjoint-coefficient coboundary of f1
    for w, (x, y) in enumerate(pairs_g):
        v = vsub(vadd(alg.bracket(e[x], f1c[y]), alg.bracket(f1c[x], e[y])), f1.apply(alg.b[x][y]))
        out.set_value("c1f", (w,), v)
        for z in range(n):
            gv = vadd(alg.triple(e[x], e[y], f1c[z]), alg.triple(f1c[x], e[y], e[z]))
            gv = vadd(gv, alg.triple(e[x], f1c[y], e[z]))
            gv = vsub(gv, f1.apply(alg.t[x][y][z]))
            out.set_value("c1g", (w, z), gv)

    # comp2, f part: rho(x)f2(v) + rho(f1 x)v - f2(rho(x)v)
    for x in range(n):
        rho_f1x = rep.rho_vec(f1c[x])
        for b in range(m):
            v = vadd(rep.rho[x].apply(f2c[b]), rho_f1x.col(b))
            v = vsub(v, f2.apply(rep.rho[x].col(b)))
            out.set_value("c2f", (x * m + b,), v)

    # comp2, g part: D(x,y)f2(v) + D(f1 x,y)v + D(x,f1 y)v - f2(D(x,y)v)
    for w, (x, y) in enumerate(pairs_g):
        dxy = d.at(x, y)
        dfx = d.vec(f1c[x], e[y])
        dfy = d.vec(f1c[y], e[x])  # D(f1 y, x) = -D(x, f1 y)
        for b in range(m):
            v = vadd(dxy.apply(f2c[b]), dfx.col(b))
            v = vsub(v, dfy.col(b))
            v = vsub(v, f2.apply(dxy.col(b)))
            out.set_value("c2g", (w, b), v)

    # comp3 (one member): the D-shaped minus the mu-shaped expression
    for x in range(n):
        for b in range(m):
            for z in range(n):
                dxz = d.at(x, z)
                gd = vadd(dxz.apply(f2c[b]), d.vec(f1c[x], e[z]).col(b))
                gd = vsub(gd, d.vec(f1c[z], e[x]).col(b))  # + D(x, f1 z) v
                gd = vsub(gd, f2.apply(dxz.col(b)))
                mxz = rep.mu[x][z]
                gm = vadd(mxz.apply(f2c[b]), rep.mu_vec(f1c[x], e[z]).col(b))
                gm = vadd(gm, rep.mu_vec(e[x], f1c[z]).col(b))
                gm = vsub(gm, f2.apply(mxz.col(b)))
                out.set_value("c3g1", (x * m + b, z), vsub(gd, gm))
    return out


def _direct_deg2(pair: LieYRepPair, c: PairCochain) -> PairCochain:
    alg, rep, d = pair.algebra, pair.rep, pair.d
    n, m = pair.dim_g, pair.dim_v
    pairs_g = wedge_pairs(n)
    widx = wedge_index_map(n)
    w = wedge_dim(n)
    out = PairCochain(3, n, m)

    def f1_at(wi):
        return c.value("c1f", (wi,))

    def g1_at(wi, z):
        return c.value("c1g", (wi, z))

    def f2_at(x, b):
        return c.value("c2f", (x * m + b,))

    def f2_mix(gvec, vvec):
        acc = vzero(m)
        for x, sx in enumerate(gvec):
            if is_zero(sx):
                continue
            for b, sb in enumerate(vvec):
                if not is_zero(sb):
                    acc = vadd(acc, vscale(sx * sb, f2_at(x, b)))
        return acc

    def g2_at(wi, b):
        return c.value("c2g", (wi, b))

    def g2_wedge(terms, vvec):
        """g2 at a wedge expansion [(wi, coeff)] and a V vector."""
        acc = vzero(m)
        for wi, cf in terms:
            for b, sb in enumerate(vvec):
                if not is_zero(sb):
                    acc = vadd(acc, vscale(cf * sb, g2_at(wi, b)))
        return acc

    def g3_at(x, b, z):
        return c.value("c3g1", (x * m + b, z))

    def g3_mix(gvec, vvec, z):
        acc = vzero(m)
        for x, sx in enumerate(gvec):
            if is_zero(sx):
                continue
            for b, sb in enumerate(vvec):
                if not is_zero(sb):
                    acc = vadd(acc, vscale(sx * sb, g3_at(x, b, z)))
        return acc

    def g3_final(x, b, gvec):
        acc = vzero(m)
        for z, s in enumerate(gvec):
            if not is_zero(s):
                acc = vadd(acc, vscale(s, g3_at(x, b, z)))
        return acc

    def wexp(cvec, x):
        """Wedge expansion of (vector) ^ e_x as [(index, coeff)]."""
        outv = []
        for cidx, s in enumerate(cvec):
            if is_zero(s) or cidx == x:
                continue
            if cidx < x:
                outv.append((widx[(cidx, x)], s))
            else:
                outv.append((widx[(x, cidx)], -s))
        return outv

    ebas = [alg.basis_vector(i) for i in range(n)]

    # the classical complex of g with adjoint coefficients: comp1 is its
    # coboundary of (f1, g1), and comp2 g reads its composite X1 o X2
    terms = _terms(alg, adjoint_rep(alg, check=False))

    # ---- comp1: Yamaguti coboundary of (f1, g1) with adjoint coefficients
    comp1 = _apply(terms, 2, _flat(c.blocks["c1f"] + c.blocks["c1g"])).tolist()
    f_size = len(out.blocks["c1f"])
    out.blocks["c1f"], out.blocks["c1g"] = comp1[:f_size], comp1[f_size:]

    # ---- comp2 f: arguments (W1, (x,v))
    for w1, (x1, y1) in enumerate(pairs_g):
        d11 = d.at(x1, y1)
        for x in range(n):
            for b in range(m):
                val = vneg(rep.rho[x].apply(g2_at(w1, b)))
                val = vsub(val, rep.rho_vec(g1_at(w1, x)).col(b))
                val = vadd(val, g2_wedge([(w1, 1)], rep.rho[x].col(b)))
                val = vadd(val, d11.apply(f2_at(x, b)))
                val = vsub(val, f2_mix(alg.t[x1][y1][x], _unit_v(m, b)))
                val = vsub(val, f2_mix(ebas[x], d11.col(b)))
                out.set_value("c2f", (w1, x * m + b), val)

    # ---- comp2 g: arguments (W1, W2, v)
    for w1, (x1, y1) in enumerate(pairs_g):
        d11 = d.at(x1, y1)
        for w2, (x2, y2) in enumerate(pairs_g):
            d22 = d.at(x2, y2)
            circ = [(wi, cf) for wi, cf in enumerate(terms.circ[w1, w2]) if cf]
            for b in range(m):
                val = vneg(d.vec(g1_at(w1, x2), ebas[y2]).col(b))
                val = vadd(val, d.vec(g1_at(w1, y2), ebas[x2]).col(b))
                val = vadd(val, d11.apply(g2_at(w2, b)))
                val = vsub(val, d22.apply(g2_at(w1, b)))
                val = vsub(val, g2_wedge(circ, _unit_v(m, b)))
                val = vsub(val, g2_wedge([(w2, 1)], d11.col(b)))
                val = vadd(val, g2_wedge([(w1, 1)], d22.col(b)))
                out.set_value("c2g", (w1, w2, b), val)

    # ---- comp3 f (position 1): arguments ((x,v), W2)
    for x in range(n):
        for b in range(m):
            for w2, (x2, y2) in enumerate(pairs_g):
                val = vneg(rep.rho[x2].apply(g2_wedge(wexp(ebas[y2], x), _unit_v(m, b))))
                val = vsub(val, rep.rho[x2].apply(g3_at(x, b, y2)))
                val = vadd(val, rep.rho[y2].apply(g2_wedge(wexp(ebas[x2], x), _unit_v(m, b))))
                val = vadd(val, rep.rho[y2].apply(g3_at(x, b, x2)))
                val = vadd(val, g2_wedge(wexp(alg.b[x2][y2], x), _unit_v(m, b)))
                val = vadd(val, g3_final(x, b, alg.b[x2][y2]))
                val = vsub(val, rep.mu_vec(ebas[x], f1_at(w2)).col(b))
                val = vadd(val, f2_mix(ebas[x2], rep.mu[x][y2].col(b)))
                val = vsub(val, f2_mix(ebas[y2], rep.mu[x][x2].col(b)))
                out.set_value("c3f1", (x * m + b, w2), val)

    # ---- comp3 g (position 1): arguments ((x,v), W2, z)
    for x in range(n):
        for b in range(m):
            for w2, (x2, y2) in enumerate(pairs_g):
                d22 = d.at(x2, y2)
                for z in range(n):
                    val = vneg(rep.mu[y2][z].apply(g2_wedge(wexp(ebas[x2], x), _unit_v(m, b))))
                    val = vsub(val, rep.mu[y2][z].apply(g3_at(x, b, x2)))
                    val = vadd(val, rep.mu[x2][z].apply(g2_wedge(wexp(ebas[y2], x), _unit_v(m, b))))
                    val = vadd(val, rep.mu[x2][z].apply(g3_at(x, b, y2)))
                    val = vsub(val, rep.mu_vec(ebas[x], g1_at(w2, z)).col(b))
                    val = vsub(val, d22.apply(g2_wedge(wexp(ebas[z], x), _unit_v(m, b))))
                    val = vsub(val, d22.apply(g3_at(x, b, z)))
                    val = vsub(val, g2_wedge(wexp(ebas[z], y2), rep.mu[x][x2].col(b)))
                    val = vsub(val, g3_mix(ebas[y2], rep.mu[x][x2].col(b), z))
                    val = vadd(val, g2_wedge(wexp(ebas[z], x2), rep.mu[x][y2].col(b)))
                    val = vadd(val, g3_mix(ebas[x2], rep.mu[x][y2].col(b), z))
                    val = vadd(val, g2_wedge([(w2, 1)], rep.mu[x][z].col(b)))
                    val = vadd(val, g3_final(x, b, alg.t[x2][y2][z]))
                    val = vadd(val, g2_wedge(wexp(alg.t[x2][y2][z], x), _unit_v(m, b)))
                    out.set_value("c3g1", (x * m + b, w2, z), val)

    # ---- comp3 g (position 2): arguments (W1, (x,v), z), with the
    # item-(b) overlap on the last slot subtracted
    for w1, (x1, y1) in enumerate(pairs_g):
        d11 = d.at(x1, y1)
        for x in range(n):
            for b in range(m):
                for z in range(n):
                    val = rep.mu_vec(g1_at(w1, x), ebas[z]).col(b)
                    val = vadd(val, rep.mu[x][z].apply(g2_at(w1, b)))
                    val = vadd(val, rep.mu_vec(ebas[x], g1_at(w1, z)).col(b))
                    val = vadd(val, d11.apply(g2_wedge(wexp(ebas[z], x), _unit_v(m, b))))
                    val = vadd(val, d11.apply(g3_at(x, b, z)))
                    val = vadd(val, g2_wedge(wexp(alg.t[x1][y1][x], z), _unit_v(m, b)))
                    val = vsub(val, g3_mix(alg.t[x1][y1][x], _unit_v(m, b), z))
                    val = vadd(val, g2_wedge(wexp(ebas[x], z), d11.col(b)))
                    val = vsub(val, g3_mix(ebas[x], d11.col(b), z))
                    val = vsub(val, g2_wedge(wexp(alg.t[x1][y1][z], x), _unit_v(m, b)))
                    val = vsub(val, g3_final(x, b, alg.t[x1][y1][z]))
                    val = vsub(val, g2_wedge([(w1, 1)], rep.mu[x][z].col(b)))
                    # subtract the comp2-g overlap evaluated at (W1, z^x, v)
                    for wzx, sgn in wexp(ebas[z], x):
                        term = out.value("c2g", (w1, wzx, b))
                        val = [a - sgn * t for a, t in zip(val, term)]
                    out.set_value("c3g2", (w1, x * m + b, z), val)
    return out

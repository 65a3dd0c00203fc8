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
of V); the element e_x ^ v_beta has mixed index x*dim(V) + beta.  A
cochain (yamaguti.Cochain) is one 1-d ExactArray in the canonical block
order, and its blocks are ExactArray views of it in their block shapes.

The coboundary has two implementations:

* the *lifted* path (reference): embed into the Yamaguti complex of the
  semidirect product with adjoint coefficients, apply its coboundary,
  and project back, i.e. P delta_E L.  The embedding L of each degree is
  one signed index map (_IndexMap): pair coordinate j lifts to a single
  semidirect coordinate home[j] with coefficient 1, and the g2 block
  (c2g) is placed a second time, with signs +1 and -1, at home
  coordinates of the last g3 block, where the two overlap.  lift
  scatters through the map.  P takes each home coordinate to its pair
  coordinate, and subtracts the overlaps as more entries: the home of
  src[t] again at dst[t], times -sign[t].  A semidirect cochain lies in
  the lifted subspace exactly when it vanishes off the home
  coordinates; project checks that, and raises NotInSubcomplexError
  with the first offending entry as witness otherwise.  The coboundary
  is the semidirect product's term table (yamaguti._Terms): applied to
  one lifted cochain (pair_delta_lifted), or, for the whole matrix, its
  (row, column, value) triples composed with L on the right, checked on
  every column at once by a keyed sum (the witness names the lowest
  offending column), and taken through P (pair_delta_matrix).  lift is
  one linalg.scatter_add, and so is P, for a cochain and a matrix
  alike.  The semidirect product, its term table and the index maps are
  built once per pair and kept on it.
* the *direct* path: closed formulas at degrees 1 and 2, written out
  component by component, one commented sum of two-operand einsums per
  component, on the structure arrays (b_arr, t_arr, rho_arr, mu_arr,
  d) and the cochain's blocks.  It shares neither the term table nor
  the index maps with the lifted path.  Published versions of these
  formulas leave several index conventions ambiguous; the expansions
  implemented here were fixed against the lifted path, and the two paths
  are asserted to agree entry-for-entry in the test suite.
"""

from __future__ import annotations

from functools import reduce
from math import prod

import numpy as np

from .errors import (
    DimMismatchError,
    NotInSubcomplexError,
    UnsupportedDegreeError,
)
from .linalg import ExactArray, Matrix, einsum, exact, scatter_add, sum_by_key
from .reps import LieYRepPair, _assert_adjoint_d, adjoint_rep
from .yamaguti import (
    Cochain,
    YamagutiCochain,
    _apply,
    _dimension,
    _terms,
    _weight_route,
    cochain_dim,
    wedge_dim,
    wedge_index_map,
    wedge_pairs,
)

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


class PairCochain(Cochain):
    """A cochain of the pair complex of a dim-`n` algebra and a dim-`m`
    module: the blocks of _block_shapes over one flat ExactArray."""

    dim_names = ("dim_g", "dim_v")
    n = property(lambda self: self.dims[0])
    m = property(lambda self: self.dims[1])
    block_shapes = staticmethod(_block_shapes)

    @classmethod
    def degree1(cls, f1: Matrix, f2: Matrix):
        if not f1.is_square() or not f2.is_square():
            raise DimMismatchError("degree-1 pair cochain needs square matrices")
        return cls.from_blocks(1, f1.rows, f2.rows, {"f1": f1.arr, "f2": f2.arr})


def pair_cochain_dim(dim_g, dim_v, degree):
    return sum(prod(shape) for _, shape in _block_shapes(degree, dim_g, dim_v))


def zero_pair_cochain(pair: LieYRepPair, degree):
    return PairCochain(degree, pair.dim_g, pair.dim_v)


def random_pair_cochain(pair: LieYRepPair, degree, rng):
    size = pair_cochain_dim(pair.dim_g, pair.dim_v, degree)
    return PairCochain.unflatten(degree, pair.dim_g, pair.dim_v,
                                 [rng.randint(-3, 3) for _ in range(size)])


# ---------------------------------------------------------------------------
# the semidirect embedding


class _IndexMap:
    """The embedding L of the degree-p pair cochains into the semidirect
    cochains, as a signed index map.

    Pair coordinate j lifts to the one semidirect coordinate home[j], with
    coefficient 1.  At degree >= 2 every c2g coordinate src[t] is placed
    again, with sign[t], at home[dst[t]], the home of a coordinate of the
    last c3g block (the overlap N of L on the home rows): each twice, as
    src[t] = src[t + half], with sign +1 at t < half and -1 from there.  The dst are distinct and are never a src, so N^2 = 0, and
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
                          np.cumsum([0] + [prod(s) for _, s in shapes]).tolist()))
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
            src = starts["c2g"] + np.arange(prod(c2g))
            self.src = np.concatenate([src, src])
            self.dst = starts[f"c3g{k}"] + np.concatenate([
                np.ravel_multi_index((*rest, x[w] * m + beta, z[w], o), c3g) for x, z in ((b, a), (a, b))])
        self.half = len(self.src) // 2
        self.sign = np.repeat([1, -1], self.half)
        # per semidirect coordinate: the pair coordinate homed there, and
        # the overlap placed there (-1: none); per pair coordinate, the
        # first of its overlaps (-1: none, not a c2g coordinate)
        self.coordinate = np.full(self.size, -1, dtype=np.int64)
        self.coordinate[self.home] = np.arange(len(self.home))
        self.overlap = np.full(self.size, -1, dtype=np.int64)
        self.overlap[self.home[self.dst]] = np.arange(len(self.dst))
        self.source = np.full(len(self.home), -1, dtype=np.int64)
        self.source[self.src[:self.half]] = np.arange(self.half)

    def lift(self, x: ExactArray) -> ExactArray:
        """L x for the flat coordinates x of a pair cochain."""
        h, at = self.half, self.home[self.dst]
        return scatter_add(self.size, [(self.home, x), (at[:h], x[self.src[:h]]),
                                       (at[h:], -x[self.src[h:]])])

    def unmix(self, rows, cols, vals, width):
        """P M, row-major over len(home) x width, for the triples (semidirect
        rows, columns, values) of a map M that vanishes off the home
        coordinates (see verify): the home rows at their pair coordinates,
        and row src[t] again at dst[t], times -sign[t]."""
        rows = self.coordinate[rows]
        home = rows >= 0
        rows, cols, vals = rows[home], cols[home], vals[home]
        t = self.source[rows]
        hit = t >= 0
        t, cols_hit, vals_hit = t[hit], cols[hit], vals[hit]
        return scatter_add(len(self.home) * width, [
            (rows * width + cols, vals), (self.dst[t] * width + cols_hit, -vals_hit),
            (self.dst[t + self.half] * width + cols_hit, vals_hit)])

    def compose(self, triples):
        """The triples (rows, cols, vals) of a map on the semidirect cochains,
        composed with L on the right: flat (row, pair column, value) arrays,
        the values one ExactArray."""
        out = []
        for rows, cols, vals in triples:
            vals = np.broadcast_to(vals, rows.shape).ravel()
            rows, cols = rows.ravel(), cols.ravel()
            home, t = self.coordinate[cols], self.overlap[cols]
            plus, minus = (t >= 0) & (t < self.half), t >= self.half
            out += [(rows[home >= 0], home[home >= 0], vals[home >= 0]),
                    (rows[plus], self.src[t[plus]], vals[plus]),
                    (rows[minus], self.src[t[minus]], -vals[minus])]
        return [np.concatenate(parts) for parts in zip(*out)]

    def verify(self, rows, vals, cols=None):
        """Raise NotInSubcomplexError unless the entries vanish off the home
        coordinates.

        The entries are a cochain's values (an ExactArray) at the
        coordinates `rows`, or with `cols` the (repeatable) triples of a
        matrix, whose columns are then checked at once.  The witness is the
        lowest offending column, then the first offending entry: the lowest
        flat index (row-major entry at degree 1).
        """
        off = self.coordinate[rows] < 0
        rows, vals = rows[off], vals[off]
        scan = rows if self.degree > 1 else (rows % self.dimE) * self.dimE + rows // self.dimE
        key = scan if cols is None else cols[off] * self.size + scan
        if cols is not None:
            key, vals = sum_by_key(key, vals)
        bad = np.flatnonzero(vals != 0)
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


def _lift(pc: _PairComplex, c: PairCochain) -> ExactArray:
    """L c as a flat ExactArray."""
    if (c.n, c.m) != (pc.n, pc.m):
        raise DimMismatchError("cochain does not match the pair")
    return pc.index_map(c.degree).lift(c.flat)


def _project(pc: _PairComplex, degree, x: ExactArray) -> PairCochain:
    """P x for the flat ExactArray x; NotInSubcomplexError unless x = L P x."""
    im = pc.index_map(degree)
    rows = np.flatnonzero(x != 0)
    vals = x[rows]
    im.verify(rows, vals)
    return PairCochain(degree, pc.n, pc.m, im.unmix(rows, 0 * rows, vals, 1))


def lift(pair: LieYRepPair, c: PairCochain) -> YamagutiCochain:
    """Embed a pair cochain into the semidirect Yamaguti complex."""
    pc = _pc(pair)
    return YamagutiCochain(c.degree, pc.dimE, pc.dimE, _lift(pc, c))


def project(pair: LieYRepPair, lifted: YamagutiCochain) -> PairCochain:
    """Left inverse of lift; raises NotInSubcomplexError on non-members."""
    pc = _pc(pair)
    if lifted.adim != pc.dimE or lifted.mdim != pc.dimE:
        raise DimMismatchError("lifted cochain does not live on the semidirect algebra")
    return _project(pc, lifted.degree, lifted.flat)


# ---------------------------------------------------------------------------
# coboundary, lifted path


def pair_delta_lifted(pair: LieYRepPair, c: PairCochain) -> PairCochain:
    """Coboundary via the semidirect embedding (reference implementation)."""
    pc = _pc(pair)
    return _project(pc, c.degree + 1, _apply(pc.terms, c.degree, _lift(pc, c)))


def pair_delta_matrix(pair: LieYRepPair, degree: int, cap=None) -> Matrix:
    """Matrix P delta_E L of the pair coboundary in the canonical flat bases.

    The semidirect term table's triples, composed with L on the right,
    are the triples of M = delta_E L.  M = L P M holds exactly when M
    vanishes off the home rows, which is checked for every column at
    once; P M sums the home rows and their overlaps in one scatter.
    `cap` is ignored; the benchmark's oracle (perfbench/oracle.py) still
    passes it.
    """
    pc = _pc(pair)
    into, onto = pc.index_map(degree), pc.index_map(degree + 1)
    rows, cols, vals = into.compose(pc.terms.triples(degree))
    onto.verify(rows, vals, cols)
    width = len(into.home)
    return Matrix.from_array(onto.unmix(rows, cols, vals, width).reshape(len(onto.home), width))


def pair_cohomology_dim(pair: LieYRepPair, degree: int) -> int:
    """dim of the degree-n cohomology group of the pair complex (yamaguti._dimension).

    The ranks are taken in a weight basis (yamaguti._weight_route) when
    the pair is dense; the moved pair is isomorphic to the given one, so
    no dimension moves.
    """
    if degree < 1:
        raise DimMismatchError("cohomology degree must be >= 1")
    n, m = pair.dim_g, pair.dim_v
    entries = pair_cochain_dim(n, m, degree + 1) * pair_cochain_dim(n, m, degree)
    alg, rep = _weight_route(pair.algebra, pair.rep, entries)
    if rep is not pair.rep:
        pair = LieYRepPair(alg, rep, validate=False)
    return _dimension(degree, lambda q: pair_delta_matrix(pair, q))


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
    """delta (f1, f2) at degree 1.  Arguments: X = x ^ y a wedge of g, z in g,
    v_b a basis vector of V; f1[:, x] = f1(x) and f2[:, b] = f2(v_b)."""
    b, t, rho, mu, dd = _structure(pair)
    n, m = pair.dim_g, pair.dim_v
    x, y = np.triu_indices(n, 1)
    f1, f2 = c.blocks["f1"], c.blocks["f2"]

    # comp1 f: [x, f1 y] + [f1 x, y] - f1[x, y], over (x, y, k)
    c1f = (einsum("cy,xck->xyk", f1, b) + einsum("cx,cyk->xyk", f1, b)
           - einsum("kc,xyc->xyk", f1, b))
    # comp1 g: <<x, y, f1 z>> + <<f1 x, y, z>> + <<x, f1 y, z>> - f1<<x, y, z>>, over (x, y, z, l)
    c1g = (einsum("cz,xycl->xyzl", f1, t) + einsum("cx,cyzl->xyzl", f1, t)
           + einsum("cy,xczl->xyzl", f1, t) - einsum("lc,xyzc->xyzl", f1, t))
    # comp2 f: rho(x) f2 v_b + rho(f1 x) v_b - f2(rho(x) v_b), over (x, o, b)
    c2f = rho @ f2 + einsum("cx,cob->xob", f1, rho) - f2 @ rho

    def bilinear(op):
        # X(x, z) f2 v_b + X(f1 x, z) v_b + X(x, f1 z) v_b - f2(X(x, z) v_b), over (x, z, o, b)
        return (op @ f2 + einsum("cx,czob->xzob", f1, op) + einsum("cz,xcob->xzob", f1, op)
                - f2 @ op)

    # comp2 g: the D-shaped expression at X = x ^ y; comp3: the D-shaped minus
    # the mu-shaped one at (x ^ v_b, z)
    d_part = bilinear(dd)
    return PairCochain.from_blocks(2, n, m, {
        "c1f": c1f[x, y],
        "c1g": c1g[x, y],
        "c2f": c2f.transpose(0, 2, 1).reshape(n * m, m),
        "c2g": d_part[x, y].transpose(0, 2, 1),
        "c3g1": (d_part - bilinear(mu)).transpose(0, 3, 1, 2).reshape(n * m, n, m),
    })


def _direct_deg2(pair: LieYRepPair, c: PairCochain) -> PairCochain:
    """delta (f1, g1; f2, g2; g3) at degree 2, component by component.

    Arguments: X1 = x1 ^ y1 and X2 = x2 ^ y2 wedges of g (axes u and v),
    z in g, x ^ v_b a mixed argument.  The input blocks read
    f1(X) = F1[X], g1(X, z) = G1[X, z], f2(x ^ v_b) = F2[x, b],
    g2(X, v_b) = G2[X, b] and g3(x ^ v_b, z) = G3[x, b, z]; G1w, G2w
    extend g1 and g2 to all wedges a ^ c of basis vectors, and
    X1 o X2 = <<x1, y1, x2>> ^ y2 + x2 ^ <<x1, y1, y2>>.
    """
    b, t, rho, mu, dd = _structure(pair)
    n, m = pair.dim_g, pair.dim_v
    x, y = np.triu_indices(n, 1)
    w = len(x)
    F1, G1, G2 = (c.blocks[name] for name in ("c1f", "c1g", "c2g"))
    F2 = c.blocks["c2f"].reshape(n, m, m)
    G3 = c.blocks["c3g1"].reshape(n, m, n, m)
    # wedge[a, c, X] = the coefficient of X in a ^ c
    wedge = np.zeros((n, n, w), dtype=np.int64)
    wedge[x, y, np.arange(w)], wedge[y, x, np.arange(w)] = 1, -1
    wedge = exact(wedge)
    F1w = einsum("acw,wk->ack", wedge, F1)
    G1w = einsum("acw,wzk->aczk", wedge, G1)
    G2w = einsum("acw,wbo->acbo", wedge, G2)
    # the structure at X = x ^ y: [x, y], <<x, y, .>> and D(x, y)
    BX, TX, DX = b[x, y], t[x, y], dd[x, y]

    # ---- comp1: the Yamaguti coboundary of (f1, g1) with adjoint coefficients
    # f'(X1, X2) = -[x2, g1(X1, y2)] + [y2, g1(X1, x2)] + g1(X1, [x2, y2])
    #              + <<x1, y1, f1(X2)>> - f1(X1 o X2)
    c1f = (-einsum("uvc,vck->uvk", G1[:, y], b[x]) + einsum("uvc,vck->uvk", G1[:, x], b[y])
           + einsum("vz,uzk->uvk", BX, G1) + einsum("uck,vc->uvk", TX, F1)
           - einsum("uvc,cvk->uvk", TX[:, x], F1w[:, y]) - einsum("uvc,vck->uvk", TX[:, y], F1w[x]))
    # g'(X1, X2, z) = -<<g1(X1, x2), y2, z>> + <<g1(X1, y2), x2, z>> - <<x2, y2, g1(X1, z)>>
    #                 + g1(X1, <<x2, y2, z>>) + <<x1, y1, g1(X2, z)>> - g1(X2, <<x1, y1, z>>)
    #                 - g1(X1 o X2, z)
    c1g = (-einsum("uvc,cvzk->uvzk", G1[:, x], t[:, y]) + einsum("uvc,cvzk->uvzk", G1[:, y], t[:, x])
           - einsum("vck,uzc->uvzk", TX, G1) + einsum("vzc,uck->uvzk", TX, G1)
           + einsum("uck,vzc->uvzk", TX, G1) - einsum("uzc,vck->uvzk", TX, G1)
           - einsum("uvc,cvzk->uvzk", TX[:, x], G1w[:, y])
           - einsum("uvc,vczk->uvzk", TX[:, y], G1w[x]))

    # ---- comp2 f at (X1, x ^ v_b): -rho(x) g2(X1, v_b) - rho(g1(X1, x)) v_b
    #      + g2(X1, rho(x) v_b) + D(X1) f2(x ^ v_b) - f2(<<x1, y1, x>> ^ v_b) - f2(x ^ D(X1) v_b)
    c2f = (-einsum("xoa,uba->uxbo", rho, G2) - einsum("uxc,cob->uxbo", G1, rho)
           + einsum("xab,uao->uxbo", rho, G2) + einsum("uoa,xba->uxbo", DX, F2)
           - einsum("uxc,cbo->uxbo", TX, F2) - einsum("uab,xao->uxbo", DX, F2))

    # ---- comp2 g at (X1, X2, v_b): -D(g1(X1, x2), y2) v_b + D(g1(X1, y2), x2) v_b
    #      + D(X1) g2(X2, v_b) - D(X2) g2(X1, v_b) - g2(X1 o X2, v_b)
    #      - g2(X2, D(X1) v_b) + g2(X1, D(X2) v_b)
    c2g = (-einsum("uvc,cvob->uvbo", G1[:, x], dd[:, y])
           + einsum("uvc,cvob->uvbo", G1[:, y], dd[:, x])
           + einsum("uoa,vba->uvbo", DX, G2) - einsum("voa,uba->uvbo", DX, G2)
           - einsum("uvc,cvbo->uvbo", TX[:, x], G2w[:, y])
           - einsum("uvc,vcbo->uvbo", TX[:, y], G2w[x])
           - einsum("uab,vao->uvbo", DX, G2) + einsum("vab,uao->uvbo", DX, G2))

    # ---- comp3 f at (x ^ v_b, X2): -rho(x2) g2(y2 ^ x, v_b) - rho(x2) g3(x ^ v_b, y2)
    #      + rho(y2) g2(x2 ^ x, v_b) + rho(y2) g3(x ^ v_b, x2) + g2([x2, y2] ^ x, v_b)
    #      + g3(x ^ v_b, [x2, y2]) - mu(x, f1(X2)) v_b + f2(x2 ^ mu(x, y2) v_b) - f2(y2 ^ mu(x, x2) v_b)
    c3f1 = (-einsum("voa,vxba->xbvo", rho[x], G2w[y]) - einsum("voa,xbva->xbvo", rho[x], G3[:, :, y])
            + einsum("voa,vxba->xbvo", rho[y], G2w[x]) + einsum("voa,xbva->xbvo", rho[y], G3[:, :, x])
            + einsum("vc,cxbo->xbvo", BX, G2w) + einsum("vc,xbco->xbvo", BX, G3)
            - einsum("vc,xcob->xbvo", F1, mu)
            + einsum("xvab,vao->xbvo", mu[:, y], F2[x]) - einsum("xvab,vao->xbvo", mu[:, x], F2[y]))

    # ---- comp3 g, mixed slot first, at (x ^ v_b, X2, z):
    #      -mu(y2, z) g2(x2 ^ x, v_b) - mu(y2, z) g3(x ^ v_b, x2)
    #      + mu(x2, z) g2(y2 ^ x, v_b) + mu(x2, z) g3(x ^ v_b, y2) - mu(x, g1(X2, z)) v_b
    #      - D(X2) g2(z ^ x, v_b) - D(X2) g3(x ^ v_b, z)
    #      - g2(z ^ y2, mu(x, x2) v_b) - g3(y2 ^ mu(x, x2) v_b, z)
    #      + g2(z ^ x2, mu(x, y2) v_b) + g3(x2 ^ mu(x, y2) v_b, z) + g2(X2, mu(x, z) v_b)
    #      + g3(x ^ v_b, <<x2, y2, z>>) + g2(<<x2, y2, z>> ^ x, v_b)
    c3g1 = (-einsum("vzoa,vxba->xbvzo", mu[y], G2w[x])
            - einsum("vzoa,xbva->xbvzo", mu[y], G3[:, :, x])
            + einsum("vzoa,vxba->xbvzo", mu[x], G2w[y])
            + einsum("vzoa,xbva->xbvzo", mu[x], G3[:, :, y])
            - einsum("vzc,xcob->xbvzo", G1, mu)
            - einsum("voa,zxba->xbvzo", DX, G2w) - einsum("voa,xbza->xbvzo", DX, G3)
            - einsum("xvab,zvao->xbvzo", mu[:, x], G2w[:, y])
            - einsum("xvab,vazo->xbvzo", mu[:, x], G3[y])
            + einsum("xvab,zvao->xbvzo", mu[:, y], G2w[:, x])
            + einsum("xvab,vazo->xbvzo", mu[:, y], G3[x])
            + einsum("xzab,vao->xbvzo", mu, G2)
            + einsum("vzc,xbco->xbvzo", TX, G3) + einsum("vzc,cxbo->xbvzo", TX, G2w))

    # ---- comp3 g, mixed slot second, at (X1, x ^ v_b, z): +mu(g1(X1, x), z) v_b
    #      + mu(x, z) g2(X1, v_b) + mu(x, g1(X1, z)) v_b + D(X1) g2(z ^ x, v_b) + D(X1) g3(x ^ v_b, z)
    #      + g2(<<x1, y1, x>> ^ z, v_b) - g3(<<x1, y1, x>> ^ v_b, z) + g2(x ^ z, D(X1) v_b)
    #      - g3(x ^ D(X1) v_b, z) - g2(<<x1, y1, z>> ^ x, v_b) - g3(x ^ v_b, <<x1, y1, z>>)
    #      - g2(X1, mu(x, z) v_b), minus the comp2 g overlap at (X1, z ^ x, v_b)
    c3g2 = (einsum("uxc,czob->uxbzo", G1, mu) + einsum("xzoa,uba->uxbzo", mu, G2)
            + einsum("uzc,xcob->uxbzo", G1, mu)
            + einsum("uoa,zxba->uxbzo", DX, G2w) + einsum("uoa,xbza->uxbzo", DX, G3)
            + einsum("uxc,czbo->uxbzo", TX, G2w) - einsum("uxc,cbzo->uxbzo", TX, G3)
            + einsum("uab,xzao->uxbzo", DX, G2w) - einsum("uab,xazo->uxbzo", DX, G3)
            - einsum("uzc,cxbo->uxbzo", TX, G2w) - einsum("uzc,xbco->uxbzo", TX, G3)
            - einsum("xzab,uao->uxbzo", mu, G2)
            - einsum("zxw,uwbo->uxbzo", wedge, c2g))

    return PairCochain.from_blocks(3, n, m, {
        "c1f": c1f,
        "c1g": c1g,
        "c2f": c2f.reshape(w, n * m, m),
        "c2g": c2g,
        "c3f1": c3f1.reshape(n * m, w, m),
        "c3g1": c3g1.reshape(n * m, w, n, m),
        "c3g2": c3g2.reshape(w, n * m, n, m),
    })


def _structure(pair: LieYRepPair):
    """The pair's [.,.], <<.,.,.>>, rho, mu and D as exact arrays."""
    alg, rep = pair.algebra, pair.rep
    return alg.b_arr, alg.t_arr, rep.rho_arr, rep.mu_arr, pair.d

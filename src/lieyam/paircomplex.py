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
  and project back.  The coboundary is the semidirect product's term
  table (yamaguti._Terms), applied one term at a time to the flat
  lifted cochain, whose entries may be scalars or linear forms
  (LinComb): scalar entries give the coboundary of one cochain, and the
  basis cochain whose flat coordinate j is the linear form e_j gives the
  whole coboundary matrix in one pass.  Projection verifies membership
  in the lifted subspace on every entry -- once for the whole matrix,
  which by linearity is the check on every basis column -- and raises
  NotInSubcomplexError with a witness (for a matrix, the first offending
  column) otherwise.  The semidirect product and its term table are
  built once per pair and kept on it.
* the *direct* path: closed formulas at degrees 1 and 2, written out
  component by component.  Published versions of these formulas leave
  several index conventions ambiguous; the expansions implemented here
  were fixed against the lifted path, and the two paths are asserted to
  agree entry-for-entry in the test suite.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    DegreeCapExceededError,
    DimMismatchError,
    NotInSubcomplexError,
    UnsupportedDegreeError,
)
from .linalg import LinComb, Matrix, lincomb_is_zero, vadd, vneg, vscale, vsub, vzero
from .reps import LieYRepPair, _assert_adjoint_d, adjoint_rep
from .scalars import is_zero
from .yamaguti import YamagutiCochain, _apply, _terms, wedge_dim, wedge_index_map, wedge_pairs

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


class _PairComplex:
    """Semidirect complex and wedge-classification tables for one pair."""

    def __init__(self, pair: LieYRepPair):
        self.n = pair.dim_g
        self.m = pair.dim_v
        self.w = wedge_dim(self.n)
        self.mx = self.n * self.m
        self.E = pair.semidirect()
        self.adjE = adjoint_rep(self.E, check=False)
        self.terms = _terms(self.E, self.adjE)
        _assert_adjoint_d(self.E, self.terms.d)
        self.dimE = self.E.dim
        self.pairsE = wedge_pairs(self.dimE)
        self.widxE = wedge_index_map(self.dimE)
        self.widx_g = wedge_index_map(self.n)
        self.pairs_g = wedge_pairs(self.n)
        # classification of E-wedge indices
        self.kind = []
        for (i, j) in self.pairsE:
            if j < self.n:
                self.kind.append(("gg", self.widx_g[(i, j)]))
            elif i < self.n:
                self.kind.append(("gv", i * self.m + (j - self.n)))
            else:
                self.kind.append(("vv", None))
        self.gg_to_E = [self.widxE[p] for p in self.pairs_g]
        self.gv_to_E = [
            self.widxE[(x, self.n + b)] for x in range(self.n) for b in range(self.m)
        ]

    def wedge_g_expand(self, c, x):
        """e_c ^ e_x in the g wedge basis as [(index, sign)]."""
        if c == x:
            return []
        if c < x:
            return [(self.widx_g[(c, x)], 1)]
        return [(self.widx_g[(x, c)], -1)]


def _pc(pair: LieYRepPair) -> _PairComplex:
    """The pair's semidirect complex, built on first use and kept on the pair."""
    if pair._pair_complex is None:
        pair._pair_complex = _PairComplex(pair)
    return pair._pair_complex


def lift(pair: LieYRepPair, c: PairCochain) -> YamagutiCochain:
    """Embed a pair cochain into the semidirect Yamaguti complex."""
    pc = _pc(pair)
    if (c.n, c.m) != (pc.n, pc.m):
        raise DimMismatchError("cochain does not match the pair")
    nE = pc.dimE
    if c.degree == 1:
        f1, f2 = c.f1_matrix, c.f2_matrix
        rows = []
        for i in range(nE):
            row = []
            for j in range(nE):
                if i < pc.n and j < pc.n:
                    row.append(f1[i, j])
                elif i >= pc.n and j >= pc.n:
                    row.append(f2[i - pc.n, j - pc.n])
                else:
                    row.append(0)
            rows.append(tuple(row))
        return YamagutiCochain(1, nE, nE, f=Matrix(rows))

    k = c.degree - 1
    wE = wedge_dim(nE)
    zeroE = [0] * nE

    def vpad(vec):
        return [0] * pc.n + list(vec)

    def gpad(vec):
        return list(vec) + [0] * pc.m

    f_flat, g_flat = [], []
    for tup in product(range(wE), repeat=k):
        kinds = [pc.kind[wi] for wi in tup]
        n_gv = sum(1 for kd, _ in kinds if kd == "gv")
        n_vv = sum(1 for kd, _ in kinds if kd == "vv")
        # F value
        if n_vv or n_gv > 1:
            fval = zeroE
        elif n_gv == 0:
            gtup = tuple(kd[1] for kd in kinds)
            fval = gpad(c.value("c1f", gtup))
        else:
            pos = next(i for i, (kd, _) in enumerate(kinds) if kd == "gv")
            mix = kinds[pos][1]
            rest = tuple(kinds[i][1] for i in range(k) if i != pos)
            if pos == k - 1:
                fval = vpad(c.value("c2f", rest + (mix,)))
            else:
                fval = vpad(c.value(f"c3f{pos + 1}", rest[:pos] + (mix,) + rest[pos:]))
        f_flat.extend(fval)
        # G values over the final argument
        for fin in range(nE):
            if n_vv or n_gv > 1:
                g_flat.extend(zeroE)
                continue
            if n_gv == 0:
                gtup = tuple(kd[1] for kd in kinds)
                if fin < pc.n:
                    g_flat.extend(gpad(c.value("c1g", gtup + (fin,))))
                else:
                    g_flat.extend(vpad(c.value("c2g", gtup + (fin - pc.n,))))
                continue
            pos = next(i for i, (kd, _) in enumerate(kinds) if kd == "gv")
            mix = kinds[pos][1]
            rest = tuple(kinds[i][1] for i in range(k) if i != pos)
            if fin >= pc.n:
                g_flat.extend(zeroE)
                continue
            val = list(c.value(f"c3g{pos + 1}", rest[:pos] + (mix,) + rest[pos:] + (fin,)))
            if pos == k - 1:
                x, beta = divmod(mix, pc.m)
                for w2, sgn in pc.wedge_g_expand(fin, x):
                    term = c.value("c2g", rest + (w2, beta))
                    val = [a + sgn * b for a, b in zip(val, term)]
            g_flat.extend(vpad(val))
    return YamagutiCochain(c.degree, nE, nE, f=f_flat, g=g_flat)


def project(pair: LieYRepPair, lifted: YamagutiCochain) -> PairCochain:
    """Left inverse of lift; raises NotInSubcomplexError on non-members."""
    pc = _pc(pair)
    if lifted.adim != pc.dimE or lifted.mdim != pc.dimE:
        raise DimMismatchError("lifted cochain does not live on the semidirect algebra")
    n, m = pc.n, pc.m
    if lifted.degree == 1:
        fm = lifted.f
        f1 = Matrix(tuple(tuple(fm[i, j] for j in range(n)) for i in range(n)))
        f2 = Matrix(tuple(tuple(fm[n + i, n + j] for j in range(m)) for i in range(m)))
        out = PairCochain.degree1(f1, f2)
    else:
        k = lifted.degree - 1
        out = PairCochain(lifted.degree, n, m)
        for name, shape in out.shapes.items():
            lead = shape[:-1]
            for idx in product(*(range(s) for s in lead)):
                out.set_value(name, idx, _extract(pc, lifted, name, idx, k))
    _verify_lift(pair, out, lifted)
    return out


def _extract(pc, lifted, name, idx, k):
    n, m = pc.n, pc.m
    if name == "c1f":
        tup = tuple(pc.gg_to_E[w] for w in idx)
        return lifted.f_at(tup)[:n]
    if name == "c1g":
        tup = tuple(pc.gg_to_E[w] for w in idx[:-1])
        return lifted.g_at(tup, idx[-1])[:n]
    if name == "c2f":
        heads, mix = idx[:-1], idx[-1]
        tup = tuple(pc.gg_to_E[w] for w in heads) + (pc.gv_to_E[mix],)
        return lifted.f_at(tup)[n:]
    if name == "c2g":
        tup = tuple(pc.gg_to_E[w] for w in idx[:-1])
        return lifted.g_at(tup, n + idx[-1])[n:]
    if name.startswith("c3f"):
        i = int(name[3:])
        slots = tuple(
            pc.gv_to_E[v] if pos == i - 1 else pc.gg_to_E[v] for pos, v in enumerate(idx)
        )
        return lifted.f_at(slots)[n:]
    if name.startswith("c3g"):
        j = int(name[3:])
        mix = idx[j - 1]
        fin = idx[-1]
        slots = tuple(
            pc.gv_to_E[v] if pos == j - 1 else pc.gg_to_E[v]
            for pos, v in enumerate(idx[:-1])
        )
        val = list(lifted.g_at(slots, fin)[n:])
        if j == k:
            # remove the overlapping comp2-g contribution of the lift
            x, beta = divmod(mix, m)
            heads = idx[:j - 1]
            for w2, sgn in pc.wedge_g_expand(fin, x):
                tup2 = tuple(pc.gg_to_E[v] for v in heads + (w2,))
                term = lifted.g_at(tup2, n + beta)
                val = [a - sgn * b for a, b in zip(val, term[n:])]
        return val
    raise AssertionError(name)


def _verify_lift(pair, projected, lifted):
    """Check lifted == lift(projected) entry by entry, over any entry ring.

    With linear-form entries (a whole coboundary matrix) the check covers
    every basis column at once; the witness names the first offending
    column and gives its coefficients at the first entry where they differ.
    """
    relift = lift(pair, projected)
    if lifted.degree == 1:
        parts = [("degree-1 semidirect cochain mixes the g and V blocks",
                  [x for row in relift.f.data for x in row],
                  [x for row in lifted.f.data for x in row])]
    else:
        parts = [("semidirect cochain is not in the lifted subspace (f part)",
                  relift.f_flat, lifted.f_flat),
                 ("semidirect cochain is not in the lifted subspace (g part)",
                  relift.g_flat, lifted.g_flat)]
    hit = None
    for message, expected, found in parts:
        for pos, (a, b) in enumerate(zip(expected, found)):
            diff = a - b
            if lincomb_is_zero(diff):
                continue
            col = min(diff.terms) if isinstance(diff, LinComb) else -1
            if hit is None or col < hit[0]:
                hit = (col, message, pos, a, b)
    if hit is None:
        return
    col, message, pos, a, b = hit
    where = {"entry": divmod(pos, lifted.adim)} if lifted.degree == 1 else {"flat_index": pos}
    if col < 0:
        witness = {**where, "expected": a, "found": b}
    else:
        witness = {"column": col, **where,
                   "expected": _coefficient(a, col), "found": _coefficient(b, col)}
    raise NotInSubcomplexError(message, witness=witness)


def _coefficient(x, col):
    return x.terms.get(col, 0) if isinstance(x, LinComb) else x


# ---------------------------------------------------------------------------
# coboundary, lifted path


def _check_cap(degree, cap):
    if degree + 1 > cap:
        raise DegreeCapExceededError(f"degree {degree + 1} exceeds pair cap {cap}")


def _delta_through_lift(pair: LieYRepPair, c: PairCochain) -> PairCochain:
    """project o delta_E o lift, over the entry ring of c."""
    return project(pair, _apply(_pc(pair).terms, lift(pair, c)))


def pair_delta_lifted(pair: LieYRepPair, c: PairCochain,
                      cap: int = DEFAULT_PAIR_CAP) -> PairCochain:
    """Coboundary via the semidirect embedding (reference implementation)."""
    _check_cap(c.degree, cap)
    return _delta_through_lift(pair, c)


def pair_delta_matrix(pair: LieYRepPair, degree: int,
                      cap: int = DEFAULT_PAIR_CAP) -> Matrix:
    """Matrix of the pair coboundary in the canonical flat bases.

    One pass of the lifted path over the basis cochain whose flat
    coordinate j is the linear form e_j; column j is the coboundary of
    the j-th basis cochain.
    """
    _check_cap(degree, cap)
    size = pair_cochain_dim(pair.dim_g, pair.dim_v, degree)
    basis = PairCochain.unflatten(degree, pair.dim_g, pair.dim_v,
                                  [LinComb.unit(j) for j in range(size)])
    return Matrix.from_linear_forms(_delta_through_lift(pair, basis).flatten(), size)


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
    comp1_in = YamagutiCochain(2, n, n, f=list(c.blocks["c1f"]), g=list(c.blocks["c1g"]))
    comp1_out = _apply(terms, comp1_in)
    out.blocks["c1f"] = list(comp1_out.f_flat)
    out.blocks["c1g"] = list(comp1_out.g_flat)

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

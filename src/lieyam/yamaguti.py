"""The Yamaguti cochain complex of a Lie-Yamaguti algebra with coefficients.

Cochains of degree p >= 2 are pairs (f, g) of multilinear maps

    f : (wedge^2 g)^n          -> V      (n = p - 1)
    g : (wedge^2 g)^n (x) g    -> V

a degree-1 cochain is a single linear map f : g -> V.  Wedge arguments
are stored against the canonical wedge basis {e_i ^ e_j : i < j} in
lexicographic order; arbitrary x ^ y inputs are normalized by
antisymmetric expansion.

With X_k = x_k ^ y_k and X^_k meaning that X_k is left out, the
coboundary of (f, g) is

    f'(X_1..X_{n+1})    = (-1)^n [rho(x_{n+1}) g(X_1..X_n, y_{n+1})
                                  - rho(y_{n+1}) g(X_1..X_n, x_{n+1})
                                  - g(X_1..X_n, [x_{n+1}, y_{n+1}])]
                          + sum_{k <= n} (-1)^(k+1) D(X_k) f(..X^_k..)
                          + sum_{k < l} (-1)^k f(..X^_k..X_k o X_l..)
    g'(X_1..X_{n+1}, z) = (-1)^n [mu(y_{n+1}, z) g(X_1..X_n, x_{n+1})
                                  - mu(x_{n+1}, z) g(X_1..X_n, y_{n+1})]
                          + sum_k (-1)^(k+1) D(X_k) g(..X^_k.., z)
                          + sum_{k < l} (-1)^k g(..X^_k..X_k o X_l.., z)
                          + sum_k (-1)^k g(..X^_k.., <<x_k, y_k, z>>)

with the composite argument

    X_k o X_l = <<x_k,y_k,x_l>> ^ y_l + x_l ^ <<x_k,y_k,y_l>>.

At p = 1 (n = 0) the same formulas hold with g := f and no f input.

Each term above is an exact coefficient array over the slots it reads
and writes, times the identity on the other slots (`_Terms`).  Its
nonzero entries, broadcast against the row-major strides of the flat
input and output layouts, are the term's (row, column, value) triples:
delta_matrix sums them into a matrix, and `_apply` applies them one
term at a time to a flat cochain, without building the whole operator.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .algebra import LieYamagutiAlgebra
from .errors import DegreeCapExceededError, DimMismatchError
from .linalg import Matrix, normalize
from .reps import Representation, _derived
from .scalars import is_zero

DEFAULT_DEGREE_CAP = 4


def wedge_pairs(dim):
    """Canonical wedge basis as (i, j) pairs with i < j, lex order."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def wedge_index_map(dim):
    return {pair: w for w, pair in enumerate(wedge_pairs(dim))}


def wedge_dim(dim):
    return dim * (dim - 1) // 2


class YamagutiCochain:
    """A cochain of the Yamaguti complex, stored densely.

    degree 1: ``f`` is a module_dim x dim matrix (columns = values on
    basis vectors), ``g`` is None.  degree p = n+1 >= 2: ``f_flat`` has
    wdim^n * mdim entries, ``g_flat`` has wdim^n * adim * mdim entries,
    both in row-major order with the output coordinate last.
    """

    def __init__(self, degree, adim, mdim, f=None, g=None):
        self.degree = int(degree)
        self.adim = adim
        self.mdim = mdim
        self.wdim = wedge_dim(adim)
        if self.degree < 1:
            raise DimMismatchError("cochain degree must be >= 1")
        self.n = self.degree - 1
        if self.degree == 1:
            self.f = f if f is not None else Matrix.zero(mdim, adim)
            if self.f.rows != mdim or self.f.cols != adim:
                raise DimMismatchError("degree-1 cochain matrix must be module_dim x dim")
            self.g = None
        else:
            fsize = self.wdim**self.n * mdim
            gsize = self.wdim**self.n * adim * mdim
            self.f_flat = list(f) if f is not None else [0] * fsize
            self.g_flat = list(g) if g is not None else [0] * gsize
            if len(self.f_flat) != fsize or len(self.g_flat) != gsize:
                raise DimMismatchError("cochain storage does not match the degree")

    # -- evaluation (degree >= 2) ---------------------------------------------

    def _fpos(self, wtup):
        pos = 0
        for w in wtup:
            pos = pos * self.wdim + w
        return pos

    def f_at(self, wtup):
        pos = self._fpos(wtup) * self.mdim
        return self.f_flat[pos:pos + self.mdim]

    def g_at(self, wtup, z):
        pos = (self._fpos(wtup) * self.adim + z) * self.mdim
        return self.g_flat[pos:pos + self.mdim]

    # -- structure -------------------------------------------------------------

    def is_zero(self):
        if self.degree == 1:
            return self.f.is_zero()
        return all(is_zero(x) for x in self.f_flat) and all(is_zero(x) for x in self.g_flat)

    def __eq__(self, other):
        if not isinstance(other, YamagutiCochain):
            return NotImplemented
        if (self.degree, self.adim, self.mdim) != (other.degree, other.adim, other.mdim):
            return False
        if self.degree == 1:
            return self.f == other.f
        return all(is_zero(a - b) for a, b in zip(self.f_flat, other.f_flat)) and all(
            is_zero(a - b) for a, b in zip(self.g_flat, other.g_flat)
        )

    def __add__(self, other):
        self._same_shape(other)
        if self.degree == 1:
            return YamagutiCochain(1, self.adim, self.mdim, f=self.f + other.f)
        return YamagutiCochain(
            self.degree, self.adim, self.mdim,
            f=[a + b for a, b in zip(self.f_flat, other.f_flat)],
            g=[a + b for a, b in zip(self.g_flat, other.g_flat)],
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        if self.degree == 1:
            return YamagutiCochain(1, self.adim, self.mdim, f=self.f.scale(s))
        return YamagutiCochain(
            self.degree, self.adim, self.mdim,
            f=[s * x for x in self.f_flat],
            g=[s * x for x in self.g_flat],
        )

    def _same_shape(self, other):
        if (self.degree, self.adim, self.mdim) != (other.degree, other.adim, other.mdim):
            raise DimMismatchError("cochain shape mismatch")

    # -- flattening (fixed coordinate order shared with delta_matrix) ----------

    def flatten(self):
        if self.degree == 1:
            return [self.f[o, x] for x in range(self.adim) for o in range(self.mdim)]
        return list(self.f_flat) + list(self.g_flat)

    @classmethod
    def unflatten(cls, degree, adim, mdim, coords):
        if degree == 1:
            f = Matrix(tuple(tuple(coords[x * mdim + o] for x in range(adim)) for o in range(mdim)), adim)
            return cls(1, adim, mdim, f=f)
        n = degree - 1
        fsize = wedge_dim(adim)**n * mdim
        return cls(degree, adim, mdim, f=coords[:fsize], g=coords[fsize:])

    def __repr__(self):
        return f"YamagutiCochain(degree={self.degree}, adim={self.adim}, mdim={self.mdim})"


def cochain_dim(adim, mdim, degree):
    """Dimension of the degree-p cochain space."""
    if degree == 1:
        return adim * mdim
    n = degree - 1
    w = wedge_dim(adim)
    return w**n * mdim + w**n * adim * mdim


def zero_cochain(alg, rep, degree):
    return YamagutiCochain(degree, alg.dim, rep.module_dim)


def random_cochain(alg, rep, degree, rng, lo=-3, hi=3):
    """Dense random integer-valued cochain (for property tests)."""
    size = cochain_dim(alg.dim, rep.module_dim, degree)
    coords = [rng.randint(lo, hi) for _ in range(size)]
    return YamagutiCochain.unflatten(degree, alg.dim, rep.module_dim, coords)


# ---------------------------------------------------------------------------
# coboundary


class _Terms:
    """The coboundary of one (algebra, representation) as a table of terms.

    Each coefficient array has its output slots first, then its input
    slots (w: a wedge slot; z, s: a final argument; o, a: V):

    * rho_b[w, o, s, a]: rho(x_w) g(.., y_w) - rho(y_w) g(.., x_w) - g(.., [x_w, y_w]);
    * mu_dt[w, z, o, s, a]: mu(y_w, z) g(.., x_w) - mu(x_w, z) g(.., y_w) plus dt[w],
      the g' terms that read the last slot;
    * dt[w, z, o, s, a]: D(X_w) g(.., z) - g(.., <<x_w, y_w, z>>);
    * d[w, o, a]: D(X_w) f(..);
    * circ[k, l, w]: the coefficient of wedge w in X_k o X_l.
    """

    def __init__(self, alg: LieYamagutiAlgebra, rep: Representation):
        self.alg = alg
        self.adim, self.mdim, self.wdim = alg.dim, rep.module_dim, wedge_dim(alg.dim)
        self.d = _derived(alg, rep)
        x, y = np.triu_indices(alg.dim, 1)
        ia, im = np.identity(alg.dim, dtype=object), np.identity(rep.module_dim, dtype=object)
        # the table holds exact object arrays: its values multiply cochain entries
        rho, mu, d, t, b = (np.asarray(a) for a in (rep.rho_arr, rep.mu_arr, self.d.arr[x, y],
                                                    alg.t_arr[x, y], alg.b_arr[x, y]))
        dt = np.einsum("zs,woa->wzosa", ia, d) - np.einsum("wzs,oa->wzosa", t, im)
        # X_k o X_l: <<X_k, e_c>> is t[k, c], and e_c ^ e_j is wedge[c, j]
        wedge = np.zeros((alg.dim, alg.dim, self.wdim), dtype=object)
        wedge[x, y, np.arange(self.wdim)] = 1
        wedge[y, x, np.arange(self.wdim)] = -1
        self.circ = (np.einsum("klc,clw->klw", t[:, x], wedge[:, y])
                     + np.einsum("klc,lcw->klw", t[:, y], wedge[x]))
        arrays = {
            "rho_b": np.einsum("ws,woa->wosa", ia[y], rho[x]) - np.einsum("ws,woa->wosa", ia[x], rho[y])
            - np.einsum("ws,oa->wosa", b, im),
            "mu_dt": np.einsum("ws,wzoa->wzosa", ia[x], mu[y]) - np.einsum("ws,wzoa->wzosa", ia[y], mu[x])
            + dt,
            "dt": dt,
            "d": d,
            "circ": self.circ,
        }
        # per array: its nonzero positions (one row per axis, then a row of
        # ones that picks up the block offsets) and their values
        self.nonzeros = {}
        for name, arr in arrays.items():
            pos = np.array(np.nonzero(arr)).reshape(arr.ndim, -1)
            self.nonzeros[name] = (np.vstack([pos, np.ones_like(pos[:1])]), normalize(arr[tuple(pos)]))

    def triples(self, p):
        """(rows, cols, vals) of each term of delta_p in the flat layouts.

        A term is one coefficient array at each of its K slot placements:
        rows and cols are (K, E, I) arrays and vals a (K, E) array, for
        nonzero entry e of the array and identity index i.  Within one
        placement every (row, col) occurs once, and the entries with
        the same output slots share their rows and are consecutive.
        """
        n, w, a, m = p - 1, self.wdim, self.adim, self.mdim
        f_out, g_out = ((w,) * (n + 1) + (m,), 0), ((w,) * (n + 1) + (a, m), w ** (n + 1) * m)
        f_in, g_in = ((w,) * n + (m,), 0), ((w,) * n + (a, m), w**n * m if n else 0)
        yield self._term("rho_b", f_out, g_in, [((-1) ** n, (n, n + 1), (n, n + 1))])
        yield self._term("mu_dt", g_out, g_in, [((-1) ** n, (n, n + 1, n + 2), (n, n + 1))])
        if n:
            yield self._term("d", f_out, f_in, [((-1) ** k, (k, n + 1), (n,)) for k in range(n)])
            yield self._term("dt", g_out, g_in,
                             [((-1) ** k, (k, n + 1, n + 2), (n, n + 1)) for k in range(n)])
            circ = [((-1) ** (k + 1), (k, l), (l - 1,)) for k in range(n) for l in range(k + 1, n + 1)]
            yield self._term("circ", f_out, f_in, circ)
            yield self._term("circ", g_out, g_in, circ)

    def _term(self, name, out, inp, placements):
        """Triples of array `name` in the output block `out` and input block
        `inp` (each a (shape, offset) pair).  A placement (sign, out_axes,
        in_axes) puts the array's axes at those axes of the two blocks and
        pairs their other axes, in order, by the identity."""
        pos, vals = self.nonzeros[name]
        (out_shape, out_off), (in_shape, in_off) = out, inp
        so, si = _strides(out_shape), _strides(in_shape)
        local, ident, signs = [], [], []
        for sign, out_axes, in_axes in placements:
            local.append([[so[i] for i in out_axes] + [0] * len(in_axes) + [out_off],
                          [0] * len(out_axes) + [si[i] for i in in_axes] + [in_off]])
            ident.append([[x for i, x in enumerate(so) if i not in out_axes],
                          [x for i, x in enumerate(si) if i not in in_axes]])
            signs.append(sign)
        sizes = [x for i, x in enumerate(out_shape) if i not in placements[0][1]]
        grid = np.indices(sizes).reshape(len(sizes), prod(sizes))
        offsets = np.array(ident, dtype=np.int64) @ grid
        index = (np.array(local, dtype=np.int64) @ pos)[..., None] + offsets[:, :, None, :]
        return index[:, 0], index[:, 1], np.array(signs, dtype=object)[:, None] * vals


def _strides(shape):
    """Row-major strides of a flat layout, in entries."""
    out = [1]
    for size in shape[:0:-1]:
        out.append(out[-1] * size)
    return out[::-1]


def _terms(alg: LieYamagutiAlgebra, rep: Representation) -> _Terms:
    """The term table of (alg, rep), built on first use and kept on rep."""
    if rep._coboundary_terms is None or rep._coboundary_terms.alg is not alg:
        rep._coboundary_terms = _Terms(alg, rep)
    return rep._coboundary_terms


def _flat(entries):
    """A list of cochain entries as a flat object array."""
    out = np.empty(len(entries), dtype=object)
    out[:] = entries
    return out


def _apply(terms: _Terms, p: int, x):
    """delta_p of the flat cochain x (an object array), one term at a time."""
    out = np.zeros(cochain_dim(terms.adim, terms.mdim, p + 1), dtype=object)
    for rows, cols, vals in terms.triples(p):
        if rows.size:
            # one sum per run of equal rows, i.e. per value of the output slots
            starts = np.flatnonzero(np.diff(rows[0, :, 0], prepend=-1))
            sums = np.add.reduceat(vals[:, :, None] * x[cols], starts, axis=1)
            for r, v in zip(rows[:, starts], sums):
                out[r] += v
    return out


def delta(alg: LieYamagutiAlgebra, rep: Representation, c: YamagutiCochain,
          cap: int = DEFAULT_DEGREE_CAP) -> YamagutiCochain:
    """Coboundary of a cochain (degree p -> p+1)."""
    if c.degree + 1 > cap:
        raise DegreeCapExceededError(f"degree {c.degree + 1} exceeds cap {cap}")
    if c.adim != alg.dim or c.mdim != rep.module_dim:
        raise DimMismatchError("cochain does not match the complex")
    out = _apply(_terms(alg, rep), c.degree, _flat(c.flatten()))
    return YamagutiCochain.unflatten(c.degree + 1, alg.dim, rep.module_dim, out.tolist())


def delta_matrix(alg: LieYamagutiAlgebra, rep: Representation, p: int,
                 cap: int = DEFAULT_DEGREE_CAP) -> Matrix:
    """Matrix of the coboundary C^p -> C^{p+1} in the canonical flat bases:
    the sum of the triples of every term."""
    if p + 1 > cap:
        raise DegreeCapExceededError(f"degree {p + 1} exceeds cap {cap}")
    if p < 1:
        raise DimMismatchError("cochain degree must be >= 1")
    rows, cols = (cochain_dim(alg.dim, rep.module_dim, q) for q in (p + 1, p))
    triples = ((r, c, np.broadcast_to(v[..., None], r.shape)) for r, c, v in _terms(alg, rep).triples(p))
    return Matrix(_assemble(rows, cols, triples).tolist(), cols)


def _assemble(rows, cols, triples):
    """The dense (rows, cols) object array that sums the triples (row
    indices, column indices, values: arrays of one shape; repeats add up)."""
    flat = np.zeros(rows * cols, dtype=object)
    for r, c, vals in triples:
        np.add.at(flat, (r * cols + c).ravel(), vals.ravel())
    return flat.reshape(rows, cols)


def cohomology_dim(alg: LieYamagutiAlgebra, rep: Representation, p: int,
                   cap: int = DEFAULT_DEGREE_CAP) -> int:
    """dim H^p: nullity(delta_p) minus rank(delta_{p-1}) (p = 1: plain nullity)."""
    if p < 1:
        raise DimMismatchError("cohomology degree must be >= 1")
    dp = delta_matrix(alg, rep, p, cap=cap)
    kernel = dp.nullspace_dim()
    if p == 1:
        return kernel
    dprev = delta_matrix(alg, rep, p - 1, cap=cap)
    return kernel - dprev.rank()

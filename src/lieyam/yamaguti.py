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
input and output layouts, are the term's (row, column, value) triples,
the values as integer numerators over one denominator of the table:
delta_matrix sums them into the numerator array of its matrix (int64
under the bound their magnitudes give), and `_apply` applies them one
term at a time to a flat cochain, without building the whole operator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .algebra import LieYamagutiAlgebra
from .errors import DegreeCapExceededError, DimMismatchError, PolynomialEntriesError
from .linalg import INT64_LIMIT, ExactArray, Matrix, exact, normalize
from .reps import Representation, _derived

DEFAULT_DEGREE_CAP = 4


def wedge_pairs(dim):
    """Canonical wedge basis as (i, j) pairs with i < j, lex order."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def wedge_index_map(dim):
    return {pair: w for w, pair in enumerate(wedge_pairs(dim))}


def wedge_dim(dim):
    return dim * (dim - 1) // 2


class YamagutiCochain:
    """A cochain of the Yamaguti complex: one flat object array `flat` in
    the canonical coordinate order (the one delta_matrix uses).

    degree 1: flat[x * mdim + o] is f(e_x)_o, and ``f`` is the map as a
    module_dim x dim Matrix (columns = values on basis vectors), built on
    access.  degree p = n+1 >= 2: ``f_flat`` (wdim^n * mdim entries) and
    ``g_flat`` (wdim^n * adim * mdim entries) are views of flat, both in
    row-major order with the output coordinate last.
    """

    def __init__(self, degree, adim, mdim, f=None, g=None):
        """degree 1: f a Matrix; degree >= 2: f and g flat entry sequences.  Zero by default."""
        if int(degree) < 1:
            raise DimMismatchError("cochain degree must be >= 1")
        if int(degree) == 1:
            f = Matrix.zero(mdim, adim) if f is None else f
            if f.rows != mdim or f.cols != adim:
                raise DimMismatchError("degree-1 cochain matrix must be module_dim x dim")
            flat = np.asarray(f.arr).T.flatten()
        else:
            fsize, gsize = _fg_sizes(int(degree), adim, mdim)
            f = np.zeros(fsize, dtype=object) if f is None else _flat(f)
            g = np.zeros(gsize, dtype=object) if g is None else _flat(g)
            if len(f) != fsize or len(g) != gsize:
                raise DimMismatchError("cochain storage does not match the degree")
            flat = np.concatenate([f, g])
        self._keep(int(degree), adim, mdim, flat)

    def _keep(self, degree, adim, mdim, flat):
        self.degree, self.adim, self.mdim = degree, adim, mdim
        self.wdim = wedge_dim(adim)
        self.n = degree - 1
        self.flat = flat
        if degree > 1:
            fsize = _fg_sizes(degree, adim, mdim)[0]
            self.f_flat, self.g_flat = flat[:fsize], flat[fsize:]

    @property
    def f(self):
        """The degree-1 map as a module_dim x dim Matrix."""
        return Matrix.from_array(self.flat.reshape(self.adim, self.mdim).T)

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
        return not (self.flat != 0).any()

    def __eq__(self, other):
        if not isinstance(other, YamagutiCochain):
            return NotImplemented
        if (self.degree, self.adim, self.mdim) != (other.degree, other.adim, other.mdim):
            return False
        return not (self.flat - other.flat != 0).any()

    def __add__(self, other):
        self._same_shape(other)
        return YamagutiCochain.unflatten(self.degree, self.adim, self.mdim, self.flat + other.flat)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return YamagutiCochain.unflatten(self.degree, self.adim, self.mdim, self.flat * s)

    def _same_shape(self, other):
        if (self.degree, self.adim, self.mdim) != (other.degree, other.adim, other.mdim):
            raise DimMismatchError("cochain shape mismatch")

    # -- flattening (fixed coordinate order shared with delta_matrix) ----------

    def flatten(self):
        return self.flat.tolist()

    @classmethod
    def unflatten(cls, degree, adim, mdim, coords):
        """The cochain of flat coordinates; an object array is kept, not copied."""
        if int(degree) < 1:
            raise DimMismatchError("cochain degree must be >= 1")
        flat = _flat(coords)
        if len(flat) != cochain_dim(adim, mdim, degree):
            raise DimMismatchError("cochain storage does not match the degree")
        out = cls.__new__(cls)
        out._keep(int(degree), adim, mdim, flat)
        return out

    def __repr__(self):
        return f"YamagutiCochain(degree={self.degree}, adim={self.adim}, mdim={self.mdim})"


def _fg_sizes(degree, adim, mdim):
    """The entry counts of the f and g parts of a degree >= 2 cochain."""
    w = wedge_dim(adim) ** (degree - 1)
    return w * mdim, w * adim * mdim


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

    The arrays are ExactArrays; the table keeps the numerators of their
    nonzero entries over one common denominator `den` (int64 when they
    fit, Python ints otherwise).
    """

    def __init__(self, alg: LieYamagutiAlgebra, rep: Representation):
        self.alg = alg
        self.adim, self.mdim, self.wdim = alg.dim, rep.module_dim, wedge_dim(alg.dim)
        self.d = _derived(alg, rep)
        x, y = np.triu_indices(alg.dim, 1)
        ia, im = (exact(np.identity(k, dtype=np.int64)) for k in (alg.dim, rep.module_dim))
        rho, mu, d, t, b = rep.rho_arr, rep.mu_arr, self.d.arr[x, y], alg.t_arr[x, y], alg.b_arr[x, y]
        dt = np.einsum("zs,woa->wzosa", ia, d) - np.einsum("wzs,oa->wzosa", t, im)
        # X_k o X_l: <<X_k, e_c>> is t[k, c], and e_c ^ e_j is wedge[c, j]
        wedge = np.zeros((alg.dim, alg.dim, self.wdim), dtype=np.int64)
        wedge[x, y, np.arange(self.wdim)] = 1
        wedge[y, x, np.arange(self.wdim)] = -1
        wedge = exact(wedge)
        arrays = {
            "rho_b": np.einsum("ws,woa->wosa", ia[y], rho[x]) - np.einsum("ws,woa->wosa", ia[x], rho[y])
            - np.einsum("ws,oa->wosa", b, im),
            "mu_dt": np.einsum("ws,wzoa->wzosa", ia[x], mu[y]) - np.einsum("ws,wzoa->wzosa", ia[y], mu[x])
            + dt,
            "dt": dt,
            "d": d,
            "circ": np.einsum("klc,clw->klw", t[:, x], wedge[:, y])
            + np.einsum("klc,lcw->klw", t[:, y], wedge[x]),
        }
        if any(a.poly is not None for a in arrays.values()):
            raise PolynomialEntriesError("the coboundary needs rational structure constants; "
                                         "evaluate t first")
        # per array: its nonzero positions (one row per axis, then a row of
        # ones that picks up the block offsets) and their numerators over
        # the table's one denominator
        self.den = lcm(*(a.den for a in arrays.values()))
        self.nonzeros = {}
        for name, arr in arrays.items():
            pos = np.array(np.nonzero(arr.num)).reshape(arr.num.ndim, -1)
            scale = self.den // arr.den
            num = arr.num[tuple(pos)]
            if arr.bound * scale >= INT64_LIMIT:
                num = num.astype(object)
            self.nonzeros[name] = (np.vstack([pos, np.ones_like(pos[:1])]), num * scale)

    def triples(self, p):
        """(rows, cols, vals) of each term of delta_p in the flat layouts.

        A term is one coefficient array at each of its K slot placements:
        rows and cols are (K, E, I) arrays and vals a (K, E) array of
        numerators over `den`, for nonzero entry e of the array and
        identity index i.  Within one
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
        return index[:, 0], index[:, 1], np.array(signs)[:, None] * vals


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
    """Cochain entries as a flat object array: an object array as it is, a sequence copied."""
    if type(entries) is np.ndarray and entries.dtype == object:
        return entries
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
    return out if terms.den == 1 else normalize(out * Fraction(1, terms.den))


def delta(alg: LieYamagutiAlgebra, rep: Representation, c: YamagutiCochain,
          cap: int = DEFAULT_DEGREE_CAP) -> YamagutiCochain:
    """Coboundary of a cochain (degree p -> p+1)."""
    if c.degree + 1 > cap:
        raise DegreeCapExceededError(f"degree {c.degree + 1} exceeds cap {cap}")
    if c.adim != alg.dim or c.mdim != rep.module_dim:
        raise DimMismatchError("cochain does not match the complex")
    out = _apply(_terms(alg, rep), c.degree, c.flat)
    return YamagutiCochain.unflatten(c.degree + 1, alg.dim, rep.module_dim, out)


def delta_matrix(alg: LieYamagutiAlgebra, rep: Representation, p: int,
                 cap: int = DEFAULT_DEGREE_CAP) -> Matrix:
    """Matrix of the coboundary C^p -> C^{p+1} in the canonical flat bases:
    the sum of the triples of every term."""
    if p + 1 > cap:
        raise DegreeCapExceededError(f"degree {p + 1} exceeds cap {cap}")
    if p < 1:
        raise DimMismatchError("cochain degree must be >= 1")
    rows, cols = (cochain_dim(alg.dim, rep.module_dim, q) for q in (p + 1, p))
    terms = _terms(alg, rep)
    triples = [(r, c, np.broadcast_to(v[..., None], r.shape)) for r, c, v in terms.triples(p)]
    return Matrix.from_array(_assemble(rows, cols, triples, terms.den))


def _assemble(rows, cols, triples, den):
    """The (rows, cols) ExactArray over `den` that sums the triples (row
    indices, column indices, integer numerators: arrays of one shape;
    repeats add up).  No entry exceeds the sum of the numerators'
    magnitudes, which is its bound."""
    bound = sum(int(abs(v).max()) * v.size for _, _, v in triples if v.size)
    num = np.zeros(rows * cols, dtype=np.int64 if bound < INT64_LIMIT else object)
    for r, c, vals in triples:
        np.add.at(num, (r * cols + c).ravel(), vals.ravel())
    return ExactArray(num.reshape(rows, cols), den, bound)


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

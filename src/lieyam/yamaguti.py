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

A cochain (`Cochain`, here `YamagutiCochain`) is one 1-d ExactArray of
its coordinates, with its blocks (f, and g at p >= 2) as ExactArray
views of it, each of its block shape with the value last.

Each term above is an exact coefficient array over the slots it reads
and writes, times the identity on the other slots (`_Terms`).  Its
nonzero entries, broadcast against the row-major strides of the flat
input and output layouts, are the term's (row, column, value) triples,
the values as integer numerators over one denominator of the table.
One scatter-add (`_scatter`) sums them: delta_matrix sums the values
into the numerator array of its matrix, and `_apply` sums the values
times a cochain's numerators at their columns, without building the
whole operator.  Both are int64 under the bound the magnitudes give
and Python ints beyond it.
"""

from __future__ import annotations

from math import lcm, prod

import numpy as np

from .algebra import LieYamagutiAlgebra
from .errors import DegreeCapExceededError, DimMismatchError, PolynomialEntriesError
from .linalg import INT64_LIMIT, NUMERATOR_OPS, ExactArray, Matrix, exact
from .reps import Representation, _derived

DEFAULT_DEGREE_CAP = 4


def wedge_pairs(dim):
    """Canonical wedge basis as (i, j) pairs with i < j, lex order."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def wedge_index_map(dim):
    return {pair: w for w, pair in enumerate(wedge_pairs(dim))}


def wedge_dim(dim):
    return dim * (dim - 1) // 2


class Cochain:
    """A cochain: its coordinates as one 1-d ExactArray `flat`, in the
    canonical order (the one the coboundary matrices use), and its named
    blocks as ExactArray views of it (`blocks`), each of its block shape,
    arguments first and the value last.

    A subclass gives the ordered (name, shape) blocks of a degree
    (`block_shapes`) and the names of its two dimensions (`dim_names`);
    `dims` holds their values.  Cochains are not written to: the
    arithmetic returns new ones.
    """

    dim_names = ()

    def __init__(self, degree, dim1, dim2, flat=None):
        """The cochain of flat coordinates (zero by default); an ExactArray
        is kept, not copied."""
        self.degree, self.dims = int(degree), (dim1, dim2)
        if self.degree < 1:
            raise DimMismatchError("cochain degree must be >= 1")
        self.shapes = dict(self.block_shapes(self.degree, dim1, dim2))
        sizes = [prod(shape) for shape in self.shapes.values()]
        flat = exact(np.zeros(sum(sizes), dtype=np.int64) if flat is None else flat)
        if flat.poly:
            raise PolynomialEntriesError("cochain entries must be rational; evaluate t first")
        if flat.shape != (sum(sizes),):
            raise DimMismatchError("cochain storage does not match the degree")
        self.flat, self.blocks, pos = flat, {}, 0
        for (name, shape), size in zip(self.shapes.items(), sizes):
            self.blocks[name] = flat[pos:pos + size].reshape(shape)
            pos += size

    @classmethod
    def unflatten(cls, degree, dim1, dim2, coords):
        return cls(degree, dim1, dim2, coords)

    @classmethod
    def from_blocks(cls, degree, dim1, dim2, blocks):
        """The cochain with the given blocks (arrays of their block shapes),
        zero elsewhere, on the blocks' common denominator."""
        out = cls(degree, dim1, dim2)
        parts = dict(out.blocks)
        for name, block in blocks.items():
            parts[name] = exact(block)
            if parts[name].shape != out.shapes[name]:
                raise DimMismatchError(f"block {name} needs shape {out.shapes[name]}")
        return cls(degree, dim1, dim2, np.concatenate([x.ravel() for x in parts.values()]))

    def flatten(self):
        return self.flat.tolist()

    def is_zero(self):
        return not (self.flat != 0).any()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.degree, self.dims) == (other.degree, other.dims) and (self - other).is_zero()

    def __add__(self, other):
        self._same_shape(other)
        return type(self)(self.degree, *self.dims, self.flat + other.flat)

    def __sub__(self, other):
        self._same_shape(other)
        return type(self)(self.degree, *self.dims, self.flat - other.flat)

    def scale(self, s):
        return type(self)(self.degree, *self.dims, self.flat * s)

    def _same_shape(self, other):
        if type(other) is not type(self) or (self.degree, self.dims) != (other.degree, other.dims):
            raise DimMismatchError("cochain shape mismatch")

    def __repr__(self):
        dims = ", ".join(f"{k}={v}" for k, v in zip(self.dim_names, self.dims))
        return f"{type(self).__name__}(degree={self.degree}, {dims})"


class YamagutiCochain(Cochain):
    """A cochain of the Yamaguti complex of a dim-`adim` algebra with values
    in a dim-`mdim` module.

    degree 1: block f[x, o] = f(e_x)_o, and ``f`` is the map as an
    mdim x adim Matrix (columns = values on basis vectors).  degree
    p = n+1 >= 2: blocks f[w_1, .., w_n, o] and g[w_1, .., w_n, z, o].
    """

    dim_names = ("adim", "mdim")
    adim = property(lambda self: self.dims[0])
    mdim = property(lambda self: self.dims[1])

    @staticmethod
    def block_shapes(degree, adim, mdim):
        if degree == 1:
            return [("f", (adim, mdim))]
        wedges = (wedge_dim(adim),) * (degree - 1)
        return [("f", wedges + (mdim,)), ("g", wedges + (adim, mdim))]

    @property
    def f(self):
        """The degree-1 map as a module_dim x dim Matrix."""
        return Matrix.from_array(self.blocks["f"].T)

    def f_at(self, wtup):
        return self.blocks["f"][tuple(wtup)]

    def g_at(self, wtup, z):
        return self.blocks["g"][(*wtup, z)]


def cochain_dim(adim, mdim, degree):
    """Dimension of the degree-p cochain space."""
    return sum(prod(shape) for _, shape in YamagutiCochain.block_shapes(degree, adim, mdim))


def zero_cochain(alg, rep, degree):
    return YamagutiCochain(degree, alg.dim, rep.module_dim)


def random_cochain(alg, rep, degree, rng):
    """Dense random cochain with integer entries in [-3, 3] (for property tests)."""
    size = cochain_dim(alg.dim, rep.module_dim, degree)
    coords = [rng.randint(-3, 3) for _ in range(size)]
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
        if any(a.poly for a in arrays.values()):
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


def _apply(terms: _Terms, p: int, x: ExactArray) -> ExactArray:
    """delta_p of the flat cochain x: the triples' values times the
    numerators of x at their columns, summed at their rows.  An output
    entry takes at most one product per value (k, e) of a term, so the
    sum of the values' magnitudes times the bound of x bounds it."""
    triples = list(terms.triples(p))
    bound = x.bound * sum(int(abs(v).max()) * v.size for _, _, v in triples if v.size)
    num = x.num if bound < INT64_LIMIT else x.num.astype(object)
    return _scatter(cochain_dim(terms.adim, terms.mdim, p + 1),
                    [(r, v[..., None] * num[c]) for r, c, v in triples], terms.den * x.den, bound)


def delta(alg: LieYamagutiAlgebra, rep: Representation, c: YamagutiCochain,
          cap: int = DEFAULT_DEGREE_CAP) -> YamagutiCochain:
    """Coboundary of a cochain (degree p -> p+1)."""
    if c.degree + 1 > cap:
        raise DegreeCapExceededError(f"degree {c.degree + 1} exceeds cap {cap}")
    if c.adim != alg.dim or c.mdim != rep.module_dim:
        raise DimMismatchError("cochain does not match the complex")
    out = _apply(_terms(alg, rep), c.degree, c.flat)
    return YamagutiCochain(c.degree + 1, alg.dim, rep.module_dim, out)


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
    return _scatter(rows * cols, [(r * cols + c, v) for r, c, v in triples], den, bound).reshape(rows, cols)


def _scatter(size, pairs, den, bound):
    """The 1-d ExactArray of `size` entries over `den` that sums the pairs
    (flat indices, integer numerators: arrays of one shape; repeats add
    up) at their indices, for sums known to stay within `bound`."""
    fits = bound < INT64_LIMIT
    NUMERATOR_OPS["int64" if fits else "object"] += 1
    num = np.zeros(size, dtype=np.int64 if fits else object)
    for index, vals in pairs:
        np.add.at(num, index.ravel(), vals.ravel())
    return ExactArray(num, den, bound)


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

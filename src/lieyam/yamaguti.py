"""The Yamaguti cochain complex of a Lie-Yamaguti algebra with coefficients.

Cochains of degree p >= 2 are pairs (f, g) of multilinear maps

    f : (wedge^2 g)^n          -> V      (n = p - 1)
    g : (wedge^2 g)^n (x) g    -> V

a degree-1 cochain is a single linear map f : g -> V.  Wedge arguments
are stored against the canonical wedge basis {e_i ^ e_j : i < j} in
lexicographic order; arbitrary x ^ y inputs are normalized by
antisymmetric expansion.

The coboundary follows the classical two-component formula; the composite
argument operation is

    X_k o X_l = <<x_k,y_k,x_l>> ^ y_l + x_l ^ <<x_k,y_k,y_l>>.

The evaluation engine is generic over the entry ring, so the same code
computes concrete coboundaries (scalar entries) and coboundary matrices
(sparse linear-form entries); see delta_matrix.
"""

from __future__ import annotations

from itertools import product

from .algebra import LieYamagutiAlgebra
from .errors import DegreeCapExceededError, DimMismatchError
from .linalg import LinComb, Matrix, exact, lincomb_is_zero
from .reps import Representation, derived_D
from .scalars import is_zero

DEFAULT_DEGREE_CAP = 4


def _sparse_rows(mat):
    """Rows of an exact 2-d array (integral entries already ints) as tuples of
    (column, nonzero coefficient)."""
    return tuple(_sparse_vec(row) for row in mat)


def _sparse_vec(vec):
    return tuple((i, v) for i, v in enumerate(vec) if not is_zero(v))


def _apply_rows(rows, val):
    """Apply a sparse-row operator to a generic value vector."""
    out = []
    for row in rows:
        acc = 0
        for j, c in row:
            acc = acc + c * val[j]
        out.append(acc)
    return out


def wedge_pairs(dim):
    """Canonical wedge basis as (i, j) pairs with i < j, lex order."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def wedge_index_map(dim):
    return {pair: w for w, pair in enumerate(wedge_pairs(dim))}


def wedge_dim(dim):
    return dim * (dim - 1) // 2


class _Complex:
    """Precomputed contraction tables for one (algebra, representation)."""

    def __init__(self, alg: LieYamagutiAlgebra, rep: Representation):
        if rep.algebra_dim != alg.dim:
            raise DimMismatchError("representation does not match the algebra")
        self.alg = alg
        self.rep = rep
        self.adim = alg.dim
        self.mdim = rep.module_dim
        self.wdim = wedge_dim(alg.dim)
        self.pairs = wedge_pairs(alg.dim)
        self.widx = wedge_index_map(alg.dim)
        self.d = derived_D(alg, rep)
        # circ[wk][wl]: sparse expansion of X_k o X_l in the wedge basis
        self.circ = [[self._circ(k, l) for l in range(self.wdim)] for k in range(self.wdim)]
        # sparse operator tables for the hot loops, from the exact arrays
        self.rho_rows = [_sparse_rows(m) for m in rep.rho_arr]
        self.mu_rows = [[_sparse_rows(m) for m in row] for row in rep.mu_arr]
        self.d_rows = [_sparse_rows(self.d.arr[i, j]) for (i, j) in self.pairs]
        self.b_sp = [[_sparse_vec(v) for v in row] for row in alg.b_arr]
        self.t_sp = [[[_sparse_vec(v) for v in col] for col in row] for row in alg.t_arr]

    def _wedge_of(self, vec, j, side):
        """Sparse wedge-basis expansion of vec ^ e_j (side='L') or e_j ^ vec."""
        out = []
        for c, v in enumerate(vec):
            if is_zero(v) or c == j:
                continue
            if c < j:
                out.append((self.widx[(c, j)], v if side == "L" else -v))
            else:
                out.append((self.widx[(j, c)], -v if side == "L" else v))
        return out

    def _circ(self, wk, wl):
        xk, yk = self.pairs[wk]
        xl, yl = self.pairs[wl]
        t = self.alg.t_arr
        terms = {}
        for w, cf in self._wedge_of(t[xk, yk, xl], yl, "L"):
            terms[w] = terms.get(w, 0) + cf
        for w, cf in self._wedge_of(t[xk, yk, yl], xl, "R"):
            terms[w] = terms.get(w, 0) + cf
        return [(w, exact(cf)) for w, cf in terms.items() if not is_zero(cf)]


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
        return all(lincomb_is_zero(x) for x in self.f_flat) and all(
            lincomb_is_zero(x) for x in self.g_flat
        )

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
            f = Matrix(tuple(tuple(coords[x * mdim + o] for x in range(adim)) for o in range(mdim)))
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


def _combo(parts):
    """Sum of scale*value-vector pairs; parts is a list of (coeff, val)."""
    acc = None
    for cf, val in parts:
        if is_zero(cf):
            continue
        term = [cf * v for v in val]
        acc = term if acc is None else [a + b for a, b in zip(acc, term)]
    return acc


def _vzero_like(m):
    return [0] * m


def delta(alg: LieYamagutiAlgebra, rep: Representation, c: YamagutiCochain,
          cap: int = DEFAULT_DEGREE_CAP) -> YamagutiCochain:
    """Coboundary of a cochain (degree p -> p+1)."""
    if c.degree + 1 > cap:
        raise DegreeCapExceededError(f"degree {c.degree + 1} exceeds cap {cap}")
    return _delta_in(_Complex(alg, rep), c)


def _delta_in(cx: _Complex, c: YamagutiCochain) -> YamagutiCochain:
    """Coboundary of a cochain in a prebuilt complex, over c's entry ring."""
    if c.adim != cx.adim or c.mdim != cx.mdim:
        raise DimMismatchError("cochain does not match the complex")
    if c.degree == 1:
        feval = lambda x: list(c.f.col(x))  # noqa: E731
        geval = None
    else:
        feval, geval = c.f_at, c.g_at
    f2, g2 = _delta_eval(cx, c.degree, feval, geval)
    return YamagutiCochain(c.degree + 1, cx.adim, cx.mdim, f=f2, g=g2)


def _delta_eval(cx: _Complex, p, feval, geval):
    """Evaluate the coboundary formulas; returns flat output (f, g) lists.

    Works over any entry ring: values returned by feval/geval need only
    support + and scalar *.  Operators and structure constants run
    through the precomputed sparse tables of the complex.
    """
    m = cx.mdim
    adim = cx.adim
    w = cx.wdim
    n_out = p  # wedge slots of the output cochain
    rho_rows, mu_rows, d_rows = cx.rho_rows, cx.mu_rows, cx.d_rows
    b_sp, t_sp = cx.b_sp, cx.t_sp

    if p == 1:
        # f'(x,y) = rho(x)f(y) - rho(y)f(x) - f([x,y])
        # g'(x,y,z) = D(x,y)f(z) + mu(y,z)f(x) - mu(x,z)f(y) - f(<<x,y,z>>)
        fcols = [feval(x) for x in range(adim)]

        def f_of_sp(sp):
            out = _combo([(cf, fcols[x]) for x, cf in sp])
            return out if out is not None else _vzero_like(m)

        f_out, g_out = [], []
        for wi, (x, y) in enumerate(cx.pairs):
            val = _apply_rows(rho_rows[x], fcols[y])
            val = [a - b for a, b in zip(val, _apply_rows(rho_rows[y], fcols[x]))]
            val = [a - b for a, b in zip(val, f_of_sp(b_sp[x][y]))]
            f_out.extend(val)
            for z in range(adim):
                gv = _apply_rows(d_rows[wi], fcols[z])
                gv = [a + b for a, b in zip(gv, _apply_rows(mu_rows[y][z], fcols[x]))]
                gv = [a - b for a, b in zip(gv, _apply_rows(mu_rows[x][z], fcols[y]))]
                gv = [a - b for a, b in zip(gv, f_of_sp(t_sp[x][y][z]))]
                g_out.extend(gv)
        return f_out, g_out

    n = p - 1  # input wedge slots
    sign_n = 1 if n % 2 == 0 else -1

    def f_combo_slot(tup, slot, combo):
        parts = []
        lt = list(tup)
        for wi, cf in combo:
            lt[slot] = wi
            parts.append((cf, feval(tuple(lt))))
        out = _combo(parts)
        return out if out is not None else _vzero_like(m)

    def g_combo_slot(tup, slot, combo, z):
        parts = []
        lt = list(tup)
        for wi, cf in combo:
            lt[slot] = wi
            parts.append((cf, geval(tuple(lt), z)))
        out = _combo(parts)
        return out if out is not None else _vzero_like(m)

    def g_final_sp(tup, sp):
        parts = [(cf, geval(tup, zz)) for zz, cf in sp]
        out = _combo(parts)
        return out if out is not None else _vzero_like(m)

    f_out, g_out = [], []
    for tup in product(range(w), repeat=n_out):
        head = tup[:n]
        wlast = tup[n]
        xl, yl = cx.pairs[wlast]
        hats = [tup[:k] + tup[k + 1:] for k in range(n_out)]
        gh_xl = geval(head, xl)
        gh_yl = geval(head, yl)

        # delta_I
        val = _apply_rows(rho_rows[xl], gh_yl)
        val = [a - b for a, b in zip(val, _apply_rows(rho_rows[yl], gh_xl))]
        val = [a - b for a, b in zip(val, g_final_sp(head, b_sp[xl][yl]))]
        if sign_n < 0:
            val = [-a for a in val]
        for k in range(n):
            term = _apply_rows(d_rows[tup[k]], feval(hats[k]))
            if k % 2 == 0:
                val = [a + b for a, b in zip(val, term)]
            else:
                val = [a - b for a, b in zip(val, term)]
        for k in range(n_out):
            for l in range(k + 1, n_out):
                # remove slot k, replace slot l with the composite argument
                combo = cx.circ[tup[k]][tup[l]]
                if not combo:
                    continue
                term = f_combo_slot(hats[k], l - 1, combo)
                if k % 2 == 0:
                    val = [a - b for a, b in zip(val, term)]
                else:
                    val = [a + b for a, b in zip(val, term)]
        f_out.extend(val)

        # delta_II
        pair_of = cx.pairs
        for z in range(adim):
            gv = _apply_rows(mu_rows[yl][z], gh_xl)
            gv = [a - b for a, b in zip(gv, _apply_rows(mu_rows[xl][z], gh_yl))]
            if sign_n < 0:
                gv = [-a for a in gv]
            for k in range(n_out):
                term = _apply_rows(d_rows[tup[k]], geval(hats[k], z))
                if k % 2 == 0:
                    gv = [a + b for a, b in zip(gv, term)]
                else:
                    gv = [a - b for a, b in zip(gv, term)]
            for k in range(n_out):
                for l in range(k + 1, n_out):
                    combo = cx.circ[tup[k]][tup[l]]
                    if not combo:
                        continue
                    term = g_combo_slot(hats[k], l - 1, combo, z)
                    if k % 2 == 0:
                        gv = [a - b for a, b in zip(gv, term)]
                    else:
                        gv = [a + b for a, b in zip(gv, term)]
            for k in range(n_out):
                xk, yk = pair_of[tup[k]]
                sp = t_sp[xk][yk][z]
                if not sp:
                    continue
                term = g_final_sp(hats[k], sp)
                if k % 2 == 0:
                    gv = [a - b for a, b in zip(gv, term)]
                else:
                    gv = [a + b for a, b in zip(gv, term)]
            g_out.extend(gv)
    return f_out, g_out


def delta_matrix(alg: LieYamagutiAlgebra, rep: Representation, p: int,
                 cap: int = DEFAULT_DEGREE_CAP) -> Matrix:
    """Matrix of the coboundary C^p -> C^{p+1} in the canonical flat bases.

    Assembled in one pass by running the evaluation engine over sparse
    linear forms; agrees with applying delta to each basis cochain.
    """
    if p + 1 > cap:
        raise DegreeCapExceededError(f"degree {p + 1} exceeds cap {cap}")
    size = cochain_dim(alg.dim, rep.module_dim, p)
    basis = YamagutiCochain.unflatten(p, alg.dim, rep.module_dim,
                                      [LinComb.unit(j) for j in range(size)])
    return Matrix.from_linear_forms(_delta_in(_Complex(alg, rep), basis).flatten(), size)


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

"""Dense exact matrices, tensors, and linear algebra over the scalar ring.

Matrices act on coordinate columns: column k of a map's matrix is the
image of the k-th basis vector.  Vectors are plain tuples of scalars.

rank / nullspace / inverse are only defined over the rationals; matrices
with genuine polynomial entries are rejected (evaluate t first).  All
three run on one exact elimination, `_echelon`: each row is scaled by
the lcm of its denominators to integers, only its nonzero entries are
kept in a {column: int} dict, and the rows are brought to reduced
echelon form by fraction-free elimination with content removal (every
row divided by the gcd of its entries after each step).  Coboundary
matrices are mostly zeros, and the dict rows never touch those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm

import numpy as np

from .errors import DimMismatchError, PolynomialEntriesError, SingularMatrixError
from .scalars import Poly, as_fraction, is_zero

# ---------------------------------------------------------------------------
# vectors


def vzero(n):
    return (Fraction(0),) * n


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(s, a):
    return tuple(s * x for x in a)


def vec_is_zero(a) -> bool:
    return all(is_zero(x) for x in a)


def veq(a, b) -> bool:
    return vec_is_zero(vsub(a, b))


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix with exact entries.

    The column count is read off the rows; a matrix with no rows takes it
    from `cols` (default 0), so 0 x n maps keep their domain.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=0):
        data = tuple(tuple(r) for r in data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else cols
        for r in data:
            if len(r) != self.cols:
                raise DimMismatchError("ragged matrix rows")
        self.data = data

    @classmethod
    def zero(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(((Fraction(0),) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)))

    @classmethod
    def from_cols(cls, cols):
        cols = [tuple(c) for c in cols]
        return cls(tuple(zip(*cols))) if cols else cls(())

    @classmethod
    def from_linear_forms(cls, forms, ncols):
        """Matrix whose row i holds the coefficients of the linear form forms[i].

        A form is a LinComb over the column indices, or a zero scalar (a
        zero row); a nonzero bare scalar has no column and is rejected.
        """
        zero_row = [0] * ncols
        rows = []
        for form in forms:
            row = list(zero_row)
            if isinstance(form, LinComb):
                for col, v in form.terms.items():
                    row[col] = v
            elif not is_zero(form):
                raise AssertionError("symbolic evaluation produced a bare nonzero scalar")
            rows.append(row)
        return cls(rows, ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            is_zero(a - b) for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(tuple(vadd(a, b) for a, b in zip(self.data, other.data)))

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(tuple(vsub(a, b) for a, b in zip(self.data, other.data)))

    def __neg__(self):
        return Matrix(tuple(vneg(r) for r in self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimMismatchError(f"matmul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            bt = tuple(zip(*other.data))
            return Matrix(
                tuple(
                    tuple(_dot(row, col) for col in bt)
                    for row in self.data
                )
            )
        return self.scale(other)

    def __rmul__(self, s):
        return self.scale(s)

    def scale(self, s):
        return Matrix(tuple(vscale(s, r) for r in self.data))

    def apply(self, vec):
        """Matrix-vector product (vector of length cols)."""
        if len(vec) != self.cols:
            raise DimMismatchError(f"apply {self.rows}x{self.cols} to vector of length {len(vec)}")
        return tuple(_dot(row, vec) for row in self.data)

    def transpose(self):
        if not self.rows:
            return Matrix(((),) * self.cols)
        return Matrix(tuple(zip(*self.data)), self.rows)

    def is_zero(self):
        return all(is_zero(x) for r in self.data for x in r)

    def is_square(self):
        return self.rows == self.cols

    def has_poly_entries(self):
        return any(isinstance(x, Poly) and x.degree > 0 for r in self.data for x in r)

    def map(self, fn):
        return Matrix(tuple(tuple(fn(x) for x in r) for r in self.data))

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimMismatchError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _require_rational(self):
        if self.has_poly_entries():
            raise PolynomialEntriesError(
                "operation needs rational entries; evaluate t first"
            )

    def rational_rows(self):
        """Rows as Fractions (rejecting genuine polynomials)."""
        return [[as_fraction(x) for x in r] for r in self.data]

    def _integer_rows(self):
        """Each row scaled by its denominator lcm, as a dict of its nonzeros.

        A genuine polynomial is nonzero, so this one scan also rejects it.
        """
        out = []
        for r in self.data:
            nonzero = {j: r[j] for j in compress(range(self.cols), r)}
            if any(isinstance(x, Poly) for x in nonzero.values()):
                self._require_rational()
                nonzero = {j: as_fraction(x) for j, x in nonzero.items()}
            mult = lcm(*(x.denominator for x in nonzero.values()))
            out.append({j: x.numerator * (mult // x.denominator) for j, x in nonzero.items()})
        return out

    # -- exact linear algebra ------------------------------------------------

    def rank(self) -> int:
        """Rank over the rational field (exact)."""
        return len(_echelon(self._integer_rows()))

    def nullspace_basis(self):
        """Exact basis of the right kernel, as a list of vectors.

        One vector per non-pivot column j of the reduced echelon form:
        1 at j, minus the (normalized) pivot rows' column j at the pivots.
        """
        pivots = _echelon(self._integer_rows())
        basis = []
        for j in range(self.cols):
            if j in pivots:
                continue
            v = [Fraction(0)] * self.cols
            v[j] = Fraction(1)
            for p, row in pivots.items():
                if j in row:
                    v[p] = Fraction(-row[j], row[p])
            basis.append(tuple(v))
        return basis

    def nullspace_dim(self) -> int:
        return self.cols - self.rank()

    def invert(self):
        """Exact inverse, by reducing [A | I]; SingularMatrixError if det = 0."""
        self._require_rational()
        if not self.is_square():
            raise DimMismatchError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix(tuple(r) + tuple(int(i == j) for j in range(n)) for i, r in enumerate(self.data))
        pivots = _echelon(aug._integer_rows())
        if any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return Matrix(
            tuple(Fraction(pivots[i].get(n + j, 0), pivots[i][i]) for j in range(n))
            for i in range(n)
        )

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]!r})"


def _dot(row, vec):
    acc = None
    for a, b in zip(row, vec):
        if is_zero(a) or is_zero(b):
            continue
        term = a * b
        acc = term if acc is None else acc + term
    return Fraction(0) if acc is None else acc


def _echelon(rows):
    """Reduced echelon form of integer rows, by fraction-free elimination.

    `rows` are {column: int} dicts holding only nonzero entries.  Returns
    {pivot column: row}: every row is primitive (its entries have gcd 1),
    is positive at its pivot, has no nonzero left of the pivot, and is
    zero in every other pivot column.  Dividing each row by its pivot
    entry gives the (unique) reduced row echelon form over the rationals.
    """

    def clear(row, pivot_row, col):
        # b*row - a*pivot_row (zero at col) over its content; b > 0, so a
        # pivot row cleared of a later pivot column stays positive at its pivot
        a, b = row[col], pivot_row[col]
        g = gcd(a, b)
        a, b = a // g, b // g
        out = {j: b * x for j, x in row.items()} if b != 1 else dict(row)
        for j, x in pivot_row.items():
            y = out.get(j, 0) - a * x
            if y:
                out[j] = y
            else:
                del out[j]
        content = gcd(*out.values())
        return {j: x // content for j, x in out.items()} if content > 1 else out

    pivots = {}
    for row in rows:
        for col in [c for c in row if c in pivots]:
            row = clear(row, pivots[col], col)
        if not row:
            continue
        lead = min(row)
        content = gcd(*row.values()) if row[lead] > 0 else -gcd(*row.values())
        if content != 1:
            row = {j: x // content for j, x in row.items()}
        for p, other in pivots.items():
            if lead in other:
                pivots[p] = clear(other, row, lead)
        pivots[lead] = row
    return pivots


def _fast_int_rows(mat: Matrix):
    """Integer rows by global LCM scaling, with a fast all-integer path."""
    data = mat.data
    if all(type(x) is int for r in data for x in r):
        return [list(r) for r in data]
    ar = mat.rational_rows()
    mult = lcm(*(x.denominator for r in ar for x in r))
    return [[int(x * mult) for x in r] for r in ar]


def exact_product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Check a @ b == 0 exactly, with an int64 numpy fast path.

    The two factors are converted to integer matrices by global scaling
    (scaling cannot create or destroy zeroness of the product).  When the
    worst-case magnitude bound fits in int64 the product runs vectorized,
    otherwise exact object arithmetic is used.
    """
    if a.cols != b.rows:
        raise DimMismatchError("incompatible shapes")
    if a.rows == 0 or b.cols == 0 or a.cols == 0:
        return True
    ai = _fast_int_rows(a)
    bi = _fast_int_rows(b)
    amax = max((abs(x) for r in ai for x in r), default=0)
    bmax = max((abs(x) for r in bi for x in r), default=0)
    bound = amax * bmax * a.cols
    if bound < 2**62:
        prod = np.array(ai, dtype=np.int64) @ np.array(bi, dtype=np.int64)
        return not prod.any()
    prod = np.array(ai, dtype=object) @ np.array(bi, dtype=object)
    return not prod.any()


# ---------------------------------------------------------------------------
# tensors


class Tensor:
    """Dense tensor: shape plus row-major flat entries."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        self.shape = tuple(int(s) for s in shape)
        self.entries = tuple(entries)
        size = 1
        for s in self.shape:
            size *= s
        if len(self.entries) != size:
            raise DimMismatchError(
                f"tensor with shape {self.shape} needs {size} entries, got {len(self.entries)}"
            )

    @classmethod
    def zeros(cls, shape):
        size = 1
        for s in shape:
            size *= s
        return cls(shape, (Fraction(0),) * size)

    @classmethod
    def from_nested(cls, nested):
        shape = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            shape.append(len(probe))
            probe = probe[0]
        flat = []

        def walk(x, depth):
            if depth == len(shape):
                flat.append(x)
                return
            if len(x) != shape[depth]:
                raise DimMismatchError("ragged nested tensor")
            for y in x:
                walk(y, depth + 1)

        walk(nested, 0)
        return cls(shape, flat)

    def flat_index(self, idx):
        if len(idx) != len(self.shape):
            raise DimMismatchError("wrong tensor index arity")
        pos = 0
        for i, s in zip(idx, self.shape):
            pos = pos * s + i
        return pos

    def at(self, *idx):
        return self.entries[self.flat_index(idx)]

    def slice_vector(self, *idx):
        """Last-axis vector at the given leading multi-index."""
        last = self.shape[-1]
        pos = 0
        for i, s in zip(idx, self.shape[:-1]):
            pos = pos * s + i
        return self.entries[pos * last:(pos + 1) * last]

    def is_zero(self):
        return all(is_zero(x) for x in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and all(
            is_zero(a - b) for a, b in zip(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


# ---------------------------------------------------------------------------
# sparse linear forms (symbolic coefficients for matrix assembly)


class LinComb:
    """Sparse linear combination of abstract coordinates.

    Behaves like a ring element under +, -, and scalar multiplication, so
    multilinear evaluation code written for concrete scalars also runs in
    "symbolic" mode to assemble coboundary matrices column-free.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def unit(cls, key):
        return cls({key: 1})

    def __add__(self, other):
        if isinstance(other, LinComb):
            out = dict(self.terms)
            for k, v in other.terms.items():
                s = out.get(k, 0) + v
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
            return LinComb(out)
        if is_zero(other):
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LinComb({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, LinComb):
            return self + (-other)
        if is_zero(other):
            return self
        return NotImplemented

    def __rsub__(self, other):
        if is_zero(other):
            return -self
        return NotImplemented

    def __mul__(self, s):
        if is_zero(s):
            return LinComb()
        return LinComb({k: v * s for k, v in self.terms.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"LinComb({self.terms!r})"


def lincomb_is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, LinComb) else is_zero(x)

"""Exact arrays, matrices and linear algebra over the scalar ring.

Every value of the package is an exact array (`exact_array`, `exact`).
An array whose entries are all rational is an ExactArray: integer
numerators over one common denominator, int64 while a bound on their
magnitude carried through every operation stays below INT64_LIMIT,
Python ints in an object array beyond it.  An array with genuine
polynomials in t is a numpy array of dtype=object holding ints,
Fractions and Polys.  Entries leave either kind as ints (integral
values), Fractions or Polys.  A Matrix is a 2-d exact array with a
checked shape; matrices act on coordinate columns: column k of a map's
matrix is the image of the k-th basis vector.

rank / nullspace / inverse are only defined over the rationals; matrices
with genuine polynomial entries are rejected (evaluate t first).  All
three run on one exact elimination, `_echelon`: the rows of the
numerator array (each row of the matrix times the common denominator)
keep only their nonzero entries in a {column: int} dict, and are brought
to reduced echelon form by fraction-free elimination with content
removal (every row divided by the gcd of its entries after each step).
Coboundary matrices are mostly zeros, and the dict rows never touch
those.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import DimMismatchError, PolynomialEntriesError, SingularMatrixError
from .scalars import Poly

# ---------------------------------------------------------------------------
# exact arrays

#: An ExactArray keeps int64 numerators while its carried bound is below
#: this, and Python ints in an object array from there on.
INT64_LIMIT = 2**62

#: Arithmetic operations (contractions, sums, products) run so far, by the
#: kind of numerator they ran on.
NUMERATOR_OPS = {"int64": 0, "object": 0}


def _norm_scalar(x):
    """Collapse constant polynomials to rationals and integral Fractions to
    ints (exact, much faster arithmetic)."""
    if isinstance(x, Poly) and x.degree <= 0:
        x = x.coeffs[0] if x.coeffs else 0
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    return x


#: _norm_scalar on every entry of an object array (a ufunc: one call per array)
normalize = np.frompyfunc(_norm_scalar, 1, 1)


def _ratio(n, den):
    q = Fraction(n, den)
    return q.numerator if q.denominator == 1 else q


_over = np.frompyfunc(_ratio, 2, 1)


class ExactArray:
    """An array of rationals: integer numerators `num` over one denominator `den`.

    `bound` is an upper bound on |num|, carried through every operation
    without reading the entries: a contraction over K summed terms has
    bound K*a*b, a sum a*(L/da) + b*(L/db) over L = lcm(da, db), and
    indexing, transposing and negating keep it.  The numerators are int64
    while the bound is below INT64_LIMIT, so no int64 operation can
    overflow, and Python ints in an object array otherwise.  The
    arithmetic does not reduce the denominator (`reduced` does, once, where
    structure constants are stored); the entries leave the array (tolist,
    iteration, scalar indexing, np.asarray) as ints and Fractions.

    The law code reads these arrays as it would numpy arrays: np.einsum
    (with explicit output subscripts), np.stack, +, -, *, @, indexing, .T,
    .mT, transpose, reshape and comparison with zero run on the
    numerators; any other numpy function or operand (a Poly array, say)
    gets the entries as an exact object array instead.
    """

    __slots__ = ("num", "den", "bound", "_obj")

    def __init__(self, num, den, bound):
        self.num, self.den, self.bound, self._obj = num, den, bound, None

    # -- shape and views -----------------------------------------------------

    shape = property(lambda self: self.num.shape)
    size = property(lambda self: self.num.size)
    T = property(lambda self: ExactArray(self.num.T, self.den, self.bound))
    mT = property(lambda self: ExactArray(self.num.mT, self.den, self.bound))

    def __len__(self):
        return len(self.num)

    def __getitem__(self, idx):
        num = self.num[idx]
        if type(num) is np.ndarray:
            return ExactArray(num, self.den, self.bound)
        return int(num) if self.den == 1 else _ratio(int(num), self.den)

    def __iter__(self):
        return (self[i] for i in range(len(self.num)))

    def transpose(self, *axes):
        return ExactArray(self.num.transpose(*axes), self.den, self.bound)

    def reshape(self, *shape):
        return ExactArray(self.num.reshape(*shape), self.den, self.bound)

    def ravel(self):
        return ExactArray(self.num.ravel(), self.den, self.bound)

    # -- leaving the array ---------------------------------------------------

    def __array__(self, dtype=None, copy=None):
        """The entries as a read-only object array of ints and Fractions."""
        if self._obj is None:
            obj = self.num.astype(object)
            self._obj = obj if self.den == 1 else np.asarray(_over(obj, self.den), dtype=object)
            self._obj.flags.writeable = False
        out = self._obj if dtype is None else self._obj.astype(dtype)
        return out.copy() if copy and out is self._obj else out

    def tolist(self):
        return self.num.tolist() if self.den == 1 else np.asarray(self).tolist()

    def __repr__(self):
        return f"ExactArray({np.asarray(self)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return ExactArray(-self.num, self.den, self.bound)

    def __add__(self, other):
        return _sum(self, other, 1)

    def __radd__(self, other):
        return _sum(other, self, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return _sum(other, self, -1)

    def __mul__(self, other):
        return _contract(np.multiply, (self, other), 1)

    def __rmul__(self, other):
        return _contract(np.multiply, (other, self), 1)

    def __matmul__(self, other):
        return _contract(np.matmul, (self, other), self.num.shape[-1])

    def __eq__(self, other):
        if type(other) is int and other == 0:
            return self.num == 0
        return np.asarray(self) == _plain(other)

    def __ne__(self, other):
        if type(other) is int and other == 0:
            return self.num != 0
        return np.asarray(self) != _plain(other)

    __hash__ = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        op = _UFUNCS.get(ufunc) if method == "__call__" and not kwargs else None
        if op is not None:
            return op(*inputs)
        return getattr(ufunc, method)(*_plain(inputs), **_plain(kwargs))

    def __array_function__(self, func, types, args, kwargs):
        out = None
        if func is np.einsum and not kwargs:
            out = _einsum(args[0], args[1:])
        elif func is np.stack and not kwargs and len(args) == 1:
            out = _stack(args[0])
        return func(*_plain(args), **_plain(kwargs)) if out is None else out


def _plain(x):
    """x with every ExactArray in it (in nested lists, tuples and dicts) as an object array."""
    if isinstance(x, ExactArray):
        return np.asarray(x)
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(y) for y in x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def _contract(func, operands, terms, *head):
    """func(*head, *numerators) over the product of the denominators, for a
    result each of whose entries sums `terms` products of one entry of each
    operand."""
    bound, den = terms, 1
    for x in operands:
        if type(x) is not ExactArray:
            return func(*head, *_plain(operands))
        bound *= x.bound
        den *= x.den
    if bound < INT64_LIMIT:
        NUMERATOR_OPS["int64"] += 1
        return _result(func(*head, *[x.num for x in operands]), den, bound)
    NUMERATOR_OPS["object"] += 1
    num = func(*head, *[x.num.astype(object) for x in operands])
    return ExactArray(np.asarray(num, dtype=object), den, bound)


def _sum(a, b, sign):
    """a + b for sign 1, a - b for sign -1."""
    if type(a) is not ExactArray or type(b) is not ExactArray:
        return (np.add if sign > 0 else np.subtract)(*_plain((a, b)))
    den = a.den if a.den == b.den else lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    bound = a.bound * fa + b.bound * fb
    p, q = a.num, b.num
    if max(bound, fa, fb) < INT64_LIMIT:
        NUMERATOR_OPS["int64"] += 1
    else:
        NUMERATOR_OPS["object"] += 1
        p, q = p.astype(object), q.astype(object)
    if fa != 1:
        p = p * fa
    if fb != 1:
        q = q * fb
    return _result(p + q if sign > 0 else p - q, den, bound)


def _result(num, den, bound):
    """The ExactArray of a result's numerators, int64 exactly when its bound fits."""
    dtype = _INT64 if bound < INT64_LIMIT else _OBJECT
    if type(num) is not np.ndarray or num.dtype is not dtype:
        num = np.asarray(num, dtype=dtype)
    return ExactArray(num, den, bound)


_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)


def _stack(arrays):
    """np.stack of ExactArrays on their common denominator."""
    if not arrays or any(type(x) is not ExactArray for x in arrays):
        return np.stack(_plain(arrays))
    den = lcm(*(x.den for x in arrays))
    bound = max(x.bound * (den // x.den) for x in arrays)
    fits = max(bound, den) < INT64_LIMIT
    NUMERATOR_OPS["int64" if fits else "object"] += 1
    return _result(np.stack([(x.num if fits else x.num.astype(object)) * (den // x.den)
                             for x in arrays]), den, bound)


_UFUNCS = {
    np.add: lambda a, b: _sum(a, b, 1),
    np.subtract: lambda a, b: _sum(a, b, -1),
    np.negative: lambda a: -a,
    np.multiply: lambda a, b: _contract(np.multiply, (a, b), 1),
    np.matmul: lambda a, b: _contract(np.matmul, (a, b), a.shape[-1]),
}

# np.einsum hands its operands to c_einsum when it is not asked to optimize;
# calling that directly saves the dispatch on every one of the law's einsums
try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _c_einsum = np.einsum

# subscripts -> (operand, axis) of one occurrence of every index summed over
_SUMMED = {}


def _summed_axes(subscripts):
    inputs, _, output = subscripts.replace(" ", "").partition("->")
    where = {}  # the axis is counted from the end after an ellipsis
    for k, term in enumerate(inputs.split(",")):
        head, _, tail = term.partition("...")
        for p, c in enumerate(head):
            where.setdefault(c, (k, p))
        for p, c in enumerate(tail):
            where.setdefault(c, (k, p - len(tail)))
    return [ax for c, ax in where.items() if c not in output]


def _einsum(subscripts, operands):
    """np.einsum of ExactArrays with explicit output subscripts, or None for
    any other call.  Each output entry sums one product per value of the
    indices summed over."""
    if type(subscripts) is not str or "->" not in subscripts:
        return None
    axes = _SUMMED.get(subscripts)
    if axes is None:
        axes = _SUMMED[subscripts] = _summed_axes(subscripts)
    terms = 1
    for k, p in axes:
        if type(operands[k]) is not ExactArray:
            return None
        terms *= operands[k].num.shape[p]
    return _contract(_c_einsum, operands, terms, subscripts)


def exact(arr):
    """The entries of an array as an exact array (see exact_array)."""
    if isinstance(arr, ExactArray):
        return arr
    try:
        arr = np.asarray(arr)
    except ValueError as exc:  # nested sequences of unequal lengths
        raise DimMismatchError(f"ragged array: {exc}") from exc
    return exact_array(arr.ravel(), arr.shape)


def reduced(arr):
    """An exact array with the common factor of its denominator and its
    numerators divided out, and its bound recomputed from the numerators.

    The constructors of algebras and representations call it once on their
    structure constants; the arithmetic itself never reduces.  An
    ExactArray over den 1 and an array over Q[t] are returned as they are."""
    if type(arr) is not ExactArray or arr.den == 1:
        return arr
    nums = arr.num.ravel().tolist()
    g = gcd(arr.den, *nums)
    if g == 1:
        return arr
    return _result(arr.num // g, arr.den // g, max(map(abs, nums)) // g)


def exact_array(entries, shape):
    """Row-major `entries` as an exact array of `shape`.

    Every entry is normalized (integral Fractions to ints, constant
    polynomials to rationals).  When all are rational the result is an
    ExactArray over the lcm of their denominators; otherwise (genuine
    polynomials in t) it is a read-only object array.
    """
    if isinstance(entries, ExactArray):
        return entries.reshape(shape)
    flat = np.empty(prod(shape), dtype=object)
    flat[:] = entries
    flat = normalize(flat)
    den = 1
    for x in flat:
        if type(x) is Fraction:
            den = lcm(den, x.denominator)
        elif type(x) is not int:
            out = flat.reshape(shape)
            out.flags.writeable = False
            return out
    nums = flat.tolist() if den == 1 else [x.numerator * (den // x.denominator) for x in flat]
    bound = max(map(abs, nums), default=0)
    num = np.array(nums, dtype=np.int64 if bound < INT64_LIMIT else object).reshape(shape)
    num.flags.writeable = False
    return ExactArray(num, den, bound)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable exact matrix: a shape-checked wrapper over its exact array
    `arr` (an ExactArray over the rationals, an object array over Q[t]).

    Matrix(rows, cols=0) builds one from Python rows, at the input
    boundary; the column count is read off the rows, and a matrix with no
    rows takes it from `cols`, so 0 x n maps keep their domain.  The
    shape, the arithmetic, the comparisons and the integer rows of the
    elimination all come from `arr`; `data` is its entries as tuple rows,
    computed on access.
    """

    __slots__ = ("arr",)

    def __init__(self, data, cols=0):
        data = [tuple(r) for r in data]
        cols = len(data[0]) if data else cols
        if any(len(r) != cols for r in data):
            raise DimMismatchError("ragged matrix rows")
        self.arr = exact_array([x for r in data for x in r], (len(data), cols))

    @classmethod
    def from_array(cls, arr):
        """The matrix of a 2-d array, which it keeps (as an exact array) as its `arr`."""
        arr = exact(arr)
        if len(arr.shape) != 2:
            raise DimMismatchError(f"a matrix needs a 2-d array, got shape {arr.shape}")
        out = cls.__new__(cls)
        out.arr = arr
        return out

    rows = property(lambda self: self.arr.shape[0])
    cols = property(lambda self: self.arr.shape[1])

    @property
    def data(self):
        """The entries as tuple rows (ints, Fractions, or Polys over Q[t])."""
        return tuple(map(tuple, self.arr.tolist()))

    @classmethod
    def zero(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls.from_array(ExactArray(np.zeros((rows, cols), dtype=np.int64), 1, 0))

    @classmethod
    def identity(cls, n):
        return cls.from_array(ExactArray(np.identity(n, dtype=np.int64), 1, 1))

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        out = np.zeros((len(entries),) * 2, dtype=object)
        out[np.diag_indices(len(entries))] = entries
        return cls.from_array(out)

    def __getitem__(self, ij):
        return self.arr[ij]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.arr.shape == other.arr.shape and not (self.arr - other.arr != 0).any()

    def __hash__(self):
        return hash((self.arr.shape, self.data))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix.from_array(self.arr + other.arr)

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix.from_array(self.arr - other.arr)

    def __neg__(self):
        return Matrix.from_array(-self.arr)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimMismatchError(f"matmul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            return Matrix.from_array(self.arr @ other.arr)
        return self.scale(other)

    def __rmul__(self, s):
        return self.scale(s)

    def scale(self, s):
        return Matrix.from_array(self.arr * exact_array([s], ()))

    def transpose(self):
        return Matrix.from_array(self.arr.T)

    def is_zero(self):
        return not (self.arr != 0).any()

    def is_square(self):
        return self.rows == self.cols

    def has_poly_entries(self):
        return not isinstance(self.arr, ExactArray)

    def _same_shape(self, other):
        if self.arr.shape != other.arr.shape:
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
        self._require_rational()
        return [[Fraction(x) for x in r] for r in self.arr.tolist()]

    def _integer_rows(self):
        """The numerator rows (each row times the common denominator), as
        dicts of their nonzeros."""
        self._require_rational()
        num = self.arr.num
        out = [{} for _ in range(self.rows)]
        i, j = np.nonzero(num)
        for r, c, x in zip(i.tolist(), j.tolist(), num[i, j].tolist()):
            out[r][c] = x
        return out

    # -- exact linear algebra ------------------------------------------------

    def rank(self) -> int:
        """Rank over the rational field (exact)."""
        return len(_echelon(self._integer_rows()))

    def nullspace_basis(self):
        """Exact basis of the right kernel, as a list of vectors (tuples of Fractions).

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
        aug = self._integer_rows()  # the rows of den * A, so [den * A | den * I]
        for i, row in enumerate(aug):
            row[n + i] = self.arr.den
        pivots = _echelon(aug)
        if any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return Matrix(
            tuple(Fraction(pivots[i].get(n + j, 0), pivots[i][i]) for j in range(n))
            for i in range(n)
        )

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]!r})"


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


def exact_product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Check a @ b == 0 exactly, on the exact arrays of the two factors."""
    if a.cols != b.rows:
        raise DimMismatchError("incompatible shapes")
    return not (a.arr @ b.arr != 0).any()

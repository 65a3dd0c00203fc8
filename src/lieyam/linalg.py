"""Dense exact matrices, tensors, and linear algebra over the scalar ring.

Matrices act on coordinate columns: column k of a map's matrix is the
image of the k-th basis vector.  Vectors are plain tuples of scalars.

The laws of the package are evaluated on exact arrays (`exact_array`,
`Matrix.arr`, `Tensor.arr`).  An array whose entries are all rational is
an ExactArray: integer numerators over one common denominator, int64
while a bound on their magnitude carried through every operation stays
below INT64_LIMIT, Python ints in an object array beyond it.  An array
with genuine polynomials in t is a numpy array of dtype=object holding
ints, Fractions and Polys.  Entries leave either kind as ints (integral
values), Fractions or Polys.

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
from math import gcd, lcm, prod

import numpy as np

from .errors import DimMismatchError, PolynomialEntriesError, SingularMatrixError
from .scalars import Poly, as_fraction, is_zero

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
    denominator is not reduced; the entries leave the array (tolist,
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
    return exact_array(np.asarray(arr).ravel(), np.shape(arr))


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


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix with exact entries.

    The column count is read off the rows; a matrix with no rows takes it
    from `cols` (default 0), so 0 x n maps keep their domain.
    """

    __slots__ = ("rows", "cols", "data", "_arr")

    def __init__(self, data, cols=0):
        data = tuple(tuple(r) for r in data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else cols
        for r in data:
            if len(r) != self.cols:
                raise DimMismatchError("ragged matrix rows")
        self.data = data
        self._arr = None

    @classmethod
    def from_array(cls, arr):
        """The matrix of a 2-d array, which it keeps as its `arr` (an exact
        array: an ExactArray over the rationals, an object array over Q[t])."""
        arr = exact_array(arr.ravel(), arr.shape)
        out = cls(arr.tolist(), arr.shape[1])
        out._arr = arr
        return out

    @property
    def arr(self):
        """The entries as an exact array (an ExactArray over the rationals, an
        object array over Q[t]), built once."""
        if self._arr is None:
            self._arr = exact_array([x for r in self.data for x in r], (self.rows, self.cols))
        return self._arr

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

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

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


def exact_product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Check a @ b == 0 exactly, on the exact arrays of the two factors."""
    if a.cols != b.rows:
        raise DimMismatchError("incompatible shapes")
    return not (a.arr @ b.arr != 0).any()


# ---------------------------------------------------------------------------
# tensors


class Tensor:
    """Dense tensor: shape plus row-major flat entries."""

    __slots__ = ("shape", "entries", "_arr")

    def __init__(self, shape, entries):
        self.shape = tuple(int(s) for s in shape)
        self.entries = tuple(entries)
        size = prod(self.shape)
        if len(self.entries) != size:
            raise DimMismatchError(
                f"tensor with shape {self.shape} needs {size} entries, got {len(self.entries)}"
            )
        self._arr = None

    @classmethod
    def from_array(cls, arr):
        """The tensor of an array, which it keeps as its `arr` (an exact array:
        an ExactArray over the rationals, an object array over Q[t])."""
        arr = exact_array(arr.ravel(), arr.shape)
        out = cls(arr.shape, arr.ravel().tolist())
        out._arr = arr
        return out

    @property
    def arr(self):
        """The entries as an exact array of the tensor's shape (an ExactArray
        over the rationals, an object array over Q[t]), built once."""
        if self._arr is None:
            self._arr = exact_array(self.entries, self.shape)
        return self._arr

    @classmethod
    def zeros(cls, shape):
        return cls(shape, (Fraction(0),) * prod(shape))

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

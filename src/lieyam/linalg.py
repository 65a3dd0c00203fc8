"""Exact arrays, matrices and linear algebra over the scalar ring.

Every value of the package is an exact array, an ExactArray: integer
numerators over one common denominator, int64 while a bound on their
magnitude carried through every operation stays below INT64_LIMIT,
Python ints in an object array beyond it.  An array over Q[t] (genuine
polynomials in t among its entries) is the same type with one more,
leading, axis of numerators: those of the coefficients of t^0, t^1, ...
over the one denominator; a product of two such arrays is one einsum over
the outer product of their coefficient axes, whose anti-diagonals it sums.
The type is closed: values enter only through `exact` (entry by entry,
`exact_array`), which refuses anything but ints, Fractions and Polys, and
leave only by value: as Polys where a coefficient of t^1, t^2, ... is
nonzero, else as ints (integral values) or Fractions; numpy's ufuncs
refuse it.  A Matrix is a 2-d exact array with a checked shape; matrices
act on coordinate columns: column k of a map's matrix is the image of
the k-th basis vector.

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


def _ratio(n, den):
    q = Fraction(n, den)
    return q.numerator if q.denominator == 1 else q


_over = np.frompyfunc(_ratio, 2, 1)


class ExactArray:
    """An exact array: integer numerators `num` over one denominator `den`.

    `bound` is an upper bound on |num|, carried through every operation
    without reading the entries: a contraction over K summed terms has
    bound K*a*b, a sum a*(L/da) + b*(L/db) over L = lcm(da, db), and
    indexing, transposing and negating keep it.  The numerators are int64
    while the bound is below INT64_LIMIT, so no int64 operation can
    overflow, and Python ints in an object array otherwise.  The
    arithmetic does not reduce the denominator (`reduced` does, once, where
    structure constants are stored); the entries leave the array (tolist,
    iteration, scalar indexing, np.asarray) as ints, Fractions and Polys,
    converted anew on every call.

    An array over Q[t] has `poly` True (one flag per array, nothing per
    entry) and one more leading axis of `num`: num[k] holds the numerators
    of the coefficients of t^k.  A contraction of two such arrays takes the
    outer product of their coefficient axes and sums its anti-diagonals
    (the product of two polynomials), so its bound also grows by the number
    of coefficient pairs one coefficient sums; a sum pads the shorter
    coefficient axis with zeros.  An entry leaves by its value: as a Poly
    exactly when one of its coefficients of t^1, t^2, ... is nonzero, else
    as an int or a Fraction (0 * t is 0).

    The law code reads these arrays as it would numpy arrays: np.einsum
    (with explicit output subscripts), np.stack, np.concatenate, +, -, *,
    @, ==, !=, indexing, .T, .mT, transpose and reshape run on the
    numerators; any other numpy function, a direct ufunc call (np.add(a,
    b)), or an operand that is neither an ExactArray nor an exact scalar
    (an object array, say), is a TypeError.  An operator whose left operand
    is an ndarray or a numpy scalar comes to the reflected method here.
    """

    __slots__ = ("num", "den", "bound", "poly")

    def __init__(self, num, den, bound, poly=False):
        self.num, self.den, self.bound, self.poly = num, den, bound, poly

    # -- shape and views -----------------------------------------------------

    shape = property(lambda self: self.num.shape[1:] if self.poly else self.num.shape)
    size = property(lambda self: prod(self.shape))

    T = property(lambda self: self.transpose())

    @property
    def mT(self):
        if self.poly and self.num.ndim < 3:
            raise ValueError("matrix transpose with ndim < 2 is undefined")
        return ExactArray(self.num.mT, self.den, self.bound, self.poly)

    def __len__(self):
        return len(self.num[0] if self.poly else self.num)

    def __getitem__(self, idx):
        num = self.num
        if not self.poly:
            num = num[idx]
            if type(num) is np.ndarray:
                return ExactArray(num, self.den, self.bound)
            return int(num) if self.den == 1 else _ratio(int(num), self.den)
        idx = idx if type(idx) is tuple else (idx,)
        if all(type(i) in _BASIC for i in idx):  # a view behind the coefficient axis
            num = num[(slice(None), *idx)]
        else:  # advanced indices apart would put their axes before it
            num = np.stack([plane[idx] for plane in num])
        if num.ndim == 1:
            return _entry(num.tolist(), self.den)
        return ExactArray(num, self.den, self.bound, True)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def transpose(self, *axes):
        if not self.poly:
            return ExactArray(self.num.transpose(*axes), self.den, self.bound)
        axes = axes[0] if len(axes) == 1 and not isinstance(axes[0], int) else axes
        # an entry axis a >= 0 is num's a + 1; one counted from the end is the same
        axes = [a + 1 if a >= 0 else a for a in axes] if axes else range(self.num.ndim - 1, 0, -1)
        return ExactArray(self.num.transpose(0, *axes), self.den, self.bound, True)

    def reshape(self, *shape):
        if not self.poly:
            return ExactArray(self.num.reshape(*shape), self.den, self.bound)
        shape = shape[0] if len(shape) == 1 and not isinstance(shape[0], int) else shape
        return ExactArray(self.num.reshape(len(self.num), *shape), self.den, self.bound, True)

    def ravel(self):
        return self.reshape(-1)

    # -- leaving the array ---------------------------------------------------

    def __array__(self, dtype=None, copy=None):
        """The entries as a new object array of ints, Fractions and Polys."""
        if self.poly:
            obj = np.empty(self.size, dtype=object)
            obj[:] = [_entry(c, self.den) for c in self.num.reshape(len(self.num), -1).T.tolist()]
            obj = obj.reshape(self.shape)
        else:
            obj = self.num.astype(object)
            if self.den != 1:
                obj = np.asarray(_over(obj, self.den), dtype=object)
        return obj if dtype is None else obj.astype(dtype)

    def tolist(self):
        return self.num.tolist() if self.den == 1 and not self.poly else np.asarray(self).tolist()

    def __repr__(self):
        return f"ExactArray({np.asarray(self)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return ExactArray(-self.num, self.den, self.bound, self.poly)

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
        shape = self.shape
        if not shape or (type(other) is ExactArray and not other.shape):
            return NotImplemented  # numpy's matmul takes no 0-d operand either
        return _contract(np.matmul, (self, other), shape[-1])

    def __eq__(self, other):
        return ~self.__ne__(other)

    def __ne__(self, other):
        """Entrywise self != other, on the numerators of self - other."""
        diff = self if type(other) is int and other == 0 else _sum(self, other, -1)
        if diff is NotImplemented:
            raise TypeError(f"cannot compare an ExactArray with {type(other).__name__}")
        return (diff.num != 0).any(axis=0) if diff.poly else diff.num != 0

    __hash__ = None
    # numpy hands an operator whose left operand is an ndarray or a numpy
    # scalar to the reflected method, and refuses a direct ufunc call
    __array_ufunc__ = None

    def __array_function__(self, func, types, args, kwargs):
        if func is np.einsum and not kwargs:
            return _einsum(args[0], args[1:])
        if func in (np.stack, np.concatenate) and not kwargs and len(args) == 1:
            return _stack(func, args[0])
        return NotImplemented


#: the index types that numpy applies as views (basic indexing)
_BASIC = (int, slice, type(Ellipsis), type(None))


def _entry(coeffs, den):
    """One entry from the numerators of its coefficients (lowest degree
    first): a Poly when one of t^1, t^2, ... has a nonzero coefficient,
    else its constant term as an int or a Fraction."""
    if any(coeffs[1:]):
        return Poly([Fraction(c, den) for c in coeffs])
    return coeffs[0] if den == 1 else _ratio(coeffs[0], den)


def _operands(operands):
    """The operands with each exact scalar (int, numpy integer, Fraction, Poly)
    as a 0-d ExactArray, or None when one is neither that nor an ExactArray."""
    out = []
    for x in operands:
        if type(x) in (int, Fraction, Poly) or isinstance(x, np.integer):
            x = exact_array([x], ())
        elif type(x) is not ExactArray:
            return None
        out.append(x)
    return out


def _contract(func, operands, terms, *head):
    """func(*head, *numerators) over the product of the denominators, for a
    result each of whose entries sums `terms` products of one entry of each
    operand."""
    bound, den = terms, 1
    for x in operands:
        if type(x) is not ExactArray or x.poly:
            return _contract_poly(func, operands, terms, head)
        bound *= x.bound
        den *= x.den
    if bound < INT64_LIMIT:
        NUMERATOR_OPS["int64"] += 1
        return _result(func(*head, *[x.num for x in operands]), den, bound)
    NUMERATOR_OPS["object"] += 1
    num = func(*head, *[x.num.astype(object) for x in operands])
    return ExactArray(np.asarray(num, dtype=object), den, bound)


#: the einsum subscripts of np.multiply and np.matmul
_SUBSCRIPTS = {np.multiply: "...,...->...", np.matmul: "...ij,...jk->...ik"}


def _contract_poly(func, operands, terms, head):
    """_contract with an operand over Q[t] or a scalar among the operands
    (NotImplemented for another operand, a 1-d matmul or three over Q[t]).

    The contraction runs as one einsum that keeps the coefficient axis of
    every operand over Q[t] on its result.  With one such operand, that
    axis is the result's coefficient axis.  With two, the einsum gives the
    outer product of their coefficients, plane [p, q] from the
    coefficients of t^p and t^q, and the coefficient of t^k sums the
    anti-diagonal p + q = k: the product of two polynomials is the
    convolution of their coefficient sequences.
    """
    ops = _operands(operands)
    polys = [] if ops is None else [k for k, x in enumerate(ops) if x.poly]
    if ops is None or len(polys) > 2 or (func is np.matmul and min(len(x.shape) for x in ops) < 2):
        return NotImplemented
    if not polys:
        return _contract(func, ops, terms, *head)
    subscripts = head[0] if head else _SUBSCRIPTS[func]
    key = (subscripts, *polys)
    coefficient_subscripts = _POLY_SUBSCRIPTS.get(key)
    if coefficient_subscripts is None:
        coefficient_subscripts = _POLY_SUBSCRIPTS[key] = _poly_subscripts(subscripts, polys)
    bound, den = terms, 1
    for x in ops:
        bound *= x.bound
        den *= x.den
    if len(polys) == 2:
        bound *= min(len(ops[k].num) for k in polys)
    fits = bound < INT64_LIMIT
    NUMERATOR_OPS["int64" if fits else "object"] += 1
    num = _c_einsum(coefficient_subscripts, *[x.num if fits else x.num.astype(object) for x in ops])
    if len(polys) == 2:
        outer, (k1, k2) = num, num.shape[:2]
        num = np.zeros((k1 + k2 - 1, *outer.shape[2:]), dtype=outer.dtype)
        for p in range(k1):
            num[p:p + k2] += outer[p]
    return _result(num, den, bound, True)


# (subscripts, operands over Q[t]) -> the subscripts with their coefficient axes
_POLY_SUBSCRIPTS = {}


def _poly_subscripts(subscripts, polys):
    """subscripts with one fresh coefficient axis on each operand over Q[t]
    in polys, and those axes, in the same order, leading on the result."""
    ins, out = subscripts.replace(" ", "").split("->")
    ins = ins.split(",")
    axes = [c for c in "ZYXWV" if c not in subscripts][:len(polys)]
    for k, z in zip(polys, axes):
        ins[k] = z + ins[k]
    return ",".join(ins) + "->" + "".join(axes) + out


def _sum(a, b, sign):
    """a + b for sign 1, a - b for sign -1.  Over Q[t] the coefficients of
    each operand (one, t^0, for an operand over Q) go on a common number of
    axes, the shorter coefficient axis padded with zeros.  NotImplemented
    unless both are ExactArrays or exact scalars."""
    if type(a) is not ExactArray or type(b) is not ExactArray:
        ops = _operands((a, b))
        if ops is None:
            return NotImplemented
        a, b = ops
    den = a.den if a.den == b.den else lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    bound = a.bound * fa + b.bound * fb
    fits = max(bound, fa, fb) < INT64_LIMIT
    NUMERATOR_OPS["int64" if fits else "object"] += 1
    poly = a.poly or b.poly
    if poly:
        nd = max(len(a.shape), len(b.shape))
        p, q = _coefficients(a, nd, fits), _coefficients(b, nd, fits)
        if len(p) < len(q):
            p = _padded(p, len(q))
        elif len(q) < len(p):
            q = _padded(q, len(p))
    else:
        p, q = (a.num, b.num) if fits else (a.num.astype(object), b.num.astype(object))
    if fa != 1:
        p = p * fa
    if fb != 1:
        q = q * fb
    num = p + q if sign > 0 else p - q
    return _result(num, den, bound, poly)


def _coefficients(x, nd, fits):
    """The numerators of x with a leading coefficient axis and `nd` entry axes."""
    num = x.num if fits else x.num.astype(object)
    shape = x.shape
    if not x.poly:
        return num.reshape(1, *(1,) * (nd - len(shape)), *shape)
    return num if len(shape) == nd else num.reshape(len(num), *(1,) * (nd - len(shape)), *shape)


def _padded(num, k):
    """num with zero coefficient planes appended up to k."""
    return np.concatenate([num, np.zeros((k - len(num), *num.shape[1:]), dtype=num.dtype)])


def _result(num, den, bound, poly=False):
    """The ExactArray of a result's numerators, int64 exactly when its bound fits."""
    dtype = _INT64 if bound < INT64_LIMIT else _OBJECT
    if type(num) is not np.ndarray or num.dtype is not dtype:
        num = np.asarray(num, dtype=dtype)
    return ExactArray(num, den, bound, poly)


_INT64, _OBJECT = np.dtype(np.int64), np.dtype(object)


def _stack(func, arrays):
    """np.stack or np.concatenate (func) of ExactArrays (NotImplemented for
    any other) on their common denominator and number of coefficients."""
    if any(type(x) is not ExactArray for x in arrays):
        return NotImplemented
    den = lcm(*(x.den for x in arrays))
    bound = max(x.bound * (den // x.den) for x in arrays)
    fits = max(bound, den) < INT64_LIMIT
    NUMERATOR_OPS["int64" if fits else "object"] += 1
    if not any(x.poly for x in arrays):
        return _result(func([(x.num if fits else x.num.astype(object)) * (den // x.den)
                             for x in arrays]), den, bound)
    k = max(len(x.num) for x in arrays if x.poly)
    planes = [_padded(_coefficients(x, len(x.shape), fits) * (den // x.den), k) for x in arrays]
    return _result(func(planes, axis=1), den, bound, True)


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
    """np.einsum of ExactArrays with explicit output subscripts, or
    NotImplemented for any other call.  Each output entry sums one product
    per value of the indices summed over."""
    if type(subscripts) is not str or "->" not in subscripts:
        return NotImplemented
    axes = _SUMMED.get(subscripts)
    if axes is None:
        axes = _SUMMED[subscripts] = _summed_axes(subscripts)
    terms = 1
    for k, p in axes:
        x = operands[k]
        if type(x) is not ExactArray:
            return NotImplemented
        terms *= x.shape[p]
    return _contract(_c_einsum, operands, terms, subscripts)


def exact(arr):
    """An array as an ExactArray: the one way in.  An integer ndarray becomes
    its numerators over 1, copied and read-only, with no entry looked at; an
    object ndarray or nested sequences go through exact_array; an ndarray of
    another dtype is a TypeError.  An ExactArray over Q[t] loses the
    coefficient planes above its degree, and is over Q when that is 0."""
    if type(arr) is ExactArray:
        return _normalized(arr) if arr.poly else arr
    if not isinstance(arr, np.ndarray):
        arr = np.asarray(arr, dtype=object)
    elif arr.dtype.kind in "iu":  # integers: the numerators themselves, over 1
        bound = max(int(arr.max()), -int(arr.min())) if arr.size else 0
        num = np.array(arr, dtype=np.int64 if bound < INT64_LIMIT else object)
        num.flags.writeable = False
        return ExactArray(num, 1, bound)
    elif arr.dtype != _OBJECT:
        raise TypeError(f"exact entries are ints, Fractions or Polys, not a {arr.dtype} array")
    return exact_array(arr.ravel(), arr.shape)


def _normalized(arr):
    planes = np.flatnonzero((arr.num != 0).reshape(len(arr.num), -1).any(axis=1))
    k = int(planes[-1]) + 1 if planes.size else 0
    if k <= 1:
        return ExactArray(arr.num[0], arr.den, arr.bound)
    return ExactArray(arr.num[:k], arr.den, arr.bound, True)


def reduced(arr):
    """An ExactArray with the common factor of its denominator and its
    numerators divided out, and its bound recomputed from the numerators.

    The constructors of algebras and representations call it once on their
    structure constants; the arithmetic itself never reduces.  An
    ExactArray over den 1 is returned as it is."""
    if arr.den == 1:
        return arr
    nums = arr.num.ravel().tolist()
    g = gcd(arr.den, *nums)
    if g == 1:
        return arr
    return _result(arr.num // g, arr.den // g, max(map(abs, nums)) // g, arr.poly)


def exact_array(entries, shape):
    """Row-major `entries` as an ExactArray of `shape`.  The entries are
    ints (numpy integers too), Fractions or Polys; any other (a float, a
    bool, a str, None) is a TypeError.  One pass collapses constant Polys to
    rationals and integral Fractions to ints and takes the lcm of all
    denominators (coefficients' included) as the array's: over Q when all
    entries are rational, over Q[t] when some are genuine polynomials."""
    if type(entries) is ExactArray:
        return entries.reshape(shape)
    flat = np.empty(prod(shape), dtype=object)
    flat[:] = entries
    flat = flat.tolist()
    den, deg = 1, 0
    for k, x in enumerate(flat):
        if type(x) is int:
            continue
        if type(x) is Poly:
            if x.degree > 0:
                den, deg = lcm(den, *(c.denominator for c in x.coeffs)), max(deg, x.degree)
                continue
            x = x.coeffs[0] if x.coeffs else 0
        if type(x) is Fraction:
            den = lcm(den, x.denominator)
            x = x.numerator if x.denominator == 1 else x
        elif isinstance(x, np.integer):
            x = int(x)
        elif isinstance(x, (list, tuple)):  # from nested sequences of unequal lengths
            raise DimMismatchError("ragged array")
        elif type(x) is not int:
            raise TypeError(f"exact entries are ints, Fractions or Polys, not {type(x).__name__}")
        flat[k] = x
    if deg:
        return _poly_array(flat, shape, den, deg)
    nums = flat if den == 1 else [x.numerator * (den // x.denominator) for x in flat]
    bound = max(map(abs, nums), default=0)
    num = np.array(nums, dtype=np.int64 if bound < INT64_LIMIT else object).reshape(shape)
    num.flags.writeable = False
    return ExactArray(num, den, bound)


def _poly_array(flat, shape, den, deg):
    """The ExactArray over Q[t] of entries of degree at most deg over den."""
    rows = []
    for x in flat:
        coeffs = x.coeffs if type(x) is Poly else (Fraction(x),)
        row = [c.numerator * (den // c.denominator) for c in coeffs]
        rows.append(row + [0] * (deg + 1 - len(row)))
    bound = max(abs(c) for row in rows for c in row)
    num = np.array(rows, dtype=np.int64 if bound < INT64_LIMIT else object).T.reshape(deg + 1, *shape)
    num.flags.writeable = False
    return ExactArray(num, den, bound, True)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable exact matrix: a shape-checked wrapper over its exact array
    `arr` (an ExactArray, over the rationals or over Q[t]).

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
        return cls([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])

    def __getitem__(self, ij):
        return self.arr[ij]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.arr.shape == other.arr.shape and not (self.arr - other.arr != 0).any()

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
        return self.arr.poly

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

    def _echelon_with_identity(self):
        """_echelon of the rows of den * [A | I], I one column per row of A."""
        rows = self._integer_rows()
        for i, row in enumerate(rows):
            row[self.cols + i] = self.arr.den
        return _echelon(rows)

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
        pivots = self._echelon_with_identity()
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

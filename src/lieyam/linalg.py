"""Exact arrays, matrices and linear algebra over the scalar ring.

Every value of the package is an exact array, an ExactArray: integer
numerators over one common denominator, int64 while a bound on their
magnitude carried through every operation stays below INT64_LIMIT,
Python ints in an object array beyond it.  An array over Q[t] (genuine
polynomials in t among its entries) is the same type with one more,
leading, axis of numerators: those of the coefficients of t^0, t^1, ...
over the one denominator; a product of two such arrays is one einsum over
the outer product of their coefficient axes, whose anti-diagonals it sums.
The law code contracts through `einsum`, the direct door to the kernel that
np.einsum on an ExactArray also reaches, without numpy's dispatch.  Two
operands over Q whose bound fits int64 take one kernel call, and none when
the bound is 0 (the zero rule: an operand that is zero gives zeros of the
result's shape, and a sum the other operand).
The type is closed: values enter only through `exact` (entry by entry,
`exact_array`), which refuses anything but ints, Fractions and Polys, and
leave only by value: as Polys where a coefficient of t^1, t^2, ... is
nonzero, else as ints (integral values) or Fractions; numpy's ufuncs
refuse it.  Exact values summed at integer indices or by integer keys
(the sparse triples of the coboundaries) go through `scatter_add` and
`sum_by_key`, so that no other module reads or picks the numerator
format.  A Matrix is a 2-d exact array with a checked shape; matrices
act on coordinate columns: column k of a map's matrix is the image of
the k-th basis vector.  `Matrix.expect(rows, cols, message)` is the one
shape rule for an operand (an operator, a form, a basis change): every
module checks its matrices through it, with its own message.

Exact linear algebra is only defined over the rationals; matrices with
genuine polynomial entries are rejected (evaluate t first).  `solve(A, B)`
gives the general solution of A X = B, a particular X and the canonical
kernel basis K, or None; kernels (nullspace_basis), inverses (A X = I) and
eigenspaces are read off it.  It and `Matrix.rank` are the only readers
of one exact elimination, `_echelon`: the rows of the numerator array
(each row of the matrix times the common denominator) keep only their
nonzero entries in a {column: int} dict, and are brought to reduced
echelon form by fraction-free elimination with content removal (every
row divided by the gcd of its entries after each step).
Coboundary matrices in a catalog basis, or in a weight basis, are mostly
zeros, and the dict rows never touch those.  In a dense basis they fill
in, and so does their reduced form; yamaguti.cohomology_dim therefore
ranks dense input in the eigenbasis of a derivation, found exactly by
`rational_eigenvalues` (Faddeev-LeVerrier characteristic polynomial,
integer roots) and `rational_eigenbasis` (eigenspaces by `solve`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

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

    The law code reads these arrays as it would numpy arrays: einsum (or
    np.einsum, with explicit output subscripts), np.stack, np.concatenate,
    np.broadcast_to (over Q), +, -, *,
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
            return einsum(*args)
        if func in (np.stack, np.concatenate) and not kwargs and len(args) == 1:
            return _stack(func, args[0])
        if func is np.broadcast_to and not kwargs and not self.poly:
            return ExactArray(np.broadcast_to(self.num, args[1]), self.den, self.bound)
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
    operand.  Two operands over Q take one step: the kernel on their int64
    numerators when the bound fits, and no kernel at all when it is 0 (an
    operand is zero, or nothing is summed): zeros of the result's shape,
    which _ZERO_SHAPES keeps by subscripts and operand shapes."""
    if len(operands) == 2:
        a, b = operands
        if type(a) is ExactArray and type(b) is ExactArray and not (a.poly or b.poly):
            bound = terms * a.bound * b.bound
            if bound == 0:
                key = (head or func, a.num.shape, b.num.shape)
                shape = _ZERO_SHAPES.get(key)
                if shape is None:
                    shape = _ZERO_SHAPES[key] = np.shape(func(*head, a.num, b.num))
                fits = 0 < INT64_LIMIT
                NUMERATOR_OPS["int64" if fits else "object"] += 1
                return ExactArray(np.zeros(shape, _INT64 if fits else _OBJECT), a.den * b.den, 0)
            if bound < INT64_LIMIT:
                NUMERATOR_OPS["int64"] += 1
                num = func(*head, a.num, b.num)
                if type(num) is np.ndarray:
                    return ExactArray(num, a.den * b.den, bound)
                return _result(num, a.den * b.den, bound)
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


# ((subscripts,), or func for * and @, and the operand shapes) -> the shape
# of their contraction, which is zero when an operand is
_ZERO_SHAPES = {}


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
    if type(a) is ExactArray and type(b) is ExactArray and a.den == b.den and not (a.poly or b.poly):
        bound = a.bound + b.bound
        if bound < INT64_LIMIT:  # one step; a zero operand of the same shape gives the other
            NUMERATOR_OPS["int64"] += 1
            if a.bound == 0 and a.num.shape == b.num.shape:
                return b if sign > 0 else ExactArray(-b.num, b.den, b.bound)
            if b.bound == 0 and a.num.shape == b.num.shape:
                return a
            return ExactArray(a.num + b.num if sign > 0 else a.num - b.num, a.den, bound)
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


def einsum(subscripts, *operands):
    """np.einsum of ExactArrays with explicit output subscripts, called
    directly: np.einsum on an ExactArray comes here too.  Each output entry
    sums one product per value of the indices summed over.  Any other call
    is a TypeError."""
    axes = _SUMMED.get(subscripts)
    if axes is None:
        if type(subscripts) is not str or "->" not in subscripts:
            raise TypeError("einsum of exact arrays takes explicit output subscripts")
        axes = _SUMMED[subscripts] = _summed_axes(subscripts)
    terms = 1
    for k, p in axes:
        if type(operands[k]) is not ExactArray:
            break
        terms *= operands[k].shape[p]
    else:
        out = _contract(_c_einsum, operands, terms, subscripts)
        if out is not NotImplemented:
            return out
    raise TypeError("einsum takes ExactArrays and exact scalars")


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
    num = arr.num if g < INT64_LIMIT else arr.num.astype(object)  # a g past int64 divides only zeros
    return _result(num // g, arr.den // g, max(map(abs, nums), default=0) // g, arr.poly)


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


def scatter_add(size, pairs):
    """The 1-d ExactArray of `size` entries that sums the pairs (index,
    values) at their indices: integer index arrays, each with an ExactArray
    over Q of values that broadcasts to it (repeated indices add up).  The
    sums are over the lcm of the values' denominators; none exceeds the sum
    of the values' scaled bounds over every entry of their indices, which is
    its bound."""
    den = lcm(*(values.den for _, values in pairs))
    bound = sum(values.bound * (den // values.den) * index.size for index, values in pairs)
    fits = max(bound, den) < INT64_LIMIT
    NUMERATOR_OPS["int64" if fits else "object"] += 1
    num = np.zeros(size, dtype=_INT64 if fits else _OBJECT)
    for index, values in pairs:
        add = values.num if fits else values.num.astype(object)
        if values.den != den:
            add = add * (den // values.den)
        if add.shape != index.shape:
            add = np.broadcast_to(add, index.shape)
        np.add.at(num, index.ravel(), add.ravel())
    return ExactArray(num, den, bound)


def sum_by_key(keys, values):
    """The distinct keys of a 1-d integer array, in increasing order, and the
    1-d ExactArray of the sums of `values` (one per key, over Q) at each."""
    keys, at = np.unique(keys, return_inverse=True)
    return keys, scatter_add(len(keys), [(at, values)])


def polynomial(planes):
    """The exact array over Q[t] whose coefficient of t^k is planes[k]:
    exact arrays over Q, or integer ndarrays, broadcast to one shape."""
    planes = [exact(x) for x in planes]
    shape = np.broadcast_shapes(*(x.shape for x in planes))
    stacked = np.stack([np.broadcast_to(x, shape) for x in planes])
    return exact(ExactArray(stacked.num, stacked.den, stacked.bound, True))


def coefficient(arr, k):
    """The exact array over Q of the coefficients of t^k of arr's entries
    (zero beyond their degree; arr itself at k = 0 when arr is over Q)."""
    if arr.poly and k < len(arr.num):
        return ExactArray(arr.num[k], arr.den, arr.bound)
    if not arr.poly and k == 0:
        return arr
    return ExactArray(np.zeros(arr.shape, dtype=np.int64), 1, 0)


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

    def expect(self, rows, cols, message):
        """This matrix, which must be rows x cols: the one shape check of an
        operand, DimMismatchError(message) otherwise."""
        if self.arr.shape != (rows, cols):
            raise DimMismatchError(message)
        return self

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

    # -- exact linear algebra ------------------------------------------------

    def rank(self) -> int:
        """Rank over the rational field (exact)."""
        return len(_echelon(self._integer_rows()))

    def nullspace_basis(self):
        """Exact basis of the right kernel, as a list of vectors (tuples of
        ints and Fractions): the rows of K of solve(self)."""
        return list(solve(self)[1].data)

    def nullspace_dim(self) -> int:
        return self.cols - self.rank()

    def invert(self):
        """Exact inverse, X of solve(A, I); SingularMatrixError if det = 0."""
        if not self.is_square():
            raise DimMismatchError("inverse of a non-square matrix")
        solution = solve(self, Matrix.identity(self.rows))
        if solution is None:
            raise SingularMatrixError("matrix is singular")
        return solution[0]

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]!r})"


def _echelon(rows):
    """Reduced echelon form of integer rows, by fraction-free elimination.

    `rows` are {column: int} dicts holding only nonzero entries.  Returns
    {pivot column: row}: every row is primitive (its entries have gcd 1),
    is positive at its pivot, has no nonzero left of the pivot, and is zero
    in every other pivot column.  Dividing each row by its pivot entry
    gives the (unique) reduced row echelon form over the rationals.
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


def solve(a: Matrix, b: Matrix = None):
    """The general solution of A X = B over the rationals: (X, K), or None
    when a column of B lies outside the column space of A.  B defaults to
    no columns.

    One _echelon of the rows of [A | B]: a reduced row (r | c) says
    r . x = c, so a row with its pivot in B is a contradiction, and a row
    with pivot p solves x_p from the free unknowns (the columns of A
    without a pivot).  X is the solution that is zero on the free
    unknowns.  K has one row per free column j, 1 at j and 0 at the other
    free columns: the canonical basis of the kernel of A, with A K^T = 0.
    Every solution is X plus K^T times any matrix.
    """
    n, b = a.cols, Matrix.zero(a.rows, 0) if b is None else b
    if b.rows != a.rows:
        raise DimMismatchError(f"solve {a.rows}x{n} against {b.rows} right-hand-side rows")
    pivots = _echelon(Matrix.from_array(np.concatenate([a.arr.T, b.arr.T]).T)._integer_rows())
    if any(p >= n for p in pivots):
        return None
    free = {j: i for i, j in enumerate(j for j in range(n) if j not in pivots)}
    den = lcm(*(row[p] for p, row in pivots.items()))
    x, kernel = np.zeros((n, b.cols), dtype=object), np.zeros((len(free), n), dtype=object)
    kernel[range(len(free)), list(free)] = den
    for p, row in pivots.items():
        for j, c in row.items():
            if j >= n:
                x[p, j - n] = c * (den // row[p])
            elif j != p:
                kernel[free[j], p] = -c * (den // row[p])
    return tuple(Matrix.from_array(reduced(_result(num, den, max(map(abs, num.ravel().tolist()), default=0))))
                 for num in (x, kernel))


def _integer_charpoly(b):
    """det(t I - B) of a square object array of ints, as its integer
    coefficients from t^0 up, by Faddeev-LeVerrier: M_1 = I, c_(n-k) =
    -tr(B M_k) / k and M_(k+1) = B M_k + c_(n-k) I, every division exact."""
    n = len(b)
    coeffs, m = [0] * n + [1], np.identity(n, dtype=object)
    for k in range(1, n + 1):
        bm = b.dot(m)
        coeffs[n - k] = -sum(bm[i, i] for i in range(n)) // k
        m = bm + coeffs[n - k] * np.identity(n, dtype=object)
    return coeffs


#: Most divisors the integer root search of rational_eigenvalues tries; a
#: matrix that needs more counts as not split over Q.
ROOT_SEARCH_LIMIT = 1 << 16


def rational_eigenvalues(mat: Matrix):
    """{eigenvalue: algebraic multiplicity}, in increasing order, of a
    square rational matrix A whose characteristic polynomial splits over
    Q, else None.

    The eigenvalues are those of the primitive integer multiple B = c * A
    over c.  The rational roots of B's monic integer characteristic
    polynomial (_integer_charpoly) are integers that divide its lowest
    nonzero coefficient and are at most B's largest absolute row sum; each
    divisor in that range is tried, with its multiplicity (_integer_roots).
    When more than ROOT_SEARCH_LIMIT divisors would be tried, None.
    """
    mat._require_rational()
    if not mat.is_square():
        raise DimMismatchError("eigenvalues of a non-square matrix")
    b = mat.arr.num.astype(object)
    content = max(gcd(*b.ravel().tolist()), 1)
    b = b // content
    bound = max((sum(abs(x) for x in row) for row in b.tolist()), default=0)
    roots = _integer_roots(_integer_charpoly(b), bound)
    if roots is None or sum(roots.values()) != mat.rows:
        return None
    scale = Fraction(content, mat.arr.den)
    return {r * scale: k for r, k in sorted(roots.items())}


def rational_eigenbasis(mat: Matrix, eigenvalues):
    """P whose columns are eigenvectors of the square rational matrix A
    (primitive integer vectors), `eigenvalues` ({value: multiplicity}, as
    rational_eigenvalues(A) gives them) each repeated by its multiplicity
    in order, so that A P = P diag(those); None when some eigenspace, the
    kernel of A - value * I (solve), is smaller than its multiplicity,
    that is, when A is not diagonalizable.
    """
    n = mat.rows
    columns = []
    for value, k in eigenvalues.items():
        kernel = solve(mat - Matrix.identity(n).scale(value))[1].arr.num.tolist()
        if len(kernel) != k:
            return None
        columns += [[x // gcd(*v) for x in v] for v in kernel]
    return Matrix.from_array(exact_array(np.array(columns, dtype=object).T.ravel(), (n, n)))


def _integer_roots(coeffs, bound):
    """{root: multiplicity} of the integer roots of a monic integer
    polynomial (coefficients from t^0 up) whose roots are at most `bound`
    in absolute value; None when that search would try more than
    ROOT_SEARCH_LIMIT divisors."""
    roots = {}
    zeros = next(k for k, c in enumerate(coeffs) if c)
    if zeros:
        roots[0] = zeros
    poly, low = coeffs[zeros:], abs(coeffs[zeros])
    top = min(bound, isqrt(low))
    if top > ROOT_SEARCH_LIMIT:
        return None
    divisors = set()
    for d in range(1, top + 1):
        if low % d == 0:
            divisors.update(x for x in (d, low // d) if x <= bound)
    for d in sorted(divisors):
        for r in (d, -d):
            while len(poly) > 1:
                # synthetic division by (t - r): the quotient, and the remainder p(r)
                quotient, carry = [0] * (len(poly) - 1), poly[-1]
                for k in range(len(poly) - 2, -1, -1):
                    quotient[k] = carry
                    carry = poly[k] + r * carry
                if carry:
                    break
                poly, roots[r] = quotient, roots.get(r, 0) + 1
    return roots


def exact_product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Check a @ b == 0 exactly, on the exact arrays of the two factors."""
    if a.cols != b.rows:
        raise DimMismatchError("incompatible shapes")
    return not (a.arr @ b.arr != 0).any()

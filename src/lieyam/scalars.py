"""Exact scalar ring: rationals and univariate polynomials in t.

Rationals are plain ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  Polynomials in the deformation parameter t are
``Poly`` values holding a tuple of Fraction coefficients, lowest degree
first, with trailing zeros stripped; the zero polynomial has an empty
coefficient tuple.  They are the scalars at the package's boundary:
parsed from and formatted to JSON, taken in by linalg.exact_array and
given back as the entries of an array, a Matrix or a witness.  The laws
themselves run on linalg.ExactArray (integer numerators over one
denominator, with an axis of coefficients of t for Q[t]), never on these
objects; a family over Q[t] is built with linalg.polynomial.

Division by a polynomial is deliberately unsupported: operations needing
inverses must be run over rational entries.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BadRationalError, PolynomialEntriesError

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)

#: Longest rational string parse_rational takes (sign and slash included);
#: it keeps every digit run under Python's default int/str digit limit.
MAX_RATIONAL_CHARS = 4000

#: Highest degree parse_scalar takes in a {"poly": [...]} scalar; deform
#: writes degree 2.  It bounds the coefficient axes a product over Q[t]
#: multiplies together.
MAX_POLY_DEGREE = 4

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# format_rational writes integers past the int->str digit limit in chunks
# of this many digits (below the smallest limit Python can be set to, 640).
_CHUNK_DIGITS = 500


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Univariate polynomial in t over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([Fraction(c) for c in coeffs])

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else RAT_ZERO)
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly((-Fraction(other),)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [RAT_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return Poly([c / other for c in self.coeffs])
        raise PolynomialEntriesError("division by a polynomial is not supported")

    def __pow__(self, n):
        out = Poly((RAT_ONE,))
        for _ in range(n):
            out = out * self
        return out

    def coeff(self, k):
        """Coefficient of t**k."""
        return self.coeffs[k] if k < len(self.coeffs) else RAT_ZERO

    def eval(self, value):
        """Evaluate at a rational value of t (Horner)."""
        acc = RAT_ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_scalar(self)


#: The generator t of the polynomial ring.
T = Poly((RAT_ZERO, RAT_ONE))


def is_zero(s) -> bool:
    """True iff s is the canonical zero of its ring."""
    if isinstance(s, Poly):
        return not s.coeffs
    return s == 0


#: identity checking for either scalar kind (rationals embed as constants)
poly_is_zero = is_zero


def as_fraction(s) -> Fraction:
    """Coerce to Fraction; reject genuine polynomials."""
    if isinstance(s, Poly):
        if s.degree > 0:
            raise PolynomialEntriesError("polynomial scalar where a rational is required")
        return s.coeffs[0] if s.coeffs else RAT_ZERO
    return Fraction(s)


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (optional sign, decimal digits) into a Fraction.

    Surrounding whitespace is ignored; exponents, decimal points and
    strings longer than MAX_RATIONAL_CHARS are rejected.
    """
    if not isinstance(text, str):
        raise BadRationalError(f"expected a rational string, got {text!r}")
    text = text.strip()
    if len(text) > MAX_RATIONAL_CHARS:
        raise BadRationalError(f"rational string of {len(text)} characters; the limit is "
                               f"{MAX_RATIONAL_CHARS}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise BadRationalError(f"bad rational {text!r}: expected 'p' or 'p/q'")
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # a lowered int/str digit limit
        raise BadRationalError(f"bad rational: {exc}") from exc
    if den == 0:
        raise BadRationalError(f"bad rational {text!r}: zero denominator")
    return Fraction(num, den)


def parse_scalar(value):
    """Parse the serialized form: 'p/q' string, JSON integer or {'poly': [coefficients]}.

    Each coefficient is a 'p/q' string or a JSON integer, and there are at
    most MAX_POLY_DEGREE + 1 of them.  JSON booleans are not integers here:
    true/false is a BadRationalError.
    """
    if isinstance(value, dict):
        coeffs = value.get("poly")
        if set(value) != {"poly"} or not isinstance(coeffs, list):
            raise BadRationalError(f"bad scalar object {value!r}")
        if len(coeffs) > MAX_POLY_DEGREE + 1:
            raise BadRationalError(f"polynomial of {len(coeffs)} coefficients; the limit is "
                                   f"degree {MAX_POLY_DEGREE}")
        if any(isinstance(c, dict) for c in coeffs):
            raise BadRationalError(f"bad scalar object {value!r}: a coefficient is an object")
        return Poly([parse_scalar(c) for c in coeffs])
    if isinstance(value, bool):
        raise BadRationalError(f"expected a rational, got the boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    return parse_rational(value)


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    num = _decimal(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"


def _decimal(n: int) -> str:
    """Decimal digits of n, also past Python's int->str digit limit."""
    try:
        return str(n)
    except ValueError:
        pass
    chunks = []
    rest = abs(n)
    while rest:
        rest, low = divmod(rest, 10**_CHUNK_DIGITS)
        chunks.append(low)
    head, *tail = reversed(chunks)
    return ("-" if n < 0 else "") + str(head) + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in tail)


def format_scalar(s):
    """Serialize: rationals to 'p/q' strings, polynomials to {'poly': [...]}."""
    if isinstance(s, Poly):
        return {"poly": [format_rational(c) for c in s.coeffs]}
    return format_rational(s)

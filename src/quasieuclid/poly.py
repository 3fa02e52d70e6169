"""Exact elements of Q[x] in normalized fraction form, with the order that
makes x larger than every integer.

An element is an integer polynomial over a positive integer denominator,
kept in lowest terms (the gcd of the coefficients is coprime to the
denominator).  Coefficients are arbitrary-precision integers; nothing here
ever touches floating point.  Conventions: the zero polynomial has degree
-1 and leading coefficient 0.

_json is the library's one JSON encoder.  A record (a dataclass that mixes
in _Record, or a NamedTuple) is the object of its fields, an element its
to_json(); the CLI passes _json to json.dumps as its default.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import cache, total_ordering
from itertools import zip_longest
from typing import Iterable, Sequence


@total_ordering
class RingElement:
    """A polynomial h/n with h integer and n a positive integer.

    Instances are immutable, hashable, and always in normal form; equality
    is equality of normal forms.  Ordering is the discrete order: an
    element is positive exactly when its leading coefficient is.  Mixed
    arithmetic and comparison with plain ints is supported.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[int | Fraction] = (), den: int = 1):
        if not isinstance(den, int) or isinstance(den, bool):
            raise TypeError(f"denominator must be an int, got {type(den).__name__}")
        if den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        raw = list(coeffs)
        scale = 1
        for c in raw:
            if isinstance(c, Fraction):
                scale = scale * c.denominator // math.gcd(scale, c.denominator)
            elif not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")
        num, den = [int(c * scale) for c in raw], den * scale
        if den < 0:
            den, num = -den, [-c for c in num]
        e = self._from_normal(num, den)
        self._num: tuple[int, ...] = e._num
        self._den: int = e._den

    @classmethod
    def _from_normal(cls, num: Sequence[int], den: int) -> "RingElement":
        """The element num/den for int coefficients and den > 0, with no
        validation: drops trailing zeros by index, divides out gcd(content,
        den) unless den = 1, and builds one tuple.  Every result built
        inside the library comes through here."""
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        if n < len(num):
            num = num[:n]
        g = math.gcd(den, *num) if den != 1 else 1  # den itself when num is zero
        if g > 1:
            num, den = [c // g for c in num], den // g
        e = object.__new__(cls)
        e._num, e._den = tuple(num), den
        return e

    # -- structure ---------------------------------------------------------

    @property
    def num(self) -> tuple[int, ...]:
        """Integer coefficients, constant term first."""
        return self._num

    @property
    def den(self) -> int:
        return self._den

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def lc(self) -> Fraction:
        """Leading coefficient as an exact rational; 0 for the zero element."""
        if not self._num:
            return Fraction(0)
        return Fraction(self._num[-1], self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_integer(self) -> bool:
        """True when the element lies in Z (a constant with denominator 1)."""
        return self._den == 1 and len(self._num) <= 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RingElement | None":
        if isinstance(value, RingElement):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return _const(value)
        if isinstance(value, Fraction):
            return RingElement((value,))
        return None

    def __add__(self, other) -> "RingElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _lincomb(1, self, 1, o)

    __radd__ = __add__

    def __sub__(self, other) -> "RingElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _lincomb(1, self, -1, o)

    def __rsub__(self, other) -> "RingElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _lincomb(1, o, -1, self)

    def __mul__(self, other) -> "RingElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return -_submul(ZERO, self, o)

    __rmul__ = __mul__

    def __neg__(self) -> "RingElement":
        e = RingElement.__new__(RingElement)
        e._num = tuple(-c for c in self._num)
        e._den = self._den
        return e

    def __pos__(self) -> "RingElement":
        return self

    def __abs__(self) -> "RingElement":
        return -self if self._num and self._num[-1] < 0 else self

    def __pow__(self, exponent: int) -> "RingElement":
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        num = self._num
        if num and num.count(0) == len(num) - 1:
            # a monomial c*x^d/n: its power is c^e*x^(d*e)/n^e, built at once
            out = [0] * ((len(num) - 1) * exponent + 1)
            out[-1] = num[-1] ** exponent
            return RingElement._from_normal(out, self._den**exponent)
        result, base, e = ONE, self, exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self._num)

    def __int__(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self._num[0] if self._num else 0

    # -- order and identity ---------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _cmp(self, o) < 0

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- presentation ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"RingElement({list(self._num)}, {self._den})"

    def __str__(self) -> str:
        return format_element(self)

    def to_json(self) -> dict:
        return {"num": list(self._num), "den": self._den}

    @classmethod
    def from_json(cls, data) -> "RingElement":
        return cls(tuple(data["num"]), data["den"])


ZERO = RingElement()
ONE = RingElement((1,))
X = RingElement((0, 1))


def as_element(value) -> RingElement:
    """Coerce an int, Fraction, or RingElement to a RingElement."""
    e = RingElement._coerce(value)
    if e is None:
        raise TypeError(f"cannot interpret {type(value).__name__} as a ring element")
    return e


def _const(c: int) -> RingElement:
    """The integer c as an element, with no validation: c must be an int."""
    e = object.__new__(RingElement)
    e._num, e._den = ((c,) if c else ()), 1
    return e


def _submul(w: RingElement, p: RingElement, u: RingElement) -> RingElement:
    """w - p*u, as one coefficient list over one denominator; the product
    p*u is -_submul(ZERO, p, u).

    With w = W/a, p = P/b and u = U/c, the result is
    (W*(L/a) - P*U*(L/bc))/L for L = lcm(a, bc): one scaled pass when p is
    a constant, otherwise one convolution that takes each nonzero
    coefficient of p times every one of u, and one _from_normal call.
    """
    pn, un = p._num, u._num
    wn, wd = w._num, w._den
    if not pn or not un:
        return w
    pud = p._den * u._den
    g = math.gcd(wd, pud)
    fw, fpu = pud // g, wd // g  # L/a and L/bc
    if len(pn) == 1:
        c = pn[0] * fpu
        out = [fw * x - c * y for x, y in zip_longest(wn, un, fillvalue=0)]
    else:
        out = [fw * x for x in wn]
        out += [0] * (len(pn) + len(un) - 1 - len(out))
        for i, a in enumerate(pn):
            if a:
                a *= fpu
                for j, y in enumerate(un, i):
                    out[j] -= a * y
    return RingElement._from_normal(out, wd * fw)


def _lincomb(x: int, w: RingElement, y: int, u: RingElement) -> RingElement:
    """x*w + y*u for ints x and y, as one pass over the coefficients of w
    and u on lcm(den w, den u) and one _from_normal call."""
    wd, ud = w._den, u._den
    g = math.gcd(wd, ud)
    fx, fy = x * (ud // g), y * (wd // g)
    out = [fx * a + fy * b for a, b in zip_longest(w._num, u._num, fillvalue=0)]
    return RingElement._from_normal(out, wd // g * ud)


def _cmp(a: RingElement, b: RingElement) -> int:
    # The sign of a - b without building it: the higher degree decides by
    # its leading sign; at equal degree, the first coefficient from the top
    # that differs, compared across the two denominators.
    an, bn = a._num, b._num
    if len(an) != len(bn):
        if len(an) > len(bn):
            return 1 if an[-1] > 0 else -1
        return -1 if bn[-1] > 0 else 1
    ad, bd = a._den, b._den
    for i in range(len(an) - 1, -1, -1):
        x, y = an[i] * bd, bn[i] * ad
        if x != y:
            return 1 if x > y else -1
    return 0


def compare(a: RingElement, b: RingElement) -> int:
    """Sign of a - b in the discrete order: -1, 0, or +1."""
    return _cmp(as_element(a), as_element(b))


def _pdiv(qnum: Sequence[int], rnum: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of the numerators Q = qnum by R = rnum != 0:
    (quo, rem, D) with D*Q = quo*R + rem, deg rem < deg R and D >= 1.

    Knuth, TAOCP vol. 2, 4.6.1, Algorithm R: quo and rem share the running
    multiplier D, and a step whose leading term t is not a multiple of
    lc(R) first scales both by |lc(R)|/gcd(t, lc(R)).  When deg Q < deg R,
    quo is empty, rem is Q and D = 1.  rem may carry trailing zeros.
    """
    dr = len(rnum) - 1
    shift = len(qnum) - 1 - dr
    if shift < 0:
        return [], list(qnum), 1
    lead = rnum[-1]
    rem = list(qnum)
    quo = [0] * (shift + 1)
    den = 1
    for i in range(shift, -1, -1):
        t = rem[i + dr]
        if not t:
            continue
        s = abs(lead) // math.gcd(t, lead)
        if s > 1:
            den *= s
            for j in range(i + dr + 1):
                rem[j] *= s
            for j in range(i + 1, shift + 1):
                quo[j] *= s
            t *= s
        c = t // lead
        quo[i] = c
        for j in range(dr + 1):
            rem[i + j] -= c * rnum[j]
    return quo, rem[:dr], den


def qdiv(q: RingElement, r: RingElement) -> tuple[RingElement, RingElement]:
    """Classical division in Q[x]: (quot, rem) with q = quot*r + rem and
    deg rem < deg r.

    With q = Q/n, r = R/m and D*Q = quo*R + rem' from _pdiv, the results
    are m*quo/(n*D) and rem'/(n*D).
    """
    if r.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quo, rem, den = _pdiv(q.num, r.num)
    den *= q.den
    if r.den != 1:
        quo = [r.den * c for c in quo]
    return RingElement._from_normal(quo, den), RingElement._from_normal(rem, den)


# --------------------------------------------------------------------------
# JSON form.


@cache  # dataclasses.fields is slow, so each type's names are read once
def _field_names(cls: type) -> tuple[str, ...]:
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return cls._fields
    raise TypeError(f"{cls.__name__} has no JSON form")


def _fields_json(value) -> dict:
    return {name: _json(getattr(value, name)) for name in _field_names(type(value))}


def _json(value):
    """value as it is when an int, bool, str or None; a list for an exact
    tuple or list; str() keys in sorted order for a dict; to_json() when
    value has one (an element, a record, a tau spec); the object of its
    fields for another dataclass or a NamedTuple.  Anything else, a float
    or Fraction too, is a TypeError."""
    t = type(value)
    if t is int or t is bool or t is str or value is None:
        return value
    if t is tuple or t is list:
        return [_json(v) for v in value]
    if t is dict:
        return {str(k): _json(value[k]) for k in sorted(value)}
    to_json = getattr(value, "to_json", None)
    if to_json is not None:
        return to_json()
    return _fields_json(value)


class _Record:
    """Mixin for a dataclass whose JSON form is the object of its fields."""

    def to_json(self) -> dict:
        return _fields_json(self)


# --------------------------------------------------------------------------
# Text form.  The parser lives in syntax.py; printing is defined here so
# elements know how to render themselves.


def _format_poly(num: Sequence[int]) -> str:
    if not num:
        return "0"
    parts: list[tuple[str, str]] = []
    for i in range(len(num) - 1, -1, -1):
        c = num[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "x" if i == 1 else f"x^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def format_element(e: RingElement) -> str:
    """Render in the CLI syntax; parse_element inverts this exactly."""
    body = _format_poly(e.num)
    if e.den == 1:
        return body
    if " " in body:
        return f"({body})/{e.den}"
    return f"{body}/{e.den}"

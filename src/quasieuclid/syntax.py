"""Parser for the textual polynomial syntax used on the command line.

Accepted forms include rational coefficients ("3/2*x^2 - x + 5"), a single
trailing denominator ("(x^2 + x)/2", "x/2"), implicit multiplication
("3x"), parentheses nested at most _MAX_NESTING levels deep, and unary
signs.  Division is restricted to nonzero rational constants on the right.
A power or product whose result would hold more than _MAX_LENGTH
coefficients or _MAX_POWER_BITS bits is rejected before it is built, and so
is an integer literal longer than the interpreter converts.
"""

from __future__ import annotations

import math
import sys

from .poly import RingElement, as_element


class ParseError(ValueError):
    """The input is not a valid polynomial expression."""


_OPS = set("+-*/^()")
# ASCII only: str.isdigit() also admits digits such as "²" that int() rejects
_DIGITS = frozenset("0123456789")

# The largest power or product the parser builds.  Its dense length, the
# degree plus one, is at most _MAX_LENGTH: x^65535 fits, x^65536 and
# x^100000000 do not.  Its size is at most _MAX_POWER_BITS bits, measured as
# a bound on its nonzero coefficients times a bound on their bit length (or
# times 1 where that is 0).  The bit bound of e is ceil(log2 of the sum of
# |e's numerator coefficients|) + ceil(log2 of e's denominator); a^n has n
# times a's, and a*b the sum of a's and b's.  a^n has one nonzero
# coefficient when a has one, and at most its length otherwise; a*b has at
# most the product of a's and b's counts, and at most its length.  So
# 2^65536 and 3*x^40000 fit, and the cost of a dense power, which grows with
# both, stays small: (x + 1)^255 fits and takes a few milliseconds, while
# (x + 1)^256, (x + 1)^255 * (x + 1) and (x + 1)^4000 (half a minute) do not.
_MAX_LENGTH = 2**16
_MAX_POWER_BITS = 2**16

# Each level of parentheses costs a few stack frames of the recursive descent.
_MAX_NESTING = 64


def _int_literal(digits: str, where: str) -> int:
    """int(digits) for an optionally signed decimal literal, or a ParseError
    when it has more digits than the interpreter converts."""
    # the interpreter's cap on int() of a digit string (none, 0, before
    # Python 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    count = len(digits.lstrip("-"))
    if limit and count > limit:
        raise ParseError(f"integer {where} has {count} digits, more than the limit of {limit}")
    return int(digits)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", _int_literal(text[i:j], f"at position {i}")))
            i = j
        elif ch in ("x", "X"):
            tokens.append(("x", 0))
            i += 1
        elif ch in _OPS:
            tokens.append((ch, 0))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of expression")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> RingElement:
        value = self.term()
        if self.peek() not in ("+", "-"):
            return value
        # a sum keeps each term's denominator and nonzero coefficients and
        # adds them once, so it costs the total length of its terms, not
        # their number times the degree of the sum
        terms = [_sparse(value, 1)]
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            terms.append(_sparse(self.term(), 1 if op == "+" else -1))
        return _sum(terms)

    def term(self) -> RingElement:
        value = self.unary()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op, _ = self.take()
                rhs = self.unary()
                value = _product(value, rhs if op == "*" else _reciprocal(rhs))
            elif nxt in ("x", "(") or nxt == "int":
                # implicit multiplication, e.g. "3x" or "2(x+1)"
                value = _product(value, self.unary())
            else:
                return value

    def unary(self) -> RingElement:
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take()[0] == "-"
        value = self.power()
        return -value if negate else value

    def power(self) -> RingElement:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() == "-":
                raise ParseError("negative exponents are not supported")
            kind, value = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer")
            if not base.is_zero:
                deg, terms, bits = _shape(base)
                n = value * deg
                _check_size("power", n, 1 if terms == 1 else n + 1, value * bits)
            return base**value
        return base

    def atom(self) -> RingElement:
        kind, value = self.take()
        if kind == "int":
            return as_element(value)
        if kind == "x":
            return RingElement((0, 1))
        if kind == "(":
            self.nesting += 1
            if self.nesting > _MAX_NESTING:
                raise ParseError(f"parentheses nested more than {_MAX_NESTING} levels deep")
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis")
            self.take()
            self.nesting -= 1
            return inner
        raise ParseError(f"unexpected token {kind!r}")


def _shape(e: RingElement) -> tuple[int, int, int]:
    """The degree of a nonzero e, its count of nonzero coefficients, and the
    bound on their bit length: ceil(log2 of the sum of |numerator
    coefficients|) + ceil(log2 of the denominator)."""
    norm = sum(map(abs, e.num))
    terms = len(e.num) - e.num.count(0)
    return e.degree, terms, (norm - 1).bit_length() + (e.den - 1).bit_length()


def _check_size(what: str, degree: int, terms: int, bits: int) -> None:
    """Raise ParseError unless a result of this degree, with at most terms
    nonzero coefficients of at most bits bits, is within the bounds."""
    if degree >= _MAX_LENGTH:
        raise ParseError(
            f"{what} too large: the result would hold more than {_MAX_LENGTH} coefficients"
        )
    if terms * max(bits, 1) > _MAX_POWER_BITS:
        raise ParseError(f"{what} too large: the result would exceed {_MAX_POWER_BITS} bits")


def _product(a: RingElement, b: RingElement) -> RingElement:
    """a*b, once the bounds on its size are within the limits."""
    if a.is_zero or b.is_zero:
        return a * b
    (da, ta, ba), (db, tb, bb) = _shape(a), _shape(b)
    _check_size("product", da + db, min(ta * tb, da + db + 1), ba + bb)
    # RingElement.__mul__ takes each nonzero coefficient of its left operand
    # times every coefficient of its right one: put the cheaper order first,
    # so a dense factor times a sparse one of high degree stays fast
    return a * b if ta * (db + 1) <= tb * (da + 1) else b * a


def _sparse(e: RingElement, sign: int) -> tuple[int, list[tuple[int, int]]]:
    """e's denominator and the nonzero coefficients (i, sign*c) of its
    numerator."""
    num = e.num
    if num.count(0) == len(num) - 1:
        # c*x^d: the count finds its one coefficient at C speed
        return e.den, [(len(num) - 1, sign * num[-1])]
    return e.den, [(i, sign * c) for i, c in enumerate(num) if c]


def _sum(terms: list[tuple[int, list[tuple[int, int]]]]) -> RingElement:
    """The sum of terms in _sparse form, added once over their lcm
    denominator."""
    den = math.lcm(*(d for d, _ in terms))
    out = [0] * (1 + max((cs[-1][0] for _, cs in terms if cs), default=-1))
    for d, cs in terms:
        f = den // d
        for i, c in cs:
            out[i] += f * c
    return RingElement._from_normal(out, den)


def _reciprocal(divisor: RingElement) -> RingElement:
    if divisor.is_zero:
        raise ParseError("division by zero in expression")
    if divisor.degree > 0:
        raise ParseError("division is only supported by rational constants")
    return RingElement((divisor.den,), divisor.num[0])


def parse_element(text: str) -> RingElement:
    """Parse an expression into a normalized element of Q[x]."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty polynomial expression")
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input starting at token {parser.pos}")
    return value

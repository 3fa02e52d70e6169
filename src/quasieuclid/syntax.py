"""Parser for the textual polynomial syntax used on the command line.

Accepted forms include rational coefficients ("3/2*x^2 - x + 5"), a single
trailing denominator ("(x^2 + x)/2", "x/2"), implicit multiplication
("3x"), parentheses, and unary signs.  Division is restricted to nonzero
rational constants on the right.  A power or product whose result would
hold more than _MAX_POWER_BITS bits is rejected before it is built, and so
is an integer literal longer than the interpreter converts.
"""

from __future__ import annotations

import sys

from .poly import RingElement, as_element


class ParseError(ValueError):
    """The input is not a valid polynomial expression."""


_OPS = set("+-*/^()")

# The largest power a^n the parser builds, as a bound on the bits the result
# holds: its n·deg(a) + 1 coefficients times a bound on their bit length,
# n·(ceil(log2 of the sum of |a's numerator coefficients|) + ceil(log2 of
# a's denominator)), or times 1 where that bound is 0.  So for x^n the size
# is the degree plus one, and for a constant base it is the bit length:
# x^65535 and 2^65536 fit, x^100000000 does not.  The coefficients count
# too because the cost of a dense power grows with both: (x + 1)^255 fits
# and takes a few milliseconds, while (x + 1)^4000 would take half a minute.
# A product a*b is held to the same bound, measured the same way: deg(a) +
# deg(b) + 1 coefficients times the sum of the two bit-length bounds.  So
# (x + 1)^255 fits, and (x + 1)^255 * (x + 1) does not, as (x + 1)^256 does not.
_MAX_POWER_BITS = 2**16


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i, n = 0, len(text)
    # the interpreter's cap on int() of a digit string (none, 0, before
    # Python 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if limit and j - i > limit:
                raise ParseError(
                    f"integer at position {i} has {j - i} digits, more than the limit of {limit}"
                )
            tokens.append(("int", int(text[i:j])))
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
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

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
        if self.peek() in ("+", "-"):
            op, _ = self.take()
            value = self.unary()
            return value if op == "+" else -value
        return self.power()

    def power(self) -> RingElement:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() == "-":
                raise ParseError("negative exponents are not supported")
            kind, value = self.take()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer")
            if _power_bits(base, value) > _MAX_POWER_BITS:
                raise ParseError(f"power too large: the result would exceed {_MAX_POWER_BITS} bits")
            return base**value
        return base

    def atom(self) -> RingElement:
        kind, value = self.take()
        if kind == "int":
            return as_element(value)
        if kind == "x":
            return RingElement((0, 1))
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis")
            self.take()
            return inner
        raise ParseError(f"unexpected token {kind!r}")


def _shape(e: RingElement) -> tuple[int, int]:
    """The degree of a nonzero e and the bound on its coefficients' bit
    length: ceil(log2 of the sum of |numerator coefficients|) + ceil(log2
    of the denominator)."""
    norm = sum(map(abs, e.num))
    return e.degree, (norm - 1).bit_length() + (e.den - 1).bit_length()


def _power_bits(base: RingElement, n: int) -> int:
    """The bound on the size of base**n that _MAX_POWER_BITS limits."""
    if base.is_zero:
        return 1
    deg, bits = _shape(base)
    return (n * deg + 1) * max(n * bits, 1)


def _product(a: RingElement, b: RingElement) -> RingElement:
    """a*b, once the bound on its size is within _MAX_POWER_BITS."""
    if a.is_zero or b.is_zero:
        return a * b
    (da, ba), (db, bb) = _shape(a), _shape(b)
    if (da + db + 1) * max(ba + bb, 1) > _MAX_POWER_BITS:
        raise ParseError(f"product too large: the result would exceed {_MAX_POWER_BITS} bits")
    return a * b


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

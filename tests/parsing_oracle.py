"""Token-by-token polynomial parser: the reference the one-pass parser in
``toricfol.parsing`` is tested against.

Builds a validated Polynomial for every term and sums them with ``+``,
so the order in which monomials first appear, and vanish on
cancellation, is the one Polynomial.__add__ defines.
"""

from __future__ import annotations

import re
from fractions import Fraction

from toricfol.parsing import ParseError
from toricfol.poly import Polynomial


# The grammar's tokens, named by kind; kept apart from the parser's own
# regex so that a change to the lexer cannot move its reference with it.
_TOKEN = re.compile(
    r"\s*(?:(?P<float>[0-9]+\.[0-9]*|\.[0-9]+)|(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^/()])|(?P<bad>\S))"
)


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        col = m.start(m.lastgroup) + 1
        if m.group("float"):
            raise ParseError("rational literals must be p/q", line, col)
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", line, col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), col))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


def parse_polynomial(text: str, names, line: int = 1) -> Polynomial:
    """Parse an expression in the declared variables; exact failures carry positions."""
    index = {name: j for j, name in enumerate(names)}
    nvars = len(names)
    tokens = _tokenize(text, line)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", line, tok[2])
        pos += 1
        return tok

    def parse_number() -> Fraction:
        tok = take("int")
        value = Fraction(int(tok[1]))
        if peek()[0] == "op" and peek()[1] == "/":
            take()
            den = take("int")
            if int(den[1]) == 0:
                raise ParseError("zero denominator", line, den[2])
            value /= int(den[1])
        return value

    def parse_term() -> Polynomial:
        coeff = Fraction(1)
        exponents = [0] * nvars
        saw_factor = False
        while True:
            kind, value, col = peek()
            if kind == "int":
                coeff *= parse_number()
                saw_factor = True
            elif kind == "name":
                take()
                if value not in index:
                    raise ParseError(f"undeclared variable {value!r}", line, col)
                power = 1
                if peek()[0] == "op" and peek()[1] == "^":
                    take()
                    power = int(take("int")[1])
                exponents[index[value]] += power
                saw_factor = True
            else:
                raise ParseError(f"expected a coefficient or variable, found {value!r}", line, col)
            if peek()[0] == "op" and peek()[1] == "*":
                take()
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", line, peek()[2])
        return Polynomial(nvars, {tuple(exponents): coeff})

    total = Polynomial.zero(nvars)
    sign = 1
    kind, value, col = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    while True:
        term = parse_term()
        total = total + (term if sign == 1 else -term)
        kind, value, col = peek()
        if kind == "end":
            return total
        if kind == "op" and value in "+-":
            take()
            sign = -1 if value == "-" else 1
            continue
        raise ParseError(f"expected + or -, found {value!r}", line, col)

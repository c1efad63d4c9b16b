"""Text grammar for polynomials over declared variables.

Terms are joined by + and -; a term is an optional rational coefficient
(integer or p/q) followed by *-separated powers name^exp.  Whitespace is
insignificant, exponents are nonnegative integers, and decimal literals
are rejected outright (exact input only).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .poly import Polynomial


@dataclass(frozen=True)
class ParseError(Exception):
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


_TOKEN = re.compile(
    r"\s*(?:(?P<float>\d+\.\d*|\.\d+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^/()])|(?P<bad>\S))"
)


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    """(kind, text, column) of every token, then an end token; one regex pass.

    A decimal literal or a stray character anywhere in the text is reported
    before any grammar error, wherever it sits.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        col = m.start(kind) + 1
        if kind == "float":
            raise ParseError("rational literals must be p/q", line, col)
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", line, col)
        tokens.append((kind, m.group(kind), col))
    tokens.append(("end", "", len(text) + 1))
    return tokens


def parse_polynomial(text: str, names, line: int = 1) -> Polynomial:
    """Parse an expression in the declared variables; exact failures carry positions.

    Terms are summed into one dict as they are read: a monomial keeps the
    place where it first appeared and is dropped when its coefficients
    cancel, as Polynomial.__add__ does.
    """
    index = {name: j for j, name in enumerate(names)}
    tokens = _tokenize(text, line)
    terms: dict[tuple[int, ...], int | Fraction] = {}

    def integer(pos: int) -> int:
        kind, value, col = tokens[pos]
        if kind != "int":
            raise ParseError(f"expected int, found {value!r}", line, col)
        return int(value)

    pos, sign = 0, 1
    # Only an op token can read "+", "-", "*", "/" or "^".
    if tokens[0][1] in ("+", "-"):
        pos, sign = 1, -1 if tokens[0][1] == "-" else 1
    while True:
        num, den = sign, 1
        exponents = [0] * len(names)
        while True:  # factors joined by *
            kind, value, col = tokens[pos]
            pos += 1
            if kind == "int":
                num *= int(value)
                if tokens[pos][1] == "/":
                    d = integer(pos + 1)
                    if not d:
                        raise ParseError("zero denominator", line, tokens[pos + 1][2])
                    den *= d
                    pos += 2
            elif kind == "name":
                j = index.get(value)
                if j is None:
                    raise ParseError(f"undeclared variable {value!r}", line, col)
                if tokens[pos][1] == "^":
                    exponents[j] += integer(pos + 1)
                    pos += 2
                else:
                    exponents[j] += 1
            else:
                raise ParseError(f"expected a coefficient or variable, found {value!r}", line, col)
            if tokens[pos][1] != "*":
                break
            pos += 1
        if num:
            key = tuple(exponents)
            c = num if den == 1 else Fraction(num, den)
            old = terms.get(key)
            total = c if old is None else old + c
            if total:
                terms[key] = total
            else:
                del terms[key]
        kind, value, col = tokens[pos]
        if kind == "end":
            return Polynomial._from_sums(len(names), terms)
        if value not in ("+", "-"):
            raise ParseError(f"expected + or -, found {value!r}", line, col)
        pos, sign = pos + 1, -1 if value == "-" else 1

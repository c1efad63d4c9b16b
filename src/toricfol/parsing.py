"""Text grammar for polynomials over declared variables.

Terms are joined by + and -; a term is an optional rational coefficient
(integer or p/q) followed by *-separated powers name^exp.  Whitespace is
insignificant, exponents are nonnegative integers, and decimal literals
are rejected outright (exact input only).  Digits are ASCII 0-9 only.

Valid text is read by one ``findall`` into token strings, with no
per-token position bookkeeping: the column of a token is recomputed,
by scanning the text again, only when a ParseError is raised.
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


# One token per match, group 1 its text: an int, a decimal literal (p.q, p.
# or .q), a name, an operator or a stray character.  Decimal literals and
# stray characters are the error tokens.  Every error token holds a
# character of _INVALID and no other token holds one, so one search tells
# whether the text has an error token.
_TOKEN = re.compile(r"\s*([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*^/()]|\S)")
_INVALID = re.compile(r"[^\sA-Za-z0-9_+\-*^/()]")


def _column(text: str, k: int) -> int:
    """1-based column of token k, or the end column when the text has fewer tokens."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return m.start(1) + 1
    return len(text) + 1


def _tokenize(text: str, line: int) -> list[str]:
    """The text of every token, then "" for the end.

    A decimal literal or a stray character anywhere in the text is reported
    before any grammar error, wherever it sits: the first one found is in
    the token that holds the first character of _INVALID.
    """
    bad = _INVALID.search(text)
    if bad is not None:
        for m in _TOKEN.finditer(text):
            if m.end() > bad.start():
                value, col = m.group(1), m.start(1) + 1
                if len(value) > 1:  # a stray character is one character long
                    raise ParseError("rational literals must be p/q", line, col)
                raise ParseError(f"unexpected character {value!r}", line, col)
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def parse_polynomial(text: str, names, line: int = 1) -> Polynomial:
    """Parse an expression in the declared variables; exact failures carry positions.

    Terms are summed into one dict as they are read: a monomial keeps the
    place where it first appeared and is dropped when its coefficients
    cancel, as Polynomial.__add__ does.
    """
    # A declared name that is not a name token can never be read.
    index = {name: j for j, name in enumerate(names) if name.isascii() and name.isidentifier()}
    tokens = _tokenize(text, line)
    terms: dict[tuple[int, ...], int | Fraction] = {}

    def fail(message: str, k: int):
        raise ParseError(message, line, _column(text, k))

    def integer(k: int) -> int:
        if not tokens[k].isdigit():
            fail(f"expected int, found {tokens[k]!r}", k)
        return int(tokens[k])

    pos, sign = 0, 1
    if tokens[0] in ("+", "-"):
        pos, sign = 1, -1 if tokens[0] == "-" else 1
    while True:
        num, den = sign, 1
        exponents = [0] * len(names)
        while True:  # factors joined by *
            value = tokens[pos]
            pos += 1
            if value.isdigit():  # tokens are ASCII, so this is an int token
                num *= int(value)
                if tokens[pos] == "/":
                    d = integer(pos + 1)
                    if not d:
                        fail("zero denominator", pos + 1)
                    den *= d
                    pos += 2
            else:
                j = index.get(value)
                if j is None:
                    if value[:1].isalpha() or value[:1] == "_":
                        fail(f"undeclared variable {value!r}", pos - 1)
                    fail(f"expected a coefficient or variable, found {value!r}", pos - 1)
                if tokens[pos] == "^":
                    exponents[j] += integer(pos + 1)
                    pos += 2
                else:
                    exponents[j] += 1
            if tokens[pos] != "*":
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
        value = tokens[pos]
        if not value:
            return Polynomial._from_sums(len(names), terms)
        if value not in ("+", "-"):
            fail(f"expected + or -, found {value!r}", pos)
        pos, sign = pos + 1, -1 if value == "-" else 1

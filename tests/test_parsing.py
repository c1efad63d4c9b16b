"""The one-pass polynomial parser against the term-by-term oracle.

Both parsers must return the same Polynomial, with its monomials in the
same insertion order, or raise the same ParseError (message, line and
column) on every input.
"""

import random

import pytest

from parsing_oracle import parse_polynomial as oracle_parse
from toricfol.parsing import ParseError, parse_polynomial

NAMES = ("x", "y", "z1", "w_2")


def _outcome(parse, text, line, names=NAMES):
    try:
        p = parse(text, names, line=line)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column)
    return ("ok", p.nvars, list(p.terms.items()))


def _space(rng):
    return rng.choice(["", "", " ", "  ", "\t"])


def _factor(rng, pool):
    kind = rng.random()
    if kind < 0.2:
        return str(rng.randint(0, 12))
    if kind < 0.3:
        return f"{rng.randint(0, 12)}{_space(rng)}/{_space(rng)}{rng.randint(1, 9)}"
    name = rng.choice(pool)
    if rng.random() < 0.5:
        return f"{name}{_space(rng)}^{_space(rng)}{rng.randint(0, 4)}"
    return name


def _valid_text(rng):
    # a small name pool makes repeated and cancelling monomials common
    pool = rng.sample(NAMES, rng.randint(1, 2))
    terms = []
    for _ in range(rng.randint(1, 7)):
        factors = [_factor(rng, pool) for _ in range(rng.randint(1, 3))]
        terms.append(f"{_space(rng)}*{_space(rng)}".join(factors))
    text = rng.choice(["", "-", "+", "- "]) + terms[0]
    for term in terms[1:]:
        text += f"{_space(rng)}{rng.choice('+-')}{_space(rng)}{term}"
    return text + _space(rng)


MALFORMED = [
    # decimals, also after a grammar error earlier in the text
    "1.5*x", ".5*y", "x + 3.", "x y 2.25", "x^1.0",
    # characters outside the grammar
    "x # y", "x $", "2*x @ 3", "é*x", "x + y;", "x = y", "x, y",
    # undeclared names
    "q", "x + q^2", "x*y*z", "w2", "-X",
    # zero denominators
    "1/0", "x + 3/0*y", "2/0/1",
    # missing or non-integer exponents
    "x^", "x^ + y", "x^y", "x^-1", "x^(2)",
    # unbalanced or misplaced operators
    "", "-", "+", "x +", "x -", "+ * x", "++x", "x * * y", "x *", "(x)", "x)", "x y",
    "x^2^3", "2^3", "x/2", "1/x", "1/", "*", "x + - y", "3 4", "x ^ ^ 2", "/2",
    # a decimal point after a name, alone, or in a literal; non-ASCII digits
    "x1.5", "x . y", "x*1.", "\u0662*x^\u0663 + y", "x^\u0663", "y + \u0662",
]


def test_valid_inputs_match_oracle():
    rng = random.Random(20191)
    parsed = cancelled = 0
    for _ in range(400):
        text = _valid_text(rng)
        line = rng.randint(1, 40)
        got, want = _outcome(parse_polynomial, text, line), _outcome(oracle_parse, text, line)
        assert got == want, text
        parsed += got[0] == "ok"
        cancelled += got[0] == "ok" and not got[2]
    assert parsed >= 300
    assert cancelled >= 1  # some inputs cancel to the zero polynomial


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise_the_oracle_error(text):
    got, want = _outcome(parse_polynomial, text, 3), _outcome(oracle_parse, text, 3)
    assert got[0] == "error" and got == want


# Unicode whitespace is whitespace to the grammar; a non-ASCII digit
# (U+0662, Arabic-Indic two) and a decimal point are not part of it.
INSERTS = [*"+-*/^(). 0179xyzq_#", "\t", "\u00a0", "\u2003", "1.", ".5", "\u0662"]


def test_mutated_inputs_match_oracle():
    rng = random.Random(97)
    errors = 0
    for _ in range(800):
        chars = list(_valid_text(rng))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars) + 1)
            if chars and rng.random() < 0.5:
                del chars[min(at, len(chars) - 1)]
            else:
                chars.insert(at, rng.choice(INSERTS))
        if rng.random() < 0.1:
            chars.append(rng.choice("+-*/^"))  # a trailing operator
        text = "".join(chars)
        got, want = _outcome(parse_polynomial, text, 1), _outcome(oracle_parse, text, 1)
        assert got == want, text
        errors += got[0] == "error"
    assert errors >= 50


@pytest.mark.parametrize("text", ["1 + x", "x + + y", "+ + x", "x * + 2", "x.y + 2"])
def test_declared_names_that_are_not_name_tokens_are_never_read(text):
    names = ("+", "1", "x.y", "x")
    assert _outcome(parse_polynomial, text, 1, names) == _outcome(oracle_parse, text, 1, names)

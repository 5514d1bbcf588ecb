import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc.parse import MAX_NESTING, PolyParseError, integer, parse_poly
from drcalc.poly import Poly
from drcalc.presfile import PresentationFormatError, parse_presentation

XY = ("x", "y")


def test_reiffen_polynomial():
    f = parse_poly(XY, "x^4 + y^5 + y^4*x")
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    assert f == x ** 4 + y ** 5 + y ** 4 * x
    assert str(f) == "x^4 + y^4*x + y^5"


def test_cancellation():
    assert parse_poly(XY, "x - x") == Poly.zero(XY)
    assert parse_poly(XY, "x*y - y*x") == Poly.zero(XY)


def test_rationals_and_signs():
    assert parse_poly(XY, "3/4") == Poly.const(XY, Fraction(3, 4))
    assert parse_poly(XY, "-x") == -Poly.var(XY, "x")
    assert parse_poly(XY, "1/2*x + 1/2*x") == Poly.var(XY, "x")
    assert parse_poly(XY, "- 2 + 3") == Poly.const(XY, 1)


def test_precedence():
    # ^ binds tighter than *
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    assert parse_poly(XY, "y^4*x") == y ** 4 * x
    assert parse_poly(XY, "2*x^3") == 2 * x ** 3
    assert parse_poly(XY, "(x + y)^2") == (x + y) ** 2
    assert parse_poly(XY, "x - y - y") == x - 2 * y


def test_whitespace_insignificant():
    a = parse_poly(XY, "x^4+y^5+y^4*x")
    b = parse_poly(XY, "  x^4   + y^5 +\ty^4 * x ")
    assert a == b


def test_error_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly(XY, "x^")
    assert "column 2" in str(err.value)
    with pytest.raises(PolyParseError):
        parse_poly(XY, "x +")
    with pytest.raises(PolyParseError):
        parse_poly(XY, "(x")
    with pytest.raises(PolyParseError):
        parse_poly(XY, "x y")


DEEP_TEXTS = {
    "parentheses": "(" * 250 + "x" + ")" * 250,
    "minuses": "-" * 500 + "x",
}


@pytest.mark.parametrize("text", DEEP_TEXTS.values(), ids=DEEP_TEXTS)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(PolyParseError, match="nested too deeply at column"):
        parse_poly(XY, text)


def test_nesting_up_to_the_limit_parses():
    inner = "(" * MAX_NESTING + "x + 1" + ")" * MAX_NESTING
    assert parse_poly(XY, inner) == parse_poly(XY, "x + 1")
    # the leading minus belongs to the expression, the rest nest
    assert parse_poly(XY, "-" * (MAX_NESTING + 1) + "y") == parse_poly(XY, "-y")


# digits that Unicode counts as decimal but the grammar does not:
# ARABIC-INDIC DIGIT THREE and FULLWIDTH DIGIT ONE
NON_ASCII_DIGITS = {"arabic-indic": "\u0663", "fullwidth": "\uff11"}


@pytest.mark.parametrize("digit", NON_ASCII_DIGITS.values(), ids=NON_ASCII_DIGITS)
def test_non_ascii_digits_are_a_parse_error(digit):
    for text, column in ((f"x^{digit}", 2), (f"{digit}*x", 0), (f"x + {digit}", 4)):
        with pytest.raises(PolyParseError, match=f"unexpected character at column {column}:"):
            parse_poly(XY, text)


def test_undeclared_variable():
    with pytest.raises(PolyParseError) as err:
        parse_poly(XY, "x + z")
    assert "z" in str(err.value)


def test_empty_input_rejected():
    with pytest.raises(PolyParseError):
        parse_poly(XY, "")
    with pytest.raises(PolyParseError):
        parse_poly(XY, "   ")


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randrange(6)):
        e = (rng.randrange(5), rng.randrange(5))
        terms[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Poly(XY, terms)


def test_round_trip_200_random():
    rng = random.Random(2024)
    for _ in range(200):
        p = _random_poly(rng)
        assert parse_poly(XY, str(p)) == p


def test_round_trip_single_variable():
    ctx = ("x",)
    rng = random.Random(3)
    for _ in range(50):
        terms = {
            (rng.randrange(8),): Fraction(rng.randrange(-5, 6))
            for _ in range(rng.randrange(4))
        }
        p = Poly(ctx, terms)
        assert parse_poly(ctx, str(p)) == p


# ---------------------------------------------------------------------------
# grammar fuzz: any text from the grammar's tokens parses or is refused
# with a parse error, never another exception

# declared names, an undeclared one, digits, operators, a space, a
# non-ASCII character that looks like an exponent and two non-ASCII
# decimal digits
_TOKENS = [
    "x", "y", "z", *string.digits, *"()+-*/^", " ", "\u00b2",
    *NON_ASCII_DIGITS.values(),
]


def _join(tokens):
    """The tokens as text, adjacent digits kept apart by a space.

    Integers stay one digit, so no draw blows up the polynomial size.
    """
    text = ""
    for t in tokens:
        if t in string.digits and text and text[-1] in string.digits:
            text += " "
        text += t
    return text


_texts = st.lists(st.sampled_from(_TOKENS), max_size=16).map(_join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_texts)
def test_grammar_tokens_parse_or_raise_parse_error(text):
    try:
        parse_poly(XY, text)
    except PolyParseError:
        pass
    try:
        parse_presentation(f"vars x y\nodd t deg -1 weight 1\nd t = {text}\n")
    except PresentationFormatError:
        pass


@pytest.mark.parametrize(
    "text, value", [("0", 0), ("16", 16), ("-1", -1), ("+7", 7), ("007", 7)]
)
def test_integer_reads_ascii_digits(text, value):
    assert integer(text) == value


@pytest.mark.parametrize(
    "text", ["\u0661\u0666", "\uff11", "1_0", " 1", "1 ", "", "-", "1.0", "0x1"]
)
def test_integer_refuses_anything_else(text):
    with pytest.raises(ValueError):
        integer(text)

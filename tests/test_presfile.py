import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc.algebra import GradedElement
from drcalc.dg import DGPresentation, OddGenerator, koszul_presentation
from drcalc.parse import parse_poly
from drcalc.poly import Poly
from drcalc.presfile import (
    PresentationFormatError,
    parse_presentation,
    serialize_presentation,
)

REIFFEN = """\
vars x y
odd t deg -1 weight 4
d t = x^4 + y^5 + y^4*x
"""


def test_parse_basic():
    pf = parse_presentation(REIFFEN)
    pres = pf.presentation
    assert pres.even == ("x", "y")
    assert pres.odd == (OddGenerator("t", -1, 4),)
    assert pf.truncate is None
    assert pf.hodge is None
    expected = koszul_presentation(
        ("x", "y"), [parse_poly(("x", "y"), "x^4 + y^5 + y^4*x")], 1
    )
    assert pres == expected


def test_round_trip():
    for text in (
        REIFFEN,
        "vars x\nodd t deg -1 weight 2\nd t = x^2\n",
        "vars x y\nodd t1 deg -1 weight 1\nodd t2 deg -1 weight 1\n"
        "d t1 = x\nd t2 = y\n",
    ):
        once = parse_presentation(text)
        again = parse_presentation(serialize_presentation(once.presentation))
        assert once.presentation == again.presentation


def test_serializer_output_shape():
    # images are re-printed in canonical monomial order
    pres = parse_presentation(REIFFEN).presentation
    assert serialize_presentation(pres) == (
        "vars x y\nodd t deg -1 weight 4\nd t = x^4 + y^4*x + y^5\n"
    )


def test_directives():
    pf = parse_presentation(REIFFEN + "truncate 9\nhodge 2\n")
    assert pf.truncate == 9
    assert pf.hodge == 2


def test_comments_and_blanks():
    text = (
        "# header comment\n\nvars x y   # inline\n\n"
        "odd t deg -1 weight 4\n"
        "d t = x^4 + y^5 + y^4*x # the curve\n\n"
    )
    pf = parse_presentation(text)
    assert pf.presentation == parse_presentation(REIFFEN).presentation


def test_error_positions_and_messages():
    cases = [
        ("vars x\nvars y\n", 2, "second vars line"),
        ("vars x\nodd t deg -1\n", 2, "odd <name> deg <int> weight <int>"),
        ("vars x\nodd t deg a weight 1\n", 2, "must be integers"),
        ("d t = x\nvars x\n", 1, "d before vars"),
        (
            "vars x\nodd t deg -1 weight 1\nd t = x\nd t = x\n",
            4,
            "second d line",
        ),
        ("vars x\nodd t deg -1 weight 1\nd t = x^\n", 3, "column"),
        ("vars x\nspam 1\n", 2, "unknown directive 'spam'"),
        ("vars x\ntruncate 1 2\n", 2, "takes one integer"),
        ("vars x\ntruncate w\n", 2, "takes one integer"),
        # integers are ASCII digits, as in the polynomial grammar
        ("vars x\nodd t deg -\u0661 weight 1\n", 2, "must be integers"),
        ("vars x\nodd t deg -1 weight \u0662\n", 2, "must be integers"),
        ("vars x\nodd t deg -1 weight 1_0\n", 2, "must be integers"),
        ("vars x\ntruncate \u0666\n", 2, "takes one integer"),
        ("vars x\nhodge \uff13\n", 2, "takes one integer"),
        ("vars x,y,z\nodd t deg -1 weight 2\nd t = x^2\n", 1,
         "'x,y,z' is not an identifier"),
        ("vars x 2y\n", 1, "'2y' is not an identifier"),
        ("vars x\nodd t-1 deg -1 weight 2\nd t-1 = x\n", 2,
         "'t-1' is not an identifier"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(PresentationFormatError) as err:
            parse_presentation(text)
        assert err.value.line_number == line, text
        assert fragment in str(err.value), text


def test_structural_errors():
    with pytest.raises(PresentationFormatError, match="missing vars line"):
        parse_presentation("# nothing here\n")
    with pytest.raises(PresentationFormatError, match="undeclared 's'"):
        parse_presentation("vars x\nd s = x\n")
    with pytest.raises(PresentationFormatError, match="missing d line for 't'"):
        parse_presentation("vars x\nodd t deg -1 weight 1\n")


def test_serialize_rejects_relations():
    glued = DGPresentation(
        ("x",), (), {}, relations=(parse_poly(("x",), "x^2"),)
    )
    with pytest.raises(ValueError, match="no relations"):
        serialize_presentation(glued)


def test_zero_relations_give_the_free_presentation():
    free = DGPresentation(("x",), (), {})
    glued = DGPresentation(("x",), (), {}, relations=(Poly.zero(("x",)),))
    assert glued == free
    assert glued.nf is None
    assert serialize_presentation(glued) == serialize_presentation(free)
    koszul = koszul_presentation(("x",), [parse_poly(("x",), "x^2")], 1)
    assert koszul_presentation(
        ("x",), [parse_poly(("x",), "x^2")], 1,
        relations=(Poly.zero(("x",)), Poly.zero(("x",))),
    ) == koszul


def test_serialize_rejects_nonpolynomial_image():
    pres = DGPresentation(
        ("x",),
        [OddGenerator("t", -1, 1), OddGenerator("s", -2, 2)],
        {"t": parse_poly(("x",), "x")},
    )
    x = GradedElement.generator(pres.context, "x")
    t = GradedElement.generator(pres.context, "t")
    pres.images["s"] = x * t
    with pytest.raises(ValueError, match="not polynomial"):
        serialize_presentation(pres)


@st.composite
def _presentations(draw):
    """Random presentations in the file format's range: polynomial images."""
    variables = tuple(
        draw(st.lists(st.sampled_from(("x", "y", "z", "u", "v")),
                      min_size=1, max_size=3, unique=True))
    )
    count = draw(st.integers(0, 3))
    odd = [
        OddGenerator(f"t{i + 1}", draw(st.integers(-3, -1)), draw(st.integers(1, 9)))
        for i in range(count)
    ]
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=7)
    exps = st.tuples(*[st.integers(0, 4)] * len(variables))
    images = {
        g.name: Poly(variables, draw(st.dictionaries(exps, coeffs, max_size=4)))
        for g in odd
    }
    return DGPresentation(variables, odd, images)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_presentations())
def test_round_trip_property(pres):
    text = serialize_presentation(pres)
    again = parse_presentation(text)
    assert again.presentation == pres
    assert again.truncate is None and again.hodge is None
    assert serialize_presentation(again.presentation) == text

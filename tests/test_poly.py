import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc import algebra
from drcalc.algebra import Generator, GradedContext
from drcalc.parse import parse_poly
from drcalc.poly import Poly

from oracles import dict_product, lift_by_name, partial

XY = ("x", "y")


def test_basic_arithmetic():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p - p == Poly.zero(XY)
    assert not (p - p)
    assert (x + 1) * (x - 1) == x * x - 1
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


def test_pow():
    x = Poly.var(XY, "x")
    assert x ** 0 == Poly.const(XY, 1)
    assert x ** 5 == x * x * x * x * x
    p = x + Poly.var(XY, "y")
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_pow_of_a_single_term():
    # one term is raised directly: exponents times n, coefficient ** n
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    t = Fraction(-2, 3) * x * y ** 2
    for n in range(5):
        want = Poly.const(XY, 1)
        for _ in range(n):
            want = want * t
        assert t ** n == want
        assert all(type(c) is Fraction for c in (t ** n).terms.values())
    assert (t ** 3).terms == {(3, 6): Fraction(-8, 27)}
    assert Poly.const(XY, 3) ** 2 == 9
    assert Poly.zero(XY) ** 2 == 0
    assert Poly.zero(XY) ** 0 == 1


def test_degree_and_min_degree():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    f = x ** 4 + y ** 5 + y ** 4 * x
    assert f.degree() == 5
    assert f.min_degree() == 4
    assert Poly.const(XY, 3).degree() == 0
    # the zero polynomial: degree -inf, min_degree +inf, so that
    # min_degree(f*g) = min_degree(f) + min_degree(g) keeps holding
    assert Poly.zero(XY).degree() == -math.inf
    assert Poly.zero(XY).min_degree() == math.inf


def test_min_degree_multiplicative():
    rng = random.Random(11)
    for _ in range(40):
        f = _random_poly(rng)
        g = _random_poly(rng)
        if not f or not g:
            continue
        assert (f * g).min_degree() == f.min_degree() + g.min_degree()
        assert (f * g).degree() == f.degree() + g.degree()


def test_partial():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    f = x ** 4 + y ** 5 + y ** 4 * x
    assert f.partial("x") == 4 * x ** 3 + y ** 4
    assert f.partial(1) == 5 * y ** 4 + 4 * y ** 3 * x
    assert Poly.const(XY, 7).partial("x") == Poly.zero(XY)
    # Leibniz on random pairs
    rng = random.Random(5)
    for _ in range(30):
        f = _random_poly(rng)
        g = _random_poly(rng)
        lhs = (f * g).partial("x")
        rhs = f.partial("x") * g + f * g.partial("x")
        assert lhs == rhs


def test_canonical_printing():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    f = x ** 4 + y ** 5 + y ** 4 * x
    assert str(f) == "x^4 + y^4*x + y^5"
    assert str(Poly.zero(XY)) == "0"
    assert str(Poly.const(XY, Fraction(-3, 2))) == "-3/2"
    assert str(x - y) == "x - y"
    assert str(-x) == "-x"
    assert str(x * y * Fraction(1, 3)) == "1/3*x*y"
    assert str(2 * x ** 2 - 3 * y + 1) == "2*x^2 - 3*y + 1"


def test_printing_is_grevlex_descending():
    # same total degree: ties broken so that x^2 precedes x*y precedes y^2
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    p = y ** 2 + x * y + x ** 2
    assert str(p) == "x^2 + x*y + y^2"


def test_coeff_and_constant():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    f = 3 * x ** 2 * y + Fraction(1, 2)
    assert f.terms == {(2, 1): 3, (0, 0): Fraction(1, 2)}


def _random_poly(rng, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        e = (rng.randrange(maxdeg), rng.randrange(maxdeg))
        terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return Poly(XY, terms)


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_hash_and_eq():
    x = Poly.var(XY, "x")
    assert hash(x + x) == hash(2 * x)
    d = {x ** 2: "quad"}
    assert d[Poly.monomial(XY, (2, 0))] == "quad"


def test_context_mismatch_rejected():
    x = Poly.var(XY, "x")
    z = Poly.var(("z",), "z")
    with pytest.raises(ValueError):
        x + z


# ---------------------------------------------------------------------------
# Poly arithmetic against the term-dict oracles

_NAMES = ("x", "y", "z")


@st.composite
def _polys(draw, variables):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * len(variables)),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
        max_size=5,
    ))
    return Poly(variables, terms)


def _stage_like_context(variables, order):
    """The variables among odd and Hodge-1 generators, in a drawn order.

    The generators are those of a Koszul algebra's de Rham stage: the
    variables, t, one dx per variable and dt (even, Hodge level 1, so
    not a ring variable).
    """
    gens = [Generator(v, 0) for v in variables]
    gens += [Generator("t", -1, 2), Generator("dt", 0, 2, 1)]
    gens += [Generator("d" + v, 1, 1, 1) for v in variables]
    return GradedContext(gens[i] for i in order)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_poly_matches_term_dict_oracles(data):
    variables = _NAMES[: data.draw(st.integers(1, 3))]
    p = data.draw(_polys(variables))
    q = data.draw(_polys(variables))
    assert (p * q).terms == dict_product(p.terms, q.terms)
    power = {(0,) * len(variables): Fraction(1)}
    for k in range(4):
        assert (p ** k).terms == power
        power = dict_product(power, p.terms)
    for i in range(len(variables)):
        assert p.partial(i).terms == partial(p.terms, i)
    order = data.draw(st.permutations(range(2 * len(variables) + 2)))
    ctx = _stage_like_context(variables, order)
    assert p.cast_to(ctx) == lift_by_name(ctx, p)
    assert parse_poly(variables, str(p)) == p


def test_algebra_does_not_import_poly():
    src = Path(algebra.__file__).resolve().parents[1]
    code = "import sys, drcalc.algebra; print('drcalc.poly' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"

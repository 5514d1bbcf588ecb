import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc import cli, elim, groebner
from drcalc.groebner import (
    MonomialOrder,
    PairBudgetExceeded,
    annihilator_chain,
    buchberger,
    colon_principal,
    div_exact,
    grevlex_key,
    intersect_principal,
    lex_key,
    normal_form,
)
from drcalc.parse import parse_poly
from drcalc.poly import Poly

from oracles import poly_buchberger, poly_div_exact, poly_normal_form

XY = ("x", "y")


def P(text, ctx=XY):
    return parse_poly(ctx, text)


def in_ideal(gb, p):
    """Ideal membership: ``p`` has zero normal form modulo the basis."""
    return not normal_form(p, gb.gens, gb.order).terms


def test_reduced_basis_shape():
    gb = buchberger([P("x^2 + y"), P("x*y")])
    # reduced: monic leads, no lead divides another, tails reduced
    leads = [max(g.terms, key=gb.order.key) for g in gb.gens]
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not all(ai <= bi for ai, bi in zip(a, b))
    for g in gb.gens:
        assert g.terms[max(g.terms, key=gb.order.key)] == 1


def test_membership_basics():
    gb = buchberger([P("x^2"), P("y^3")])
    assert in_ideal(gb, P("x^2*y + x^3"))
    assert in_ideal(gb, P("y^3"))
    assert not in_ideal(gb, P("x*y"))
    assert not in_ideal(gb, P("x + y"))
    assert normal_form(P("x^2 + x"), gb.gens, gb.order) == P("x")


def membership_oracle(f, gens, bound):
    """Brute force: is f a polynomial combination sum c_i g_i with each
    c_i supported on monomials of degree <= bound?  Exact linear algebra
    over the coefficients, no Groebner machinery involved."""
    ctx = f.context
    mons = []
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            mons.append((i, j))
    columns = []
    for g in gens:
        for m in mons:
            columns.append(Poly(ctx, {m: Fraction(1)}) * g)
    keys = set(f.terms)
    for c in columns:
        keys.update(c.terms)
    keys = sorted(keys)
    den = lcm(*(c.denominator for p in [f, *columns] for c in p.terms.values()))
    rows = []
    rhs = []
    for k in keys:
        rows.append([
            (j, int(c.terms[k] * den))
            for j, c in enumerate(columns) if k in c.terms
        ])
        rhs.append(int(f.terms.get(k, 0) * den))
    tag, _ = elim.solve_rational(rows, rhs, len(columns))
    return tag == "feasible"


def _random_ideal(rng):
    gens = []
    for _ in range(rng.randrange(1, 4)):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(4), rng.randrange(4))
            terms[e] = Fraction(rng.randrange(-4, 5))
        p = Poly(XY, terms)
        if p:
            gens.append(p)
    return gens or [P("x")]


def test_membership_matches_bruteforce_oracle():
    rng = random.Random(77)
    checked = 0
    for _ in range(20):
        gens = _random_ideal(rng)
        gb = buchberger(gens)
        probes = [
            gens[0] * P("x + y"),
            gens[-1] * P("x*y") + gens[0],
            P("x + 1"),
            P(str(rng.randrange(1, 5)) + "*x^2 - y"),
        ]
        for f in probes:
            got = in_ideal(gb, f)
            want = membership_oracle(f, gens, 8)
            # the oracle's cofactor bound is generous for these degrees:
            # agreement is required in both directions
            assert got == want
            checked += 1
    assert checked == 80


def test_membership_is_order_independent():
    rng = random.Random(101)
    for _ in range(20):
        gens = _random_ideal(rng)
        g1 = buchberger(gens, MonomialOrder("grevlex"))
        g2 = buchberger(gens, MonomialOrder("lex"))
        probes = [
            gens[0] * gens[-1],
            gens[0] + P("1"),
            P("x^3") * gens[-1] - gens[0],
            P("y - x"),
        ]
        for f in probes:
            assert in_ideal(g1, f) == in_ideal(g2, f)


def test_normal_form_is_idempotent_and_linear():
    rng = random.Random(13)
    for _ in range(15):
        gens = _random_ideal(rng)
        gb = buchberger(gens)
        f = gens[0] * P("x") + P("y^2 + 1")
        g = P("x*y - 2")
        def nf(p):
            return normal_form(p, gb.gens, gb.order)

        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert in_ideal(gb, f - nf(f))


def test_intersect_principal():
    inter = intersect_principal([P("x*y")], P("x"))
    gb = buchberger(list(inter))
    assert in_ideal(gb, P("x*y"))
    assert not in_ideal(gb, P("x"))
    assert not in_ideal(gb, P("y"))


def test_colon_examples():
    # (xy) : x = (y)
    gb = colon_principal([P("x*y")], P("x"))
    assert [str(g) for g in gb.gens] == ["y"]
    # (x^2) : x = (x)
    gb = colon_principal([P("x^2", ("x",))], P("x", ("x",)))
    assert [str(g) for g in gb.gens] == ["x"]
    # (x) : y = (x), y a nonzerodivisor mod (x)
    gb = colon_principal([P("x")], P("y"))
    assert [str(g) for g in gb.gens] == ["x"]
    with pytest.raises(ValueError):
        colon_principal([P("x")], Poly.zero(XY))


def test_colon_contains_ideal():
    rng = random.Random(4)
    for _ in range(10):
        gens = _random_ideal(rng)
        f = P("x + y^2")
        gb = colon_principal(gens, f)
        base = buchberger(gens)
        for g in base.gens:
            assert in_ideal(gb, g)
        # defining property: colon * f lands in the ideal
        for g in gb.gens:
            assert in_ideal(base, g * f)


def test_annihilator_chain_zero_divisor():
    chain = annihilator_chain([P("x*y")], P("x"), 4)
    assert len(chain) == 4
    for gb in chain.colon_bases:
        assert [str(g) for g in gb.gens] == ["y"]
    assert chain.stabilized_at == 1


def test_annihilator_chain_nilpotent_direction():
    # mod (x^3), the annihilator of x grows then stabilizes:
    # (x^2), (x), (1), (1), ...
    ctx = ("x",)
    chain = annihilator_chain([P("x^3", ctx)], P("x", ctx), 5)
    texts = [[str(g) for g in gb.gens] for gb in chain.colon_bases]
    assert texts == [["x^2"], ["x"], ["1"], ["1"], ["1"]]
    assert chain.stabilized_at == 3


def test_annihilator_chain_stops_at_the_first_repeat(monkeypatch):
    # a level equal to the one before is the last colon computed; the
    # levels after it are copies, equal to the colons they stand for
    calls = []

    def spy(gens, f, order=None):
        calls.append(tuple(gens))
        return colon_principal(gens, f, order)

    monkeypatch.setattr(groebner, "colon_principal", spy)
    ctx = ("x",)
    for gens, f, n_max, want in (
        ([P("x*y")], P("x"), 4, 2),
        ([P("x^3", ctx)], P("x", ctx), 5, 4),
        ([P("x^3", ctx)], P("x", ctx), 3, 3),
        ([P("x^2", ctx)], P("x", ctx), 1, 1),
    ):
        calls.clear()
        chain = annihilator_chain(gens, f, n_max)
        assert len(calls) == want
        assert len(chain) == n_max
        order = MonomialOrder()
        for n, gb in enumerate(chain.colon_bases, start=1):
            assert gb.gens == colon_principal(gens, f ** n, order).gens, n


ANNIHILATOR_CASES = [
    (["3/2*x^2*y", "x*y^3-1/2*y^4"], "x+y"),
    (["x^3", "y^2"], "x-y"),
    (["x^2*y^2", "x^4+y^3"], "x*y"),
    (["x*y", "y^3"], "y"),
    (["x^4-x^2*y"], "x"),
    (["x^3*y - y^4", "x^2*y^2"], "x + 2*y"),
    (["x^2 - y^3", "x*y^2"], "y"),
]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("gens, f", ANNIHILATOR_CASES)
def test_annihilator_chain_equals_colons_by_powers(gens, f, order):
    # each level is a colon by f of the level before; the oracle takes
    # the colon by f^n of the original ideal, from scratch
    gens, f, order = [P(g) for g in gens], P(f), MonomialOrder(order)
    chain = annihilator_chain(gens, f, 4, order)
    for n, gb in enumerate(chain.colon_bases, start=1):
        assert gb.gens == colon_principal(gens, f ** n, order).gens, n


def test_div_exact():
    q = div_exact(P("x^2*y + x*y^2"), P("x*y"))
    assert q == P("x + y")
    with pytest.raises(ValueError):
        div_exact(P("x^2 + 1"), P("x"))


def test_pair_budget(monkeypatch, capsys):
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_BUDGET", 1)
    with pytest.raises(PairBudgetExceeded):
        buchberger([P("x^3 - y^2"), P("x*y^2 - x^2")])
    argv = ["ideal", "gb", "--vars", "x,y", "--gen", "x^3-y^2",
            "--gen", "x*y^2-x^2"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err == "resource limit: S-pair budget of 1 exceeded\n"


def test_zero_generators_dropped():
    gb = buchberger([Poly.zero(XY), P("x")])
    assert [str(g) for g in gb.gens] == ["x"]


def test_groebner_basis_is_canonical():
    # same ideal, different generator presentations -> identical basis
    a = buchberger([P("x^2 + y"), P("x*y")])
    b = buchberger([P("x*y"), P("x^2 + y"), P("x^3 + x*y - x*y")])
    assert [str(g) for g in a.gens] == [str(g) for g in b.gens]


def test_monomial_orders():
    # grevlex: total degree first, then reversed comparison of reversed exps
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((0, 3)) > grevlex_key((2, 0))
    assert lex_key((1, 5)) > lex_key((0, 9))
    # at equal degree they disagree: grevlex puts x*z^2 below y^3, lex above
    assert grevlex_key((1, 0, 2)) < grevlex_key((0, 3, 0))
    assert lex_key((1, 0, 2)) > lex_key((0, 3, 0))


@st.composite
def ideal_cases(draw):
    """Generators (zeros and a duplicate allowed), a probe and an order."""
    ctx = ("x", "y", "z")[: draw(st.integers(1, 3))]
    polys = st.builds(
        lambda terms: Poly(ctx, terms),
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * len(ctx)),
            st.fractions(-3, 3, max_denominator=4),
            max_size=3,
        ),
    )
    gens = draw(st.lists(polys, max_size=3))
    if gens and draw(st.booleans()):
        gens.append(gens[0])
    order = MonomialOrder(draw(st.sampled_from(("grevlex", "lex"))))
    return gens, draw(polys), order


def _quotient(div, g, f, order):
    try:
        return div(g, f, order)
    except ValueError:
        return "inexact"


@settings(max_examples=80, deadline=None)
@given(ideal_cases())
def test_matches_poly_oracle(case):
    gens, probe, order = case
    key = order.key
    gb = buchberger(gens, order)
    want = poly_buchberger(gens, key)
    assert list(gb.gens) == want
    assert [str(g) for g in gb.gens] == [str(g) for g in want]
    assert normal_form(probe, gens, order) == poly_normal_form(probe, gens, key)
    assert normal_form(probe, gb.gens, order) == poly_normal_form(
        probe, want, key
    )
    for f in gens:
        if f:
            assert div_exact(probe * f, f, order) == probe
            assert _quotient(div_exact, probe, f, order) == _quotient(
                poly_div_exact, probe, f, key
            )

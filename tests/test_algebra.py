"""The tuple kernels of the algebra layer against independent oracles.

``_mul_exps`` is checked against the parity of inversions among the odd
factors; ``Derivation`` against the Leibniz rule spelled out factor by
factor; ``DGMorphism.apply`` against the product of generator images.
The last two oracles multiply with ``GradedElement.__mul__``, whose sign
the first test pins down.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc.algebra import (
    Derivation,
    GradedContext,
    GradedElement,
    Generator,
    MonomialCode,
    _mul_exps,
    enumerate_monomials,
    exponent_caps,
    graded_monomials,
)
from drcalc.derham import (
    CotangentPresentation,
    DeRhamStage,
    _WedgeSource,
    conerve_totalization,
    free_presentation,
)
from drcalc.dg import koszul_presentation, tower_map
from drcalc.errors import StructuralError
from drcalc.homology import morphism_matrices, weight_truncate
from drcalc.parse import parse_poly
from drcalc.poly import Poly
from drcalc.reiffen import quotient_by_sequence

from oracles import (
    conerve_basis,
    conerve_cofaces,
    conerve_fraction_matrices,
    flat_entries,
    fraction_cohomology,
    fraction_matrices,
    quotient_fraction_matrices,
    reference_quotient,
    reference_subcomplex,
    stalk_span,
    truncation_basis,
    two_product_expand,
)

XY = ("x", "y")
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def P(text, ctx=XY):
    return parse_poly(ctx, text)


# ---------------------------------------------------------------------------
# _mul_exps


@st.composite
def _contexts_with_pairs(draw):
    n = draw(st.integers(1, 7))
    degrees = draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n))
    ctx = GradedContext(
        Generator(f"g{i}", deg, 1 + i % 3) for i, deg in enumerate(degrees)
    )

    def exps():
        return tuple(
            draw(st.integers(0, 1 if g.odd else 3)) for g in ctx.gens
        )

    return ctx, exps(), exps()


def _inversion_sign(ctx, a, b):
    """Sign of sorting the odd factors of a, then of b, into context order."""
    odd = [i for i, g in enumerate(ctx.gens) if g.odd]
    seq = [i for i in odd if a[i]] + [i for i in odd if b[i]]
    if len(set(seq)) < len(seq):
        return None
    inversions = sum(
        1 for j in range(len(seq)) for k in range(j + 1, len(seq))
        if seq[j] > seq[k]
    )
    return -1 if inversions % 2 else 1


@PROPERTY
@given(_contexts_with_pairs())
def test_mul_exps_sign_is_inversion_parity(case):
    ctx, a, b = case
    sign = _inversion_sign(ctx, a, b)
    hit = _mul_exps(ctx, a, b)
    if sign is None:
        assert hit is None
    else:
        assert hit == (sign, tuple(x + y for x, y in zip(a, b)))


def test_mul_exps_repeated_odd_factor_is_zero():
    ctx = GradedContext([Generator("x", 0), Generator("t", -1), Generator("s", 1)])
    assert _mul_exps(ctx, (1, 1, 0), (2, 1, 0)) is None
    assert _mul_exps(ctx, (0, 0, 1), (0, 1, 1)) is None
    assert _mul_exps(ctx, (0, 0, 1), (0, 1, 0)) == (-1, (0, 1, 1))
    assert _mul_exps(ctx, (0, 1, 0), (0, 0, 1)) == (1, (0, 1, 1))


# ---------------------------------------------------------------------------
# monomial enumeration: the Hodge cut pruned in the walk


@st.composite
def _graded_contexts(draw):
    n = draw(st.integers(1, 5))
    return GradedContext(
        Generator(
            f"g{i}",
            draw(st.integers(-2, 2)),
            draw(st.integers(1, 3)),
            draw(st.integers(0, 2)),
        )
        for i in range(n)
    )


@PROPERTY
@given(_graded_contexts(), st.integers(0, 7), st.integers(-1, 6))
def test_pruned_enumeration_equals_filtered(ctx, weight, hodge):
    full = enumerate_monomials(ctx, max_weight=weight)
    ranges = [
        range(min(weight // g.weight, 1 if g.odd else weight) + 1)
        for g in ctx.gens
    ]
    assert full == sorted(
        (exps for exps in product(*ranges) if ctx.weight_of(exps) <= weight),
        key=lambda e: (ctx.weight_of(e), e),
    )
    code = MonomialCode(ctx, exponent_caps(ctx, weight))
    pruned = [m[0] for m in graded_monomials(ctx, weight, hodge, code)]
    assert pruned == [m for m in full if ctx.hodge_of(m) <= hodge]


def test_negative_hodge_level_is_refused():
    with pytest.raises(StructuralError, match="Hodge level -1"):
        GradedContext([Generator("x", 0, 1, -1)])


# ---------------------------------------------------------------------------
# derivations


def _koszul():
    pres = koszul_presentation(XY, [P("x^2 - 1/2*y"), P("3*x*y")], 1)
    return pres.context, pres.boundary()


def _stage_total():
    pres = koszul_presentation(XY, [P("2/3*x^2 + y^3")], 1)
    ctx, total, _ = DeRhamStage(pres, 3, 6).truncation_data()
    return ctx, total


def _stage_internal():
    pres = koszul_presentation(XY, [P("x*y - 5*y^2")], 1)
    ctx, boundary, _ = CotangentPresentation(pres, 1).truncation_data()
    return ctx, boundary


DERIVATIONS = {
    "koszul": cache(_koszul),
    "stage-total": cache(_stage_total),
    "stage-internal": cache(_stage_internal),
}


@st.composite
def _elements(draw, ctx, max_weight):
    monomials = enumerate_monomials(ctx, max_weight=max_weight)
    picks = draw(st.lists(st.sampled_from(monomials), min_size=0, max_size=5))
    terms = {}
    for exps in picks:
        num = draw(st.integers(-6, 6).filter(bool))
        den = draw(st.integers(1, 4))
        terms[exps] = Fraction(num, den)
    return GradedElement(ctx, terms)


def _leibniz_oracle(d, elem):
    """D(x_1 ... x_k) = sum_j (-1)^|x_1..x_{j-1}| x_1..x_{j-1} D(x_j) x_{j+1}..x_k."""
    ctx = elem.context
    gens = {i: GradedElement.generator(ctx, g.name) for i, g in enumerate(ctx.gens)}
    zero = GradedElement.zero(ctx)
    out = zero
    for exps, coeff in elem.terms.items():
        factors = [i for i, e in enumerate(exps) for _ in range(e)]
        for j, i in enumerate(factors):
            image = d.images.get(i, zero)
            left = GradedElement.const(ctx, coeff)
            for k in factors[:j]:
                left = left * gens[k]
            right = GradedElement.const(ctx, 1)
            for k in factors[j + 1:]:
                right = right * gens[k]
            prefix_degree = sum(ctx.gens[k].degree for k in factors[:j])
            sign = -1 if prefix_degree % 2 else 1
            out = out + (left * image * right).scale(sign)
    return out


@PROPERTY
@given(st.data(), st.sampled_from(sorted(DERIVATIONS)))
def test_derivation_matches_leibniz_oracle(data, which):
    ctx, d = DERIVATIONS[which]()
    elem = data.draw(_elements(ctx, 5))
    got = d(elem)
    assert got == _leibniz_oracle(d, elem)
    assert all(type(c) is Fraction for c in got.terms.values())


@st.composite
def _random_derivations(draw):
    """A context of 1-6 generators of degree -3..3 and a degree +1 derivation.

    Images are drawn from the small monomials (exponents up to 2) of
    the right degree; the derivation need not square to zero.
    """
    n = draw(st.integers(1, 6))
    ctx = GradedContext(
        Generator(f"g{i}", draw(st.integers(-3, 3))) for i in range(n)
    )
    small = list(product(*(range(2 if g.odd else 3) for g in ctx.gens)))
    coeffs = st.one_of(
        st.integers(-4, 4).filter(bool),
        st.fractions(-3, 3, max_denominator=4).filter(bool),
    )
    images = {}
    for g in ctx.gens:
        pool = [m for m in small if ctx.degree_of(m) == g.degree + 1]
        if not pool:
            continue
        picks = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        images[g.name] = GradedElement(
            ctx, {m: Fraction(draw(coeffs)) for m in picks}
        )
    picks = draw(
        st.lists(st.sampled_from(small), min_size=1, max_size=4, unique=True)
    )
    terms = tuple((m, draw(coeffs)) for m in picks)
    return Derivation(ctx, images), terms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_random_derivations())
def test_one_product_expand_matches_two_products(case):
    # base·t with the sign of moving t past rest is prefix·t·rest: same
    # keys in the same order, same coefficients, zeros included
    d, terms = case
    got = d.expand(terms)
    assert list(got.items()) == list(two_product_expand(d, terms).items())


# exponents just below and at powers of two: a product reaching one
# fills its code field to the top bit or needs the next one
FIELD_FILLING = (0, 1, 2, 3, 7, 8, 15, 16)


@st.composite
def _wide_derivations(draw):
    """Like ``_random_derivations``, on exponents that fill code fields.

    Generators have degree -2..2, so even ones of nonzero degree occur;
    at least two are odd and of degree 1 or -1, so an image term of an
    odd generator can hold two odd factors.  Even exponents are drawn
    from ``FIELD_FILLING``, in the input terms and the images alike.
    """
    degrees = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
    degrees = draw(st.permutations(degrees + draw(
        st.lists(st.sampled_from((-1, 1)), min_size=2, max_size=2)
    )))
    ctx = GradedContext(
        Generator(f"g{i}", d) for i, d in enumerate(degrees)
    )
    by_degree = {}
    for m in product(*((0, 1) if g.odd else (0, 1, 7, 16) for g in ctx.gens)):
        by_degree.setdefault(ctx.degree_of(m), []).append(m)
    coeffs = st.one_of(
        st.integers(-4, 4).filter(bool),
        st.fractions(-3, 3, max_denominator=4).filter(bool),
    )
    images = {}
    for g in ctx.gens:
        fits = by_degree.get(g.degree + 1)
        if not fits:
            continue
        picks = draw(st.lists(st.sampled_from(fits), max_size=4, unique=True))
        images[g.name] = GradedElement(
            ctx, {m: Fraction(draw(coeffs)) for m in picks}
        )
    exps = st.tuples(*(
        st.integers(0, 1) if g.odd else st.sampled_from(FIELD_FILLING)
        for g in ctx.gens
    ))
    picks = draw(st.lists(exps, min_size=1, max_size=4, unique=True))
    terms = tuple((m, draw(coeffs)) for m in picks)
    return Derivation(ctx, images), terms


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_wide_derivations())
def test_coded_expand_fills_fields_and_keeps_two_odd_factors(case):
    d, terms = case
    got = d.expand(terms)
    assert list(got.items()) == list(two_product_expand(d, terms).items())


def test_coded_expand_two_odd_factors_and_even_degree_two():
    # a (odd, degree 1) -> b*c + x^15*e: two odd factors in one term;
    # e (even, degree 2) -> x^15*a*b*c + x*a*e; x^15 or x^16 times x^15
    # fills x's five-bit code field to its top bit
    ctx = GradedContext([
        Generator("x", 0), Generator("a", 1), Generator("e", 2),
        Generator("b", 1), Generator("c", 1),
    ])
    x, a, e, b, c = (GradedElement.generator(ctx, n) for n in ctx)
    x15 = GradedElement.monomial(ctx, (15, 0, 0, 0, 0))
    d = Derivation(ctx, {
        "a": b * c + x15 * e,
        "e": x15 * a * b * c + x * a * e,
        "x": a.scale(Fraction(1, 2)),
    })
    for m in [(16, 1, 3, 0, 0), (15, 1, 1, 0, 1), (1, 0, 8, 1, 0)]:
        terms = ((m, 3),)
        got = d.expand(terms)
        assert got
        assert list(got.items()) == list(two_product_expand(d, terms).items())


# ---------------------------------------------------------------------------
# presentation morphisms


MORPHISMS = [f"coface-{p}-{j}" for p in (1, 2, 3) for j in range(p + 1)]
MORPHISMS += ["tower", "tower-two"]


@cache
def _morphism(name):
    if name.startswith("coface"):
        _, p, j = name.split("-")
        return conerve_cofaces(XY, P("x*y"), int(p))[int(j)]
    if name == "tower":
        return tower_map(XY, [P("1/2*x^2 + 3*y^3")], 3, 1)
    return tower_map(XY, [P("x - 2*y"), P("x*y")], 2, 1)


def _product_oracle(phi, elem):
    tgt = phi.target.context
    out = GradedElement.zero(tgt)
    for exps, coeff in elem.terms.items():
        term = GradedElement.const(tgt, coeff)
        for e, g in zip(exps, phi.source.context.gens):
            for _ in range(e):
                term = term * phi.images[g.name]
        out = out + term
    return out


@PROPERTY
@given(st.data(), st.sampled_from(MORPHISMS))
def test_morphism_apply_matches_product_of_images(data, which):
    phi = _morphism(which)
    elem = data.draw(_elements(phi.source.context, 4))
    got = phi.apply(elem)
    assert got == _product_oracle(phi, elem)
    assert all(type(c) is Fraction for c in got.terms.values())


def test_tower_images_exercise_coefficients():
    phi = _morphism("tower")
    coeffs = set(phi.images["t"].terms.values())
    assert coeffs - {1}


# ---------------------------------------------------------------------------
# every matrix is integers over one denominator, equal to the Fraction
# oracle; every coefficient of a GradedElement is a Fraction


def _assert_integral_form(matrices, dens):
    """Nonzero rows of nonzero int entries; each ``dens[n]`` a positive
    int in lowest terms."""
    for n, rows in matrices.items():
        den = dens[n]
        assert type(den) is int and den >= 1, (n, den)
        assert all(rows.values()), n
        entries = flat_entries(rows)
        assert all(type(v) is int and v for v in entries.values()), n
        assert gcd(den, *entries.values()) == 1, (n, den)


def _as_fractions(matrices, dens):
    return {
        n: {key: Fraction(v, dens[n]) for key, v in flat_entries(rows).items()}
        for n, rows in matrices.items()
    }


def _check_against(cx, want):
    _assert_integral_form(cx.diffs, cx.dens)
    assert _as_fractions(cx.diffs, cx.dens) == want


def _check_stage(pres, hodge, weight):
    stage = DeRhamStage(pres, hodge, weight)
    cx = weight_truncate(stage, weight)
    _check_against(cx, fraction_matrices(stage, weight, cx.labels))
    return stage, cx


def _check_conerve(variables, f, p_max, weight):
    """The package's retract against the oracle's full normalized
    conerve: the unit and the keys of column ``p_max`` whose slot 0 is
    not the unit, in the oracle's order, and, since they span a
    subcomplex, the oracle's matrices on those keys."""
    cx = conerve_totalization(variables, f, p_max, weight)
    unit = (0,) * (len(variables) + 1)
    labels = {}
    for n, keys in conerve_basis(variables, f, p_max, weight).items():
        kept = tuple(
            (p, slots) for p, slots in keys
            if slots == (unit,) or (p == p_max and slots[0] != unit)
        )
        if kept:
            labels[n] = kept
    assert cx.dims == {n: len(keys) for n, keys in labels.items()}
    assert cx.labels == labels
    want = conerve_fraction_matrices(variables, f, p_max, weight, cx.labels)
    _check_against(cx, want)
    return cx


def _check_morphism(phi, weight):
    src = weight_truncate(phi.source, weight)
    tgt = weight_truncate(phi.target, weight)
    mats = morphism_matrices(phi, src, tgt, weight)
    _assert_integral_form(mats, mats.dens)
    want = {}
    for n, keys in src.labels.items():
        index = {k: i for i, k in enumerate(tgt.labels.get(n, ()))}
        want[n] = {}
        for col, exps in enumerate(keys):
            image = phi.apply(GradedElement.monomial(phi.source.context, exps))
            for t, c in image.weight_filter(weight).terms.items():
                if t in index:
                    want[n][(index[t], col)] = c
    assert _as_fractions(mats, mats.dens) == want
    return mats


def _check_cut(stage, cx, weight):
    """The quotient of ``cx`` by its weight-``weight`` keys, entry by
    entry against the fraction oracle at ``weight - 1``."""
    ctx = stage.truncation_data()[0]
    low = reference_quotient(cx, {
        n: [{e: Fraction(1)} for e in keys if ctx.weight_of(e) == weight]
        for n, keys in cx.labels.items()
    })
    _check_against(low, fraction_matrices(stage, weight - 1, low.labels))


def _check_stalk(gens, weight):
    """K's cohomology and its cut's read off ranks, as the package reads
    them, against the dense oracle on the fraction oracle's matrices;
    and the quotient's, by the long exact sequence, against the
    fraction oracle's quotients at ``weight`` and at ``weight - 1``."""
    variables = tuple(gens[0].context)
    n = len(variables)
    stage = DeRhamStage(free_presentation(variables), n, weight)
    ambient = weight_truncate(stage, weight)
    want = []
    for w in (weight - 1, weight):
        labels = truncation_basis(stage, w)
        h = fraction_cohomology(*quotient_fraction_matrices(
            fraction_matrices(stage, w, labels),
            labels,
            stalk_span(stage, labels, gens, w),
        ))
        want.append({k: h.get(k, 0) for k in range(n + 1)})
    span = stalk_span(stage, ambient.labels, gens, weight)
    weight_of = stage.truncation_data()[0].weight_of
    got = ambient.subcomplex_cohomology(span, weight_of)
    assert got == reference_subcomplex(
        ambient, span, fraction_matrices(stage, weight, ambient.labels)
    )
    assert [quotient_by_sequence(h, n) for h in got] == want


def test_matrix_entries_are_integers_over_one_denominator():
    f = P("2/3*x*y")
    pres = koszul_presentation(XY, [P("1/2*x^2 + y^3")], 1)
    cx = _check_conerve(XY, f, 3, 5)
    assert set(cx.dens.values()) == {1, 3}
    xyz = ("x", "y", "z")
    cx = _check_conerve(xyz, P("x*y + 1/2*z^2", xyz), 3, 5)
    assert set(cx.dens.values()) == {1, 2}
    stage, cx = _check_stage(pres, 3, 7)
    assert set(cx.dens.values()) == {1, 2}
    _check_cut(stage, cx, 7)
    mats = _check_morphism(_morphism("tower"), 8)
    assert set(mats.dens.values()) - {1}
    _check_stalk([P("1/2*x^2 + 2/3*y^3")], 6)
    product = P("x - 1/3*y").cast_to(pres.context) * pres.generator("t")
    assert all(type(c) is Fraction for c in product.terms.values())


@st.composite
def _rational_polys(draw):
    variables = XY[: draw(st.integers(1, 2))]
    exps = st.tuples(*[st.integers(0, 3) for _ in variables]).filter(
        lambda e: 1 <= sum(e) <= 3
    )
    support = draw(st.lists(exps, min_size=1, max_size=3, unique=True))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
        bool
    )
    terms = {e: draw(coeff) for e in support}
    return Poly(variables, terms)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_rational_polys(), st.integers(2, 4))
def test_integer_matrices_match_the_fraction_oracle(f, weight):
    variables = tuple(f.context)
    pres = koszul_presentation(variables, [f], 1)
    stage, cx = _check_stage(pres, 2, weight)
    _check_cut(stage, cx, weight)
    _check_conerve(variables, f, 2, min(weight, 3))
    _check_morphism(tower_map(variables, [f], 2, 1), weight)
    _check_stalk([f], weight)


@st.composite
def _truncation_sources(draw):
    """A Hodge slice, a de Rham stage or the Koszul model of f."""
    f = draw(_rational_polys())
    variables = tuple(f.context)
    pres = koszul_presentation(variables, [f], 1)
    kind = draw(st.sampled_from(["cotangent", "wedge", "stage", "koszul"]))
    k = draw(st.integers(1, 3))
    if kind == "cotangent":
        return CotangentPresentation(pres, k)
    if kind == "wedge":
        return _WedgeSource(pres, k)
    if kind == "stage":
        return DeRhamStage(pres, k, 0)
    return pres


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_truncation_sources(), st.integers(1, 6))
def test_assembly_matches_the_basis_and_fraction_oracles(source, weight):
    # the low-Hodge filter and the Hodge cut (slices k >= 1), the weight
    # cut with the Hodge cut (stages), the weight cut alone (Koszul
    # models), each against tuples tested one by one
    cx = weight_truncate(source, weight)
    want = truncation_basis(source, weight)
    assert cx.labels == {n: tuple(keys) for n, keys in want.items()}
    _check_against(cx, fraction_matrices(source, weight, cx.labels))


# ---------------------------------------------------------------------------
# the exterior derivative of the stage's internal boundary


def _exterior_formula(term_exps, coeff, ctx):
    """d of one base-algebra term, written with the d-generators."""
    out = GradedElement.zero(ctx)
    prefix_degree = 0
    for i, e in enumerate(term_exps):
        g = ctx.gens[i]
        if e and g.hodge == 0:
            sign = -1 if prefix_degree % 2 else 1
            mult = 1 if g.odd else e
            prefix = [0] * len(term_exps)
            prefix[:i] = term_exps[:i]
            tail = [0] * len(term_exps)
            tail[i:] = term_exps[i:]
            tail[i] -= 1
            out = out + (
                GradedElement.monomial(ctx, prefix, coeff * sign * mult)
                * GradedElement.generator(ctx, "d" + g.name)
                * GradedElement.monomial(ctx, tail)
            )
        prefix_degree += e * g.degree
    return out


def test_truncation_data_images_match_exterior_formula():
    pres = koszul_presentation(
        XY, [P("x^2*y - 1/2*y^3"), P("4*x*y")], 1
    )
    for source in (CotangentPresentation(pres, 1), _WedgeSource(pres, 2)):
        ctx, boundary, _ = source.truncation_data()
        assert len(boundary.images) == 2 * len(pres.odd)
        for g in pres.odd:
            lifted = pres.images[g.name].cast_to(ctx)
            assert boundary.images[ctx.index(g.name)] == lifted
            exterior = GradedElement.zero(ctx)
            for exps, coeff in lifted.terms.items():
                exterior = exterior + _exterior_formula(exps, coeff, ctx)
            assert boundary.images[ctx.index("d" + g.name)] == -exterior

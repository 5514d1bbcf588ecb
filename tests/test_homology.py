import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc import elim
from drcalc.derham import (
    CotangentPresentation,
    _WedgeSource,
    conerve_totalization,
    cotangent_complex,
    derham_stage,
    free_presentation,
    hodge_graded,
    wedge_power,
)
from drcalc.dg import (
    DGMorphism,
    DGPresentation,
    OddGenerator,
    koszul_presentation,
    tower_map,
)
from drcalc.errors import StructuralError
from drcalc.algebra import GradedElement
from drcalc.homology import (
    GradedMatrices,
    MatrixComplex,
    _compose,
    chain_map_check,
    induced_map_vanishes,
    morphism_matrices,
    restricted_report,
    stability_report,
    weight_truncate,
)
from drcalc.parse import parse_poly
from drcalc.poly import Poly
from drcalc.reiffen import quotient_by_sequence

from oracles import (
    flat_entries,
    gauss_rank,
    reference_quotient,
    reference_subcomplex,
    rref_nullspace,
    stalk_span,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, ctx=XY):
    return parse_poly(ctx, text)


def _two_term(matrix, nsrc, ntgt):
    return MatrixComplex(
        dims={0: nsrc, 1: ntgt},
        labels={0: [f"e{i}" for i in range(nsrc)],
                1: [f"f{i}" for i in range(ntgt)]},
        diffs={0: matrix},
        dens={0: 1},
    )


def test_two_term_cohomology():
    # 0 -> Q^2 --(1 1)--> Q -> 0
    cx = _two_term({0: {0: 1, 1: 1}}, 2, 1)
    assert cx.cohomology() == {0: 1, 1: 0}
    assert cx.euler_characteristic() == 1
    # zero map
    cx = _two_term({}, 2, 1)
    assert cx.cohomology() == {0: 2, 1: 1}


def test_composition_guard():
    # d1 d0 != 0 must be refused
    cx = MatrixComplex(
        dims={0: 1, 1: 1, 2: 1},
        labels={0: ["a"], 1: ["b"], 2: ["c"]},
        diffs={0: {0: {0: 1}}, 1: {0: {0: 1}}},
        dens={0: 1, 1: 1},
    )
    with pytest.raises(StructuralError) as err:
        cx.check_composition()
    assert "d o d" in str(err.value)
    # the first nonzero row of the product names its smallest column:
    # row 0 of d1 d0 is (0, 1, 2), its column 0 cancels (1 - 1)
    cx = MatrixComplex(
        dims={0: 3, 1: 2, 2: 1},
        labels={0: ["a0", "a1", "a2"], 1: ["b0", "b1"], 2: ["c"]},
        diffs={
            0: {0: {0: 1, 1: 1}, 1: {0: -1, 2: 2}},
            1: {0: {0: 1, 1: 1}},
        },
        dens={0: 1, 1: 1},
    )
    with pytest.raises(StructuralError) as err:
        cx.check_composition()
    assert str(err.value) == "d o d != 0 out of degree 0, column 1"


def test_weight_truncate_checks_composition():
    # a hand-built source whose derivation does not square to zero
    # (d s = x, d x = e, so d d s = e) is refused where it is assembled
    class Bad:
        def truncation_data(self):
            from drcalc.algebra import (
                Derivation,
                GradedContext,
                GradedElement,
                Generator,
            )
            ctx = GradedContext([
                Generator("x", 0), Generator("e", 1), Generator("s", -1),
            ])
            img = {
                "s": GradedElement.generator(ctx, "x"),
                "x": GradedElement.generator(ctx, "e"),
            }
            return ctx, Derivation(ctx, img), None

    with pytest.raises(StructuralError) as err:
        weight_truncate(Bad(), 2)
    assert "d o d" in str(err.value)


def test_weight_truncate_names_a_missing_image_term():
    # d lowers the Hodge column (e in column 1 goes to y in column 0):
    # y is inside both cuts but no basis key of column 1, so the
    # assembly refuses it instead of dropping it
    class Lowering:
        def truncation_data(self):
            from drcalc.algebra import (
                Derivation,
                GradedContext,
                GradedElement,
                Generator,
            )
            ctx = GradedContext([
                Generator("e", 0, 1, 1), Generator("y", 1, 1, 0),
            ])
            img = {"e": GradedElement.generator(ctx, "y")}
            return ctx, Derivation(ctx, img), range(1, 2)

    with pytest.raises(StructuralError) as err:
        weight_truncate(Lowering(), 2)
    assert "image term y missing from degree 1 basis" in str(err.value)


def test_entry_bounds_guard():
    with pytest.raises(StructuralError):
        MatrixComplex(
            dims={0: 1, 1: 1},
            labels={0: ["a"], 1: ["b"]},
            diffs={0: {3: {0: 1}}},
            dens={0: 1},
        )
    with pytest.raises(StructuralError):
        MatrixComplex(
            dims={0: 1, 1: 1},
            labels={0: ["a"], 1: ["b"]},
            diffs={0: {0: {0: 1}}},
            dens={0: 0},
        )


def _random_complex(rng):
    """Three-term complex with d1 d0 = 0 built from a factored product."""
    a, b, c = (rng.randrange(1, 4) for _ in range(3))
    mid = rng.randrange(1, 4)
    # d0 = B A has a factor in common with d1 = C where C B = 0 by
    # construction: take C = 0 half the time, else build from kernel
    d0 = {
        (r, col): rng.randrange(-3, 4)
        for r in range(b)
        for col in range(a)
        if rng.random() < 0.7
    }
    rows = {}
    for (r, col), v in d0.items():
        if v:
            rows.setdefault(r, {})[col] = v
    cx = MatrixComplex(
        dims={0: a, 1: b},
        labels={0: [f"a{i}" for i in range(a)],
                1: [f"b{i}" for i in range(b)]},
        diffs={0: rows},
        dens={0: 1},
    )
    return cx


def test_euler_characteristic_random():
    rng = random.Random(9)
    for _ in range(50):
        cx = _random_complex(rng)
        dims = cx.cohomology()
        euler_cohom = sum((-d if n % 2 else d) for n, d in dims.items())
        euler_basis = sum(
            (-d if n % 2 else d) for n, d in cx.dims.items()
        )
        assert euler_cohom == euler_basis
        assert cx.euler_characteristic() == euler_basis


def test_permutation_invariance():
    rng = random.Random(10)
    for _ in range(30):
        cx = _random_complex(rng)
        perm0 = list(range(cx.dims[0]))
        perm1 = list(range(cx.dims[1]))
        rng.shuffle(perm0)
        rng.shuffle(perm1)
        shuffled = MatrixComplex(
            dims=cx.dims,
            labels=cx.labels,
            diffs={0: {
                perm1[r]: {perm0[c]: v for c, v in row.items()}
                for r, row in cx.diffs[0].items()
            }},
            dens=cx.dens,
        )
        assert shuffled.cohomology() == cx.cohomology()


# ---------------------------------------------------------------------------
# weight truncation of presentations


def test_koszul_fat_point_window_2():
    pres = koszul_presentation(("x",), [P("x^2", ("x",))], 1)
    cx = weight_truncate(pres, 2)
    assert cx.dims[0] == 3          # 1, x, x^2
    assert cx.dims[-1] == 1         # t alone; x*t has weight 3
    assert {pres.context.monomial_str(k) for k in cx.labels[-1]} == {"t"}
    assert cx.cohomology() == {-1: 0, 0: 2}


def test_regular_sequence_acyclic_all_windows():
    pres = koszul_presentation(XY, [P("x"), P("y")], 1)
    for weight in range(1, 9):
        cx = weight_truncate(pres, weight)
        cx.check_composition()
        dims = cx.cohomology()
        assert dims.get(-1, 0) == 0
        assert dims.get(-2, 0) == 0
    assert weight_truncate(pres, 4).cohomology()[0] == 1


def test_truncation_monotone_in_weight():
    pres = koszul_presentation(XY, [P("x*y")], 2)
    sizes = [sum(weight_truncate(pres, w).dims.values()) for w in (2, 4, 6)]
    assert sizes == sorted(sizes)


def test_weight_lowering_guard():
    # a hand-built source whose differential lowers weight must be
    # rejected, and the message should name the offending generator
    class Bad:
        def truncation_data(self):
            from drcalc.algebra import (
                Derivation,
                GradedContext,
                GradedElement,
                Generator,
            )
            ctx = GradedContext(
                [Generator("x", 0, 1, 0), Generator("s", -1, 3, 0)]
            )
            img = {"s": GradedElement.generator(ctx, "x")}
            return ctx, Derivation(ctx, img), None

    with pytest.raises(StructuralError) as err:
        weight_truncate(Bad(), 4)
    assert "s" in str(err.value)


def test_stability_report_flags():
    pres = koszul_presentation(("x",), [P("x", ("x",))], 1)
    report = stability_report(pres, 5)
    assert report.dim(0) == 1
    assert report.is_stable(0)
    assert report.format().splitlines()[-1].startswith("H^{0}")


def test_report_format_lines():
    pres = koszul_presentation(("x",), [P("x^2", ("x",))], 2)
    report = stability_report(pres, 6)
    for line in report.format().splitlines():
        assert line.startswith("H^{")
        assert " dim=" in line and " stable=" in line
        assert line.endswith(("true", "false"))


def _restriction_cases():
    koszul = koszul_presentation(XY, [P("x*y"), P("x^2 + y^3")], 1)
    rational = koszul_presentation(XY, [P("1/2*x*y"), P("2/3*x^2 + y^3")], 1)
    node = koszul_presentation(XY, [P("x*y")], 1)
    stage_ctx = derham_stage(node, 2, 1).truncation_data()[0]
    return [
        ("koszul", koszul.context, lambda w: weight_truncate(koszul, w)),
        (
            "rational",
            rational.context,
            lambda w: weight_truncate(rational, w),
        ),
        (
            "stage",
            stage_ctx,
            lambda w: weight_truncate(derham_stage(node, 2, w), w),
        ),
        (
            "graded",
            CotangentPresentation(node, 2).truncation_data()[0],
            lambda w: hodge_graded(node, 2, w),
        ),
        (
            "wedge",
            _WedgeSource(node, 2).context,
            lambda w: wedge_power(cotangent_complex(node), 2, w),
        ),
    ]


def _heavy_unit_vectors(cx, heavy):
    """The span of the unit vectors of the keys ``heavy`` picks."""
    return {
        n: [{key: Fraction(1)} for key in keys if heavy(key)]
        for n, keys in cx.labels.items()
    }


def test_restriction_matches_direct_build():
    # the W complex is the W+1 complex divided by the unit vectors of
    # its keys of weight W+1: same basis keys, same entries, for every
    # way a complex is assembled, and every kept key was light; the
    # flagged report read off one W+1 build must agree with two direct
    # builds
    for name, ctx, build in _restriction_cases():
        for weight in (2, 3, 4, 6):
            above = build(weight + 1)
            here = reference_quotient(above, _heavy_unit_vectors(
                above, lambda e: ctx.weight_of(e) > weight
            ))
            direct = build(weight)
            assert here.dims == direct.dims, (name, weight)
            assert here.labels == direct.labels, (name, weight)
            assert here.diffs == direct.diffs, (name, weight)
            assert here.dens == direct.dens, (name, weight)
            assert here.light == here.dims, (name, weight)
            low, high = direct.cohomology(), above.cohomology()
            report = restricted_report(build, weight)
            assert report.dims == tuple(sorted(low.items())), (name, weight)
            assert dict(report.stable) == {
                n: low.get(n, 0) == high.get(n, 0) for n in set(low) | set(high)
            }, (name, weight)


def test_light_keys_are_the_prefix_below_the_top_weight():
    # every assembled basis is in ascending weight, so the keys below
    # the top weight are a prefix: light[n] counts them, also after a
    # degree shift
    node = koszul_presentation(XY, [P("x*y")], 1)
    column = CotangentPresentation(node, 2)
    cases = [
        (f"{name} W={weight}", build(weight), ctx.weight_of, weight)
        for name, ctx, build in _restriction_cases()
        for weight in (2, 3, 4, 6)
    ]
    column_ctx = column.truncation_data()[0]
    cases.append(("shifted", column.complex(5), column_ctx.weight_of, 5))
    for name, cx, weight_of, top in cases:
        assert set(cx.light) == set(cx.dims), name
        for n, keys in cx.labels.items():
            weights = [weight_of(key) for key in keys]
            assert weights == sorted(weights), (name, n)
            assert cx.light[n] == sum(w <= top - 1 for w in weights), (name, n)
    # a count outside 0..dims[n] is refused, as is one for a degree
    # without a basis
    for light in ({0: -1}, {0: 3}, {1: 1}):
        with pytest.raises(StructuralError):
            MatrixComplex({0: 2}, {0: ["a", "b"]}, {}, {}, light)


def _report_builds(pres, source):
    """The build of one flagged source at Hodge level 2."""
    if source == "stage":
        return lambda w: weight_truncate(derham_stage(pres, 2, w), w)
    if source == "cotangent":
        return CotangentPresentation(pres, 2).complex
    return lambda w: wedge_power(cotangent_complex(pres), 2, w)


@st.composite
def _germs(draw):
    variables = draw(st.sampled_from([XY, XYZ]))
    exponents = st.tuples(*[st.integers(0, 3) for _ in variables]).filter(
        lambda e: 1 <= sum(e) <= 3
    )
    terms = draw(st.dictionaries(
        exponents,
        st.fractions(-3, 3, max_denominator=3).filter(bool),
        min_size=1,
        max_size=3,
    ))
    return Poly(variables, terms)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_germs(), st.sampled_from(["stage", "cotangent", "wedge"]),
       st.integers(1, 4))
def test_restricted_report_matches_two_builds(f, source, weight):
    # one elimination of the W+1 complex, light rows first, gives what
    # two separate builds at W and W+1 give
    pres = koszul_presentation(f.context, [f], 1)
    build = _report_builds(pres, source)
    low, high = build(weight).cohomology(), build(weight + 1).cohomology()
    report = restricted_report(build, weight)
    assert report.dims == tuple(sorted(low.items())), (str(f), source)
    assert dict(report.stable) == {
        n: low.get(n, 0) == high.get(n, 0) for n in set(low) | set(high)
    }, (str(f), source)


def test_cut_cohomology_reads_both_cuts():
    # hand-built keys cut after one light key each: a -> 2c + d,
    # heavy-b -> 0; the light side has rank 1 on one key each, the
    # whole complex one class in each degree
    cx = MatrixComplex(
        dims={0: 2, 1: 2},
        labels={0: ["a", "heavy-b"], 1: ["c", "heavy-d"]},
        diffs={0: {0: {0: 2}, 1: {0: 1}}},
        dens={0: 1},
        light={0: 1, 1: 1},
    )
    here, above = cx.cut_cohomology()
    heavy = _heavy_unit_vectors(cx, lambda key: key.startswith("heavy"))
    assert here == reference_quotient(cx, heavy).cohomology()
    assert here == {0: 0, 1: 0}
    assert above == cx.cohomology() == {0: 1, 1: 1}
    # the heavy keys span a subcomplex, heavy-b -> 0 and heavy-d, one
    # class in each degree; its cut is zero
    assert cx.subcomplex_cohomology(heavy, _no_weight) == (
        reference_subcomplex(cx, heavy)
    ) == ({0: 0, 1: 0}, {0: 1, 1: 1})
    # the heavy column meets the light row: no quotient
    bad = MatrixComplex(
        dims={0: 2, 1: 1},
        labels={0: ["a", "heavy-b"], 1: ["c"]},
        diffs={0: {0: {0: 1, 1: 1}}},
        dens={0: 1},
        light={0: 1},
    )
    for cohomology in (
        bad.cut_cohomology,
        bad.cohomology,
        lambda: bad.subcomplex_cohomology({}, _no_weight),
    ):
        with pytest.raises(StructuralError) as err:
            cohomology()
        assert str(err.value) == (
            "restriction is not a quotient: dropped column 1 of degree 0 "
            "reaches a kept row"
        )


def test_cut_cohomology_pivots_heaviest_first(monkeypatch):
    # _echelon pivots each row at its smallest column, so the column
    # numbering is the pivot order.  Numbered in basis order (ascending
    # weight) the largest echelon of this stage holds 9,683 nonzeros;
    # heaviest first it holds 3,566.  The bound catches a basis or
    # column order that brings the fill-in back.
    sizes = []
    echelon = elim._echelon

    def spy(*args, **kwargs):
        pivots = echelon(*args, **kwargs)
        sizes.append(sum(len(row) for row, _ in pivots.values()))
        return pivots

    monkeypatch.setattr(elim, "_echelon", spy)
    pres = koszul_presentation(XY, [P("x^4+y^5+x*y^4")], 1)
    report = derham_stage(pres, 21, 20).report()
    assert report.dims == ((-1, 0), (0, 1), (1, 0), (2, 0))
    assert max(sizes) <= 4000


def test_restriction_must_drop_a_subcomplex():
    pres = koszul_presentation(XY, [P("x*y")], 1)
    cx = weight_truncate(pres, 4)
    # degree -1 alone is no subcomplex: d maps it onto boundaries
    with pytest.raises(StructuralError) as err:
        cx.subcomplex_cohomology(_heavy_unit_vectors(
            cx, lambda e: pres.context.degree_of(e) < 0
        ), pres.context.weight_of)
    assert "span is not closed under d" in str(err.value)
    # hand-built keys: the target of a map is a subcomplex, one class
    # in degree 1; every key is light, so its cut is all of it
    two = _two_term({0: {0: 1, 1: 1}}, 2, 1)
    span = _heavy_unit_vectors(two, lambda key: key == "f0")
    assert two.subcomplex_cohomology(span, _no_weight) == (
        reference_subcomplex(two, span)
    ) == ({0: 0, 1: 1}, {0: 0, 1: 1})
    assert reference_quotient(two, span).cohomology() == {0: 2}


def _no_weight(key):
    """One weight for every key: positions keep their order reversed."""
    return 0


def test_quotient_needs_a_subcomplex():
    # (x) in degree 0 without dx: d(x) = dx leaves the span; keys are
    # exponent tuples over (x, dx), cut below weight 3
    stage = derham_stage(free_presentation(("x",)), 1, 3)
    cx, weight_of = stage.complex(), stage.truncation_data()[0].weight_of
    span = {0: [{key: Fraction(1)} for key in cx.labels[0] if key[0] >= 1]}
    with pytest.raises(
        StructuralError,
        match="span is not closed under d: an image in degree 1 leaves "
        "the span at basis position 0",
    ):
        cx.subcomplex_cohomology(span, weight_of)
    with pytest.raises(StructuralError, match="not a quotient"):
        reference_quotient(cx, span)
    # with dx ^ Omega^0 and x * Omega^1 added it is the whole of Omega^1:
    # d maps (x) onto it, so K is acyclic, and the quotient is Q in
    # degree 0, 1 - dim H^0(K) + dim H^1(K)
    span[1] = [{key: Fraction(1)} for key in cx.labels[1]]
    zero = {0: 0, 1: 0}
    assert cx.subcomplex_cohomology(span, weight_of) == (
        reference_subcomplex(cx, span)
    ) == (zero, zero)
    assert reference_quotient(cx, span).cohomology() == {0: 1}


def _stalk_ambient(g, weight):
    """The free de Rham stage cut below ``weight``, the span of K =
    g*Omega + dg^Omega on it, and the weight of a key."""
    n = len(g.context)
    stage = derham_stage(free_presentation(g.context), n, weight)
    ambient = weight_truncate(stage, weight)
    span = stalk_span(stage, ambient.labels, [g], weight)
    return ambient, span, stage.truncation_data()[0].weight_of


def test_stored_rows_survive_every_consumer():
    # elim's kernel reduces the rows it is given in place, so a stored
    # row must never reach it: every consumer leaves a stage, a conerve
    # and a stalk's ambient (and a morphism's matrices) as they were.
    # The stage and the stalk are cut below their top weight; the
    # conerve carries no cut.
    node = koszul_presentation(XY, [P("x*y")], 1)
    stage = derham_stage(node, 3, 5)
    ambient, span, weight_of = _stalk_ambient(P("x^2+y^3"), 7)
    cases = [
        (stage.complex(), stage.truncation_data()[0].weight_of),
        (conerve_totalization(XY, P("x*y"), 3, 5), _no_weight),
        (ambient, weight_of),
    ]
    seen = set()
    for cx, weight_of in cases:
        heavy = {
            n: [{key: Fraction(1)} for key in keys[cx.light[n]:]]
            for n, keys in cx.labels.items()
        }
        ident = GradedMatrices(
            {n: {i: {i: 1} for i in range(d)} for n, d in cx.dims.items()}
        )
        ident.dens = {n: 1 for n in cx.dims}
        rows, mats = copy.deepcopy(cx.diffs), copy.deepcopy(ident)
        cx.check_composition()
        dims = cx.cohomology()
        here, above = cx.cut_cohomology()
        assert here == reference_quotient(cx, heavy).cohomology()
        assert above == dims
        # the heavy keys span a subcomplex whose cut is zero
        low, high = cx.subcomplex_cohomology(heavy, weight_of)
        assert (low, high) == reference_subcomplex(cx, heavy)
        assert set(low.values()) == {0}
        for n in cx.degrees():
            vanishes = induced_map_vanishes(cx, cx, ident, n)
            assert vanishes == (dims[n] == 0), n
            seen.add(vanishes)
        assert cx.diffs == rows
        assert ident == mats
    rows = copy.deepcopy(ambient.diffs)
    got = ambient.subcomplex_cohomology(span, weight_of)
    assert got == reference_subcomplex(ambient, span)
    # the ambient is acyclic but for Q in degree 0 on both sides of its
    # cut, so the quotient's cohomology is K's, shifted
    want = reference_quotient(ambient, span).cut_cohomology()
    assert [quotient_by_sequence(h, 2) for h in got] == [
        {k: h.get(k, 0) for k in range(3)} for h in want
    ]
    assert ambient.diffs == rows
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# chain maps


def test_tower_map_is_chain_map():
    morphism = tower_map(XY, [P("x*y")], 2, 1)
    report = chain_map_check(morphism, 6)
    assert report.ok
    assert report.first_failure_degree is None


def test_rational_tower_map_is_chain_map():
    # the integer products on the two sides of the square sit over
    # different denominators (24 against 216, and 4 against 8)
    for text in ("1/2*x^2 + 1/3*y^3", "x^2 + 1/2*y^3"):
        assert chain_map_check(tower_map(XY, [P(text)], 3, 1), 8).ok
    morphism = tower_map(XY, [P("1/2*x^2 + 3*y^3")], 3, 1)
    assert chain_map_check(morphism, 8).ok
    close = morphism.images["t"].scale(Fraction(7, 5))
    bad = DGMorphism(morphism.source, morphism.target, {"t": close})
    report = chain_map_check(bad, 8)
    assert not report.ok
    assert report.first_failure_degree == -1


def test_corrupted_map_detected():
    morphism = tower_map(XY, [P("x*y")], 2, 1)
    ctx = morphism.target.context
    from drcalc.algebra import GradedElement
    from drcalc.dg import DGMorphism

    bad = DGMorphism(
        morphism.source,
        morphism.target,
        {"t": GradedElement.generator(ctx, "t")},  # forgot the x*y factor
    )
    report = chain_map_check(bad, 6)
    assert not report.ok
    assert report.first_failure_degree == -1


def test_map_off_by_a_fraction_detected():
    # t -> (1 + 10^-20) x*y t: d o Phi and Phi o d differ by 10^-20 x^2 y^2
    morphism = tower_map(XY, [P("x*y")], 2, 1)
    close = morphism.images["t"].scale(Fraction(10**20 + 1, 10**20))
    bad = DGMorphism(morphism.source, morphism.target, {"t": close})
    report = chain_map_check(bad, 6)
    assert not report.ok
    assert report.first_failure_degree == -1


def _dense_product(second, first, nrows, nmid, ncols):
    """The product as ``{(row, col): Fraction}``, summed densely."""
    second, first = flat_entries(second), flat_entries(first)
    out = {}
    for r in range(nrows):
        for c in range(ncols):
            v = sum(
                (Fraction(second.get((r, k), 0)) * first.get((k, c), 0)
                 for k in range(nmid)),
                Fraction(0),
            )
            if v:
                out[(r, c)] = v
    return out


def test_compose_matches_dense_fraction_product():
    # (1/3)*3 - 1*1 cancels only exactly; 1/3 in binary64 would not
    second = {0: {0: Fraction(1, 3), 1: Fraction(-1)}, 1: {1: Fraction(2, 7)}}
    first = {0: {0: Fraction(3)}, 1: {0: Fraction(1), 1: Fraction(7, 4)}}
    product = _compose(second, first)
    assert flat_entries(product) == {
        (1, 0): Fraction(2, 7), (0, 1): Fraction(-7, 4), (1, 1): Fraction(1, 2)
    }
    assert all(type(v) is Fraction for v in flat_entries(product).values())
    assert _compose({}, first) == {} and _compose(second, {}) == {}
    rng = random.Random(61)
    dens = (1, 2, 3, 10**12)
    for _ in range(60):
        nrows, nmid, ncols = (rng.randrange(1, 6) for _ in range(3))

        def sparse(nr, nc):
            rows = {}
            for r in range(nr):
                for c in range(nc):
                    if rng.random() < 0.5:
                        rows.setdefault(r, {})[c] = Fraction(
                            rng.randrange(-9, 10), rng.choice(dens)
                        )
            return rows

        second, first = sparse(nrows, nmid), sparse(nmid, ncols)
        want = _dense_product(second, first, nrows, nmid, ncols)
        product = _compose(second, first)
        assert all(product.values())  # nonzero rows only
        assert flat_entries(product) == want


def test_induced_map_on_cohomology():
    # identity morphism induces an injection; the zero-composite tower
    # collapse is exercised end to end in the acceptance suite
    pres = koszul_presentation(("x",), [P("x^2", ("x",))], 1)
    cx = weight_truncate(pres, 4)
    from drcalc.dg import DGMorphism

    ident = DGMorphism(pres, pres, {})
    mats = morphism_matrices(ident, cx, cx, 4)
    assert not induced_map_vanishes(cx, cx, mats, 0)


def _dense(sparse, nrows, ncols):
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for (r, c), v in flat_entries(sparse).items():
        rows[r][c] = v
    return rows


def _pushed_cycles_are_boundaries(src_cx, tgt_cx, mats, n):
    """Dense decision: every pushed cycle is in the boundary column span."""
    ns, nt = src_cx.dims.get(n, 0), tgt_cx.dims.get(n, 0)
    d_src = _dense(src_cx.diffs.get(n, {}), src_cx.dims.get(n + 1, 0), ns)
    phi = _dense(mats.get(n, {}), nt, ns)
    bnd = _dense(tgt_cx.diffs.get(n - 1, {}), nt, tgt_cx.dims.get(n - 1, 0))
    pushed = [
        [sum(a * b for a, b in zip(phi_row, z) if a and b) for phi_row in phi]
        for z in rref_nullspace(d_src, ns)
    ]
    aug = [row + [y[r] for y in pushed] for r, row in enumerate(bnd)]
    return gauss_rank(aug) == gauss_rank(bnd)


def _scaled(tower):
    """``tower``'s stages, each Koszul generator sent to 3/2 of itself.

    No chain map: d(3/2 t) = 3/2 f^small, not f^big.
    """
    target = tower.target
    images = {
        g.name: target.generator(g.name).scale(Fraction(3, 2))
        for g in target.odd
    }
    return DGMorphism(tower.source, target, images)


def _zero_divisor_tower(big, small):
    """Q[x,y]/(xy) as d s = xy, x^n bounded by d t = x^n: the
    transition s -> s, t -> x^(big - small) t."""
    stages = [
        DGPresentation(
            XY,
            [OddGenerator("s", -1, 2), OddGenerator("t", -1, n)],
            {"s": P("x*y"), "t": P("x") ** n},
        )
        for n in (big, small)
    ]
    tgt = stages[1]
    factor = (P("x") ** (big - small)).cast_to(tgt.context)
    return DGMorphism(*stages, {"t": factor * tgt.generator("t")})


def test_induced_map_vanishes_matches_dense_oracle():
    towers = [[P("x^2")], [P("x*y")], [P("x^2+y^3")], [P("x"), P("y")]]
    maps = []
    for polys in towers:
        for big, small in ((1, 1), (2, 1), (3, 1), (3, 2)):
            tower = tower_map(XY, polys, big, small)
            maps += [("tower", tower), ("scaled", _scaled(tower))]
    # over the zero divisor x of Q[x,y]/(xy), presented derivedly
    for big, small in ((2, 1), (3, 1), (3, 2)):
        tower = _zero_divisor_tower(big, small)
        maps += [("tower", tower), ("scaled", _scaled(tower))]
    # rational towers: the stored matrices have denominators 1-12
    for text in ("1/2*x^2+2/3*y^3", "3/4*x*y", "x^2-1/3*x*y^2"):
        for big, small in ((2, 1), (3, 1), (3, 2)):
            maps.append(("rational", tower_map(XY, [P(text)], big, small)))
    seen = set()
    for kind, phi in maps:
        for w in (4, 5, 6):
            src_cx = weight_truncate(phi.source, w)
            tgt_cx = weight_truncate(phi.target, w)
            mats = morphism_matrices(phi, src_cx, tgt_cx, w)
            for n in src_cx.degrees():
                want = _pushed_cycles_are_boundaries(src_cx, tgt_cx, mats, n)
                got = induced_map_vanishes(src_cx, tgt_cx, mats, n)
                assert got == want, (kind, phi.source, phi.images, w, n)
                seen.add((kind, want))
    assert seen == {
        (kind, want)
        for kind in ("tower", "scaled", "rational")
        for want in (True, False)
    }

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc.algebra import GradedElement
from drcalc.dg import DGPresentation, OddGenerator, koszul_presentation
from drcalc.derham import (
    _WedgeSource,
    a1_invariance_check,
    amitsur_vs_derham,
    cartier_check,
    completion_fibre_report,
    conerve_totalization,
    cotangent_complex,
    derham_stage,
    free_presentation,
    hodge_graded,
    wedge_power,
)
from drcalc.errors import StructuralError
from drcalc.homology import weight_truncate
from drcalc.parse import parse_poly
from drcalc.poly import Poly

from oracles import (
    coface_totalization,
    conerve_basis,
    conerve_fraction_matrices,
    euler_field,
    euler_residue,
    fraction_cohomology,
)

X = ("x",)
XY = ("x", "y")


def P(text, ctx=XY):
    return parse_poly(ctx, text)


def fat_point():
    return koszul_presentation(X, [P("x^2", X)], 1)


def test_free_line_window_cohomology():
    st = derham_stage(free_presentation(X), 3, 6)
    assert st.complex().cohomology() == {0: 1, 1: 0}


def test_fat_point_plateau():
    # the Hodge cut at level 3 admits one extra degree-0 class from
    # weight 7 on; the window sees 1,1 then settles on 2
    dims = []
    for w in range(5, 11):
        st = derham_stage(fat_point(), 3, w)
        dims.append(st.complex().cohomology().get(0, 0))
    assert dims == [1, 1, 2, 2, 2, 2]
    rep6 = derham_stage(fat_point(), 3, 6).report()
    assert rep6.dims == ((-1, 0), (0, 1), (1, 0))
    assert not rep6.is_stable(0)
    rep7 = derham_stage(fat_point(), 3, 7).report()
    assert rep7.dim(0) == 2
    assert rep7.is_stable(0)


def test_weight_seven_cycle_escapes_through_hodge_cut():
    # the class behind the plateau jump: closed only because its total
    # differential lands entirely in form degree 4, above the cut
    st = derham_stage(fat_point(), 3, 7)
    ctx, total, hodge = st.truncation_data()
    assert hodge == range(4)  # columns 0..3
    g = lambda n: GradedElement.generator(ctx, n)
    x, t, dx, dt = g("x"), g("t"), g("dx"), g("dt")
    z = x * dt * dt * dt + (t * dx * dt * dt).scale(6)
    for exps in z.terms:
        assert ctx.weight_of(exps) == 7
        assert ctx.degree_of(exps) == 0
        assert ctx.hodge_of(exps) <= 3
    image = total(z)
    assert image
    for exps in image.terms:
        assert ctx.hodge_of(exps) == 4


def test_stage_dims_smooth_versus_fat():
    for f in ("x", "x^2"):
        pres = koszul_presentation(X, [P(f, X)], 1)
        h = derham_stage(pres, 3, 6).complex().cohomology()
        assert h == {-1: 0, 0: 1, 1: 0}


def test_stage_complex_at_weight_zero():
    # an explicit weight 0 is a weight, not "use the stage's own"
    stage = derham_stage(koszul_presentation(XY, [P("x*y")], 1), 3, 5)
    cx = stage.complex(0)
    assert cx.labels == weight_truncate(stage, 0).labels
    assert cx.labels != stage.complex().labels


@st.composite
def _stage_functions(draw):
    """f in 1-3 variables with f(0) = 0, linear terms allowed."""
    variables = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")]))
    exponents = st.tuples(*[st.integers(0, 3) for _ in variables]).filter(
        lambda e: 1 <= sum(e) <= 3
    )
    terms = draw(st.dictionaries(
        exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3
    ))
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]))
    return variables, Poly(variables, {e: c * scale for e, c in terms.items()})


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_stage_functions(), st.integers(4, 7))
def test_completed_stage_is_contracted_by_the_euler_homotopy(case, weight):
    # h = iota_E / (number of factors), iota_E sending dx_i to x_i and
    # dt to t: on a completed stage (K = W + 1) with D = d + delta,
    # id - pi - (Dh + hD) is what [delta, iota_E] leaves, dt -> f - E(f),
    # which strictly raises the number of factors; it is nilpotent on
    # the window, so the stage is Q in degree 0
    variables, f = case
    stage = derham_stage(koszul_presentation(variables, [f], 1), weight + 1, weight)
    ctx = stage.truncation_data()[0]
    cx = stage.complex(weight)
    residue = euler_residue(cx, ctx, euler_field(ctx, variables + ("t",)))
    for (n, key), vec in residue.items():
        assert all(sum(t) > sum(key) for t in vec), (str(f), weight, n, key)
    h = cx.cohomology()
    assert {n: dim for n, dim in h.items() if dim} == {0: 1}, (str(f), weight)


def test_stage_guards():
    with pytest.raises(StructuralError):
        derham_stage(fat_point(), 0, 6)


def test_stage_rejects_broken_differential():
    pres = DGPresentation(
        X,
        [OddGenerator("t", -1, 1), OddGenerator("s", -2, 1)],
        {"t": P("x", X)},
    )
    pres.images["s"] = GradedElement.generator(pres.context, "t")
    with pytest.raises(StructuralError):
        derham_stage(pres, 3, 6)


# ---------------------------------------------------------------------------
# cotangent complex


def test_cotangent_fat_point():
    rep = cotangent_complex(fat_point()).report(6)
    assert rep.dims == ((-2, 0), (-1, 1), (0, 1))
    assert all(flag for _, flag in rep.stable)


def test_cotangent_regular_pair_acyclic():
    pres = koszul_presentation(XY, [P("x"), P("y")], 1)
    rep = cotangent_complex(pres).report(6)
    assert all(d == 0 for _, d in rep.dims)


def test_cotangent_window_awareness():
    pres = koszul_presentation(XY, [P("x^4 + y^5 + y^4*x")], 1)
    rep = cotangent_complex(pres).report(6)
    # weight 6 is far below stabilization for a quartic; the report must
    # say so rather than present window dims as converged
    assert not all(flag for _, flag in rep.stable)


def test_wedge_square_basis():
    pres = koszul_presentation(XY, [P("x"), P("y")], 1)
    cx = wedge_power(cotangent_complex(pres), 2, 2)
    assert dict(cx.dims) == {0: 3, 1: 4, 2: 1}
    ctx = _WedgeSource(pres, 2).context
    names = [tuple(ctx.monomial_str(k) for k in cx.labels[n]) for n in (0, 2)]
    assert names[0] == ("dt2^2", "dt1*dt2", "dt1^2")
    assert names[1] == ("dx*dy",)


def test_wedge_guards():
    cot = cotangent_complex(fat_point())
    with pytest.raises(StructuralError):
        wedge_power(cot, -1, 4)
    with pytest.raises(StructuralError):
        hodge_graded(fat_point(), -2, 4)


# ---------------------------------------------------------------------------
# column versus wedge comparison


def test_cartier_sixteen_combinations():
    cases = [
        fat_point(),
        koszul_presentation(XY, [P("x"), P("y")], 1),
        koszul_presentation(XY, [P("x*y")], 1),
        koszul_presentation(XY, [P("x^2 + y^3")], 1),
    ]
    for pres in cases:
        for k in range(4):
            rep = cartier_check(pres, k, 6)
            assert rep.verdict == "equal", (pres.even, k, rep.verdicts)


def test_cartier_pinned_cusp_column():
    pres = koszul_presentation(XY, [P("x^2 + y^3")], 1)
    rep = cartier_check(pres, 2, 6)
    assert rep.graded_dims == ((-1, 0), (0, 1), (1, 3), (2, 2))
    assert rep.wedge_dims == rep.graded_dims
    assert rep.verdict_line() == "cartier k=2 verdict=equal"


# ---------------------------------------------------------------------------
# homotopy invariance


def test_a1_invariance_three_presentations():
    rep = a1_invariance_check(fat_point(), 6)
    assert rep.ok
    assert (-1, 0, 0) in rep.compared

    rep = a1_invariance_check(koszul_presentation(XY, [P("x"), P("y")], 1), 4)
    assert rep.ok
    assert (0, 1, 1) in rep.compared

    rep = a1_invariance_check(
        koszul_presentation(XY, [P("x^4 + y^5 + y^4*x")], 1), 6
    )
    assert rep.ok
    assert (0, 1, 1) in rep.compared
    assert rep.skipped  # high degrees not yet stable at this window


# ---------------------------------------------------------------------------
# fibre bookkeeping


def test_fibre_reports():
    cases = [
        (P("x^2", X), 3, 6, 4),
        (P("x", X), 3, 6, 7),
        (P("x^4 + y^5 + y^4*x"), 2, 5, 2),
    ]
    for f, k, w, power in cases:
        rep = completion_fibre_report(f, k, w)
        assert rep.deep_part_dim == 0
        assert rep.deep_power == power
        assert rep.euler_ambient == 1
        assert rep.euler_stage == 1
        assert rep.additivity


def test_fibre_report_format():
    text = completion_fibre_report(P("x^2", X), 3, 6).format()
    assert "deep-intersection dim=0 (f^4 clears the window)" in text
    assert "euler ambient=1 stage=1 additivity=true" in text
    assert text.splitlines()[0] == "ambient H^{0} dim=1"


def test_fibre_rejects_zero():
    with pytest.raises(StructuralError):
        completion_fibre_report(P("0", X), 3, 6)


# ---------------------------------------------------------------------------
# conerve totalization


def test_conerve_totalization_shape():
    # the unit, then the triples of non-unit keys of weight at most 4
    f = P("x^2", X)
    tot = conerve_totalization(X, f, 2, 4)
    assert dict(tot.dims) == {0: 1, 1: 3, 2: 4}
    ctx = koszul_presentation(X, [f], 1).context
    labels = {
        n: [
            f"p{p}:" + "|".join(ctx.monomial_str(k) for k in slots)
            for p, slots in keys
        ]
        for n, keys in tot.labels.items()
    }
    assert labels == {
        0: ["p0:1"],
        1: ["p2:t|x|x", "p2:x|t|x", "p2:x|x|t"],
        2: ["p2:x|x|x", "p2:x|x|x^2", "p2:x|x^2|x", "p2:x^2|x|x"],
    }
    assert tot.cohomology() == {0: 1, 1: 0, 2: 1}


def test_conerve_is_the_unit_when_the_last_column_is_empty():
    # p_max + 1 non-unit slots weigh at least p_max + 1, so at W <= p_max
    # the retract is the unit alone, however large the whole conerve
    # (826,805 keys for x*y at p_max 10, W 10)
    for f, p_max in (("x*y", 10), ("x^2+y^3", 6)):
        tot = conerve_totalization(XY, P(f), p_max, p_max)
        assert tot.dims == {0: 1}
        assert tot.cohomology() == {0: 1}


@pytest.mark.parametrize("variables,f,p_max,weight", [
    (X, "x^2", 3, 6),
    (XY, "x*y", 3, 5),
    (XY, "3/2*x^2+x*y^2", 3, 6),
    (XY, "x*y+x", 2, 6),
    (("x", "y", "z"), "x*y+1/2*z^2", 3, 5),
    (XY, "x*y", 4, 5),
])
def test_extra_codegeneracy_retracts_onto_unit_and_last_column(
    variables, f, p_max, weight
):
    # on the oracle's whole normalized conerve, h(p, (1, k1..kp)) =
    # (p-1, (k1..kp)) satisfies dh + hd = id - phi, where phi keeps the
    # unit and the keys of column p_max whose slot 0 is not the unit
    f = P(f, variables)
    unit = (0,) * (len(variables) + 1)
    labels = conerve_basis(variables, f, p_max, weight)
    mats = conerve_fraction_matrices(variables, f, p_max, weight, labels)
    d = {key: {} for keys in labels.values() for key in keys}
    for n, entries in mats.items():
        for (r, c), v in entries.items():
            d[labels[n][c]][labels[n + 1][r]] = v

    def h(key):
        p, slots = key
        return {(p - 1, slots[1:]): 1} if p and slots[0] == unit else {}

    def apply(op, vec, out):
        for key, v in vec.items():
            for image, w in op(key).items():
                out[image] = out.get(image, 0) + v * w
        return out

    for key in d:
        p, slots = key
        kept = slots == (unit,) or (p == p_max and slots[0] != unit)
        got = apply(h, d[key], apply(d.get, h(key), {}))
        got = {k: v for k, v in got.items() if v}
        assert got == ({} if kept else {key: 1}), key


@st.composite
def _hypersurfaces(draw):
    variables = draw(st.sampled_from([X, XY]))
    exponents = st.tuples(*[st.integers(0, 3) for _ in variables]).filter(
        lambda e: 1 <= sum(e) <= 3
    )
    terms = draw(st.dictionaries(
        exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=3
    ))
    scale = draw(st.sampled_from([Fraction(1), Fraction(3, 2)]))
    return variables, Poly(variables, {e: c * scale for e, c in terms.items()})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_hypersurfaces(), st.integers(0, 4), st.integers(2, 3))
def test_normalized_conerve_matches_disjoint_copies(case, weight, p_max):
    # the retract has the cohomology of the whole normalized conerve in
    # every degree, and that of the full cosimplicial totalization in
    # every degree the column cut leaves alone
    variables, f = case
    got = conerve_totalization(variables, f, p_max, weight).cohomology()
    labels = conerve_basis(variables, f, p_max, weight)
    whole = fraction_cohomology(
        labels, conerve_fraction_matrices(variables, f, p_max, weight, labels)
    )
    for n in set(got) | set(whole):
        assert got.get(n, 0) == whole.get(n, 0), (str(f), weight, p_max, n)
    want = coface_totalization(variables, f, p_max, weight).cohomology()
    for n in range(p_max - 1):
        assert got.get(n, 0) == want.get(n, 0), (str(f), weight, p_max, n)


def test_amitsur_matches_stage_fat_point():
    rep = amitsur_vs_derham(P("x^2", X), 3, 3, 6)
    assert all(v == "equal" for _, v in rep.verdicts)
    assert rep.trusted_degrees == (0, 1)
    assert rep.amitsur_dims == ((0, 1), (1, 0))
    assert rep.derham_dims == ((0, 1), (1, 0))


def test_amitsur_matches_stage_node():
    rep = amitsur_vs_derham(P("x*y"), 4, 3, 5)
    assert all(v == "equal" for _, v in rep.verdicts)
    assert rep.trusted_degrees == (0, 1, 2)
    lines = rep.format().splitlines()
    assert lines[0] == "n=0 amitsur=1 derham=1 verdict=equal"
    assert lines[-1] == "n=2 amitsur=0 derham=0 verdict=equal"


@pytest.mark.xfail(
    strict=True,
    reason="amitsur_vs_derham ignores derham_stable (ROADMAP item 1)",
)
def test_amitsur_unstable_degree_is_inconclusive():
    # the stage is unstable in degree 1 between W = 5 and W = 6, so the
    # comparison there proves nothing and must not read "equal"
    rep = amitsur_vs_derham(P("x^2+y^3"), 3, 3, 5)
    assert dict(rep.derham_stable)[1] is False
    assert dict(rep.verdicts)[1] == "inconclusive"


def test_amitsur_guards():
    with pytest.raises(StructuralError):
        amitsur_vs_derham(P("x^2", X), 1, 3, 6)
    with pytest.raises(StructuralError):
        amitsur_vs_derham(P("0", X), 3, 3, 6)

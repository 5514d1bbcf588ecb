import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from drcalc import dg
from drcalc.algebra import GradedElement
from drcalc.dg import (
    DGMorphism,
    DGPresentation,
    OddGenerator,
    koszul_presentation,
    presentation_check,
    tower_map,
)
from drcalc.errors import StructuralError
from drcalc.homology import chain_map_check
from drcalc.parse import parse_poly
from drcalc.poly import Poly

from oracles import conerve_cofaces, conerve_presentation

XY = ("x", "y")
X = ("x",)


def P(text, ctx=XY):
    return parse_poly(ctx, text)


def test_koszul_single_square():
    pres = koszul_presentation(X, [P("x^2", X)], 1)
    assert [g.name for g in pres.odd] == ["t"]
    assert pres.odd[0].degree == -1
    assert pres.odd[0].weight == 2
    img = pres.images["t"]
    assert str(img) == "x^2"


def test_koszul_power_raises_boundary():
    pres = koszul_presentation(X, [P("x", X)], 2)
    assert str(pres.images["t"]) == "x^2"
    assert pres.odd[0].weight == 2  # n * min_degree(f)


def test_koszul_two_generators():
    pres = koszul_presentation(XY, [P("x"), P("y")], 1)
    assert [g.name for g in pres.odd] == ["t1", "t2"]
    assert str(pres.images["t1"]) == "x"
    assert str(pres.images["t2"]) == "y"


def test_koszul_reiffen():
    pres = koszul_presentation(XY, [P("x^4 + y^5 + y^4*x")], 1)
    assert pres.odd[0].weight == 4
    assert presentation_check(pres).ok


def test_koszul_rejects_zero():
    with pytest.raises(StructuralError):
        koszul_presentation(XY, [Poly.zero(XY)], 1)


def test_presentation_check_passes_good():
    # d^2 and weights only: the sign rule belongs to the algebra kernel,
    # see test_graded_commutativity_spot_checks and test_algebra's
    # test_mul_exps_sign_is_inversion_parity
    for pres in (
        koszul_presentation(XY, [P("x*y")], 3),
        koszul_presentation(XY, [P("x"), P("y")], 1),
        koszul_presentation(XY, [P("x^4 + y^5 + y^4*x")], 2),
    ):
        report = presentation_check(pres)
        assert report.ok, report.failures


def test_presentation_check_catches_bad_square():
    # two odd generators where d(s) = t is degree-legal but d^2 != 0
    pres = DGPresentation(
        X,
        [OddGenerator("t", -1, 1), OddGenerator("s", -2, 1)],
        {"t": P("x", X), "s": None},
    )
    # build d(s) = t by hand
    pres.images["s"] = GradedElement.generator(pres.context, "t")
    report = presentation_check(pres)
    assert not report.ok
    assert any("d^2" in msg or "square" in msg for msg in report.failures)


def test_presentation_check_catches_weight_drop():
    pres = DGPresentation(
        X, [OddGenerator("t", -1, 5)], {"t": P("x", X)}
    )
    report = presentation_check(pres)
    assert not report.ok


def test_graded_commutativity_spot_checks():
    pres = koszul_presentation(XY, [P("x"), P("y")], 1)
    ctx = pres.context
    rng = random.Random(0)
    names = ["x", "y", "t1", "t2"]
    for _ in range(100):
        a = GradedElement.generator(ctx, rng.choice(names))
        b = GradedElement.generator(ctx, rng.choice(names))
        da = ctx.degree_of(next(iter(a.terms)))
        db = ctx.degree_of(next(iter(b.terms)))
        s = (-1) ** (da * db)
        assert a * b == (b * a).scale(s)


def test_odd_squares_vanish():
    pres = koszul_presentation(XY, [P("x"), P("y")], 1)
    ctx = pres.context
    t1 = GradedElement.generator(ctx, "t1")
    assert not (t1 * t1)


def test_boundary_leibniz():
    pres = koszul_presentation(XY, [P("x*y")], 2)
    d = pres.boundary()
    ctx = pres.context
    t = GradedElement.generator(ctx, "t")
    x = GradedElement.generator(ctx, "x")
    assert d(x * t) == x * d(t)
    assert not d(d(t))


# ---------------------------------------------------------------------------
# towers


def test_tower_map_images():
    m = tower_map(XY, [P("x*y")], 3, 1)
    assert str(m.images["t"]) == "x^2*y^2*t"
    assert m.commutes_on_generators() is None


def test_tower_requires_descent():
    with pytest.raises(StructuralError):
        tower_map(XY, [P("x*y")], 1, 2)


def test_tower_coherence_small_levels():
    # N -> n -> m equals N -> m for all 1 <= m < n < N <= 4
    polys = [P("x^2 + y^3")]
    for big in range(1, 5):
        for mid in range(1, big):
            for small in range(1, mid):
                two_step = tower_map(XY, polys, mid, small).compose(
                    tower_map(XY, polys, big, mid)
                )
                direct = tower_map(XY, polys, big, small)
                for g in direct.source.odd:
                    assert two_step.images[g.name] == direct.images[g.name]


def test_tower_chain_map_at_window():
    m = tower_map(XY, [P("x"), P("y")], 2, 1)
    assert chain_map_check(m, 6).ok


# ---------------------------------------------------------------------------
# conerve cofaces (the disjoint-copies model of the test oracle)

CONERVE_CASES = ((X, P("x^2", X)), (XY, P("x*y")))


def test_coface_count_and_targets():
    for variables, f in CONERVE_CASES:
        for p in (1, 2, 3):
            cofaces = conerve_cofaces(variables, f, p)
            assert len(cofaces) == p + 1
            for coface in cofaces:
                assert coface.source == conerve_presentation(variables, f, p - 1)
                assert coface.target == conerve_presentation(variables, f, p)
                assert coface.commutes_on_generators() is None


def test_cosimplicial_identities():
    # d^j d^i = d^i d^(j-1) for i < j, checked on every generator (the
    # variable copies as well as the odd ones) at levels 1..3
    for variables, f in CONERVE_CASES:
        for p in range(1, 4):
            here = conerve_cofaces(variables, f, p)
            above = conerve_cofaces(variables, f, p + 1)
            for i in range(p + 1):
                for j in range(i + 1, p + 2):
                    left = above[j].compose(here[i])
                    right = above[i].compose(here[j - 1])
                    assert left.images == right.images, (f, p, i, j)


# ---------------------------------------------------------------------------
# morphisms


def test_morphism_defaults_and_products():
    pres = koszul_presentation(XY, [P("x*y")], 1)
    ident = DGMorphism(pres, pres, {})
    ctx = pres.context
    t = GradedElement.generator(ctx, "t")
    x = GradedElement.generator(ctx, "x")
    assert ident.apply(x * t) == x * t


def test_morphism_detects_noncommuting():
    pres2 = koszul_presentation(XY, [P("x*y")], 2)
    pres1 = koszul_presentation(XY, [P("x*y")], 1)
    ctx = pres1.context
    bad = DGMorphism(pres2, pres1, {"t": GradedElement.generator(ctx, "t")})
    assert bad.commutes_on_generators() == "t"


def test_derham_modules_do_not_load_groebner():
    # presentations are free: Groebner bases serve the ideal commands only
    src = Path(dg.__file__).resolve().parents[1]
    code = (
        "import sys, drcalc.derham, drcalc.reiffen, drcalc.presfile; "
        "print('drcalc.groebner' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"

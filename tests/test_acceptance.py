"""End-to-end acceptance battery.

One test per headline guarantee, each printing a single verdict line;
run with ``pytest -v tests/test_acceptance.py`` to see them
individually.  Stated runtime ceilings are asserted, not just hoped
for.
"""

import random
import time
from fractions import Fraction

from drcalc import cli, elim
from drcalc.derham import (
    a1_invariance_check,
    amitsur_vs_derham,
    cartier_check,
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
)
from drcalc.groebner import (
    MonomialOrder,
    annihilator_chain,
    buchberger,
    normal_form,
)
from drcalc.homology import (
    chain_map_check,
    induced_map_vanishes,
    morphism_matrices,
    restricted_report,
    weight_truncate,
)
from drcalc.parse import parse_poly
from drcalc.poly import Poly
from drcalc.reiffen import (
    classical_stalk_cohomology,
    divergence_feasible,
    divergence_system,
    family_member,
)
from drcalc.witness import nonexactness_witness, zero_free_window

from oracles import flat_entries, float64_lower_bound, gauss_rank

X = ("x",)
XY = ("x", "y")


def P(text, ctx=XY):
    return parse_poly(ctx, text)


def reiffen():
    return P("x^4 + y^5 + y^4*x")


def _row_as_labels(system, r):
    row = {system.unknown_labels[j][0]: c for j, c in system.rows[r]}
    return row, system.rhs[r]


def _contains_row_up_to_scaling(system, wanted, wanted_rhs):
    for r in range(len(system.rows)):
        row, rhs = _row_as_labels(system, r)
        if set(row) != set(wanted):
            continue
        anchor = next(iter(wanted))
        scale = row[anchor] / wanted[anchor]
        if all(row[k] == scale * v for k, v in wanted.items()) and rhs == scale * wanted_rhs:
            return True
    return False


def test_criterion_01_divergence_refutation(capsys):
    started = time.monotonic()
    verdict = divergence_feasible(reiffen(), degree_bound=8)
    assert verdict.status == "infeasible"
    code = cli.main(
        ["reiffen", "check", "--vars", "x,y", "--f", "x^4+y^5+y^4*x",
         "--degree", "8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict=infeasible" in out

    system = divergence_system(reiffen(), Poly.const(XY, 1), 5)
    one = Fraction(1)
    assert _contains_row_up_to_scaling(
        system, {"A10": Fraction(5), "B01": one}, one
    )
    assert _contains_row_up_to_scaling(
        system, {"A10": one, "B01": Fraction(6)}, one
    )
    assert _contains_row_up_to_scaling(
        system, {"A10": Fraction(2), "B01": Fraction(5)}, one
    )
    assert _contains_row_up_to_scaling(system, {"A00": Fraction(4)}, Fraction(0))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"criterion 1: refutation with pinned rows pass ({elapsed:.2f}s)")


def test_criterion_02_family_scan_with_independent_oracle():
    started = time.monotonic()
    for q, p in ((4, 5), (4, 6), (5, 6), (5, 7)):
        f = family_member(q, p)
        bound = p + 4
        verdict = divergence_feasible(f, degree_bound=bound)
        assert verdict.status == "infeasible", (q, p)

        system = divergence_system(f, Poly.const(XY, 1), bound)
        dense = [[Fraction(0)] * system.unknown_count for _ in system.rows]
        for r, row in enumerate(system.rows):
            for j, c in row:
                dense[r][j] = c
        plain = gauss_rank(dense)
        augmented = gauss_rank(
            [row + [b] for row, b in zip(dense, system.rhs)]
        )
        assert augmented == plain + 1, (q, p)

        acc = {}
        rhs = Fraction(0)
        for lam, row, b in zip(verdict.certificate, system.rows, system.rhs):
            rhs += lam * b
            for j, c in row:
                acc[j] = acc.get(j, Fraction(0)) + lam * c
        assert all(c == 0 for c in acc.values()) and rhs == 1, (q, p)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 2: family refuted, oracle agrees pass ({elapsed:.2f}s)")


def test_criterion_03_stalk_obstruction():
    rep = classical_stalk_cohomology([reiffen()], 9)
    assert rep.dim(1) >= 1
    assert rep.is_stable(1)
    control = classical_stalk_cohomology([P("x", X)], 6)
    assert control.dim(1) == 0
    assert control.is_stable(1) or control.is_stable(1) is None
    print("criterion 3: stalk obstruction pass")


def test_criterion_04_graded_comparison():
    cases = (
        koszul_presentation(X, [P("x^2", X)], 1),
        koszul_presentation(XY, [P("x"), P("y")], 1),
        koszul_presentation(XY, [P("x*y")], 1),
        koszul_presentation(XY, [P("x^2 + y^3")], 1),
    )
    for pres in cases:
        cot = cotangent_complex(pres)
        for k in range(4):
            graded = restricted_report(lambda w: hodge_graded(pres, k, w), 6)
            wedge = restricted_report(lambda w: wedge_power(cot, k, w), 6)
            assert graded.dims == wedge.dims, (pres.even, k)
            assert graded.stable == wedge.stable, (pres.even, k)
            rep = cartier_check(pres, k, 6)
            assert rep.verdict == "equal", (pres.even, k)
            assert rep.graded_dims == wedge.dims
    print("criterion 4: graded pieces match wedge powers pass")


def test_criterion_05_regular_sequence_acyclic():
    pres = koszul_presentation(XY, [P("x"), P("y")], 1)
    for weight in range(1, 9):
        dims = weight_truncate(pres, weight).cohomology()
        assert dims.get(-1, 0) == 0, weight
        assert dims.get(-2, 0) == 0, weight
    print("criterion 5: regular-sequence acyclicity pass")


def _zero_divisor_stage(n):
    """Q[x,y]/(xy), derived: d s = xy, with x^n bounded by d t = x^n."""
    odd = [OddGenerator("s", -1, 2), OddGenerator("t", -1, n)]
    return DGPresentation(XY, odd, {"s": P("x*y"), "t": P("x") ** n})


def _zero_divisor_tower(big, small):
    """The transition s -> s, t -> x^(big - small) t."""
    src, tgt = _zero_divisor_stage(big), _zero_divisor_stage(small)
    factor = (P("x") ** (big - small)).cast_to(tgt.context)
    images = {"s": tgt.generator("s"), "t": factor * tgt.generator("t")}
    return DGMorphism(src, tgt, images)


def test_criterion_06_pro_zero_tower_over_zero_divisor():
    relation = P("x*y")
    chain = annihilator_chain([relation], P("x"), 4)
    for gb in chain.colon_bases:
        assert [str(g) for g in gb.gens] == ["y"]
    assert chain.stabilized_at == 1

    phi = _zero_divisor_tower(2, 1)
    assert phi.commutes_on_generators() is None
    assert chain_map_check(phi, 6).ok
    src_cx = weight_truncate(phi.source, 6)
    tgt_cx = weight_truncate(phi.target, 6)
    h = src_cx.cohomology()
    assert h.get(-1, 0) > 0  # there is something to kill
    # xy is a nonzerodivisor, so s resolves the strict quotient: its
    # weight-graded H is the one Q[x,y]/(xy) gives at the same stage
    assert {n: dim for n, dim in h.items() if dim} == {-1: 4, 0: 8}
    mats = morphism_matrices(phi, src_cx, tgt_cx, 6)
    assert induced_map_vanishes(src_cx, tgt_cx, mats, -1)
    print("criterion 6: tower kills H^-1 over the zero-divisor pass")


def test_criterion_07_descent_comparison():
    started = time.monotonic()
    rep = amitsur_vs_derham(P("x^2", X), 3, 3, 6)
    assert all(v == "equal" for _, v in rep.verdicts)
    assert rep.amitsur_dims == ((0, 1), (1, 0))
    assert rep.derham_dims == ((0, 1), (1, 0))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"criterion 7: descent completion matches stage pass ({elapsed:.2f}s)")


def test_criterion_08_homotopy_invariance():
    for pres in (
        free_presentation(X),
        koszul_presentation(X, [P("x^2", X)], 1),
        koszul_presentation(XY, [reiffen()], 1),
    ):
        rep = a1_invariance_check(pres, 6, 3)
        assert rep.ok, pres.even
    print("criterion 8: free-variable invariance pass")


def test_criterion_09_derived_poincare_lemma():
    for f in ("x", "x^2"):
        pres = koszul_presentation(X, [P(f, X)], 1)
        rep = derham_stage(pres, 3, 6).report()
        assert rep.dim(0) == 1, f
        for degree, dim in rep.dims:
            if degree != 0 and rep.is_stable(degree):
                assert dim == 0, (f, degree)
    print("criterion 9: derived Poincare lemma pass")


def test_criterion_10_log_domain_witness():
    rep = nonexactness_witness(3)
    assert all(e.verdict == "positive" for e in rep.entries)
    logs = [entry.bound.log for entry in rep.entries]
    assert logs[0] >= logs[1] >= logs[2]
    lo, hi = zero_free_window(3)
    assert float64_lower_bound(lo, hi) == 0.0  # binary64 underflows
    assert rep.entries[2].bound.sign == "positive"  # log domain does not
    print("criterion 10: high-precision positivity witness pass")


def _square_is_zero(cx):
    degrees = sorted(cx.dims)
    for n in degrees:
        first = flat_entries(cx.diffs.get(n, {}))
        second = flat_entries(cx.diffs.get(n + 1, {}))
        by_col = {}
        for (r, c), v in first.items():
            by_col.setdefault(c, []).append((r, v))
        for c, col in by_col.items():
            acc = {}
            for mid, v in col:
                for (r2, c2), w in second.items():
                    if c2 == mid:
                        acc[r2] = acc.get(r2, Fraction(0)) + w * v
            assert all(val == 0 for val in acc.values())
    return True


def test_criterion_11_engine_invariant_suite():
    # square-zero, re-verified by explicit sparse composition
    catalogue = [
        weight_truncate(koszul_presentation(X, [P("x^2", X)], 1), 6),
        weight_truncate(koszul_presentation(XY, [P("x"), P("y")], 1), 5),
        weight_truncate(koszul_presentation(XY, [reiffen()], 1), 6),
        derham_stage(koszul_presentation(X, [P("x^2", X)], 1), 3, 6).complex(),
        derham_stage(koszul_presentation(XY, [P("x*y")], 1), 2, 5).complex(),
        cotangent_complex(koszul_presentation(X, [P("x^2", X)], 1)).complex(6),
        derham_stage(free_presentation(XY), 2, 5).complex(),
    ]
    for cx in catalogue:
        assert _square_is_zero(cx)

    # Leibniz identity on random homogeneous pairs
    stage = derham_stage(koszul_presentation(XY, [reiffen()], 1), 3, 8)
    ctx, total, _ = stage.truncation_data()
    from drcalc.algebra import GradedElement

    rng = random.Random(17)
    gens = list(ctx.gens)
    for _ in range(100):
        def monomial():
            exps = [0] * len(gens)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(gens))
                cap = 1 if gens[i].degree % 2 else 3
                exps[i] = min(exps[i] + 1, cap)
            return GradedElement.monomial(
                ctx, tuple(exps), Fraction(rng.randint(1, 5))
            )

        a = monomial()
        b = monomial()
        deg = ctx.degree_of(next(iter(a.terms)))
        sign = -1 if deg % 2 else 1
        lhs = total(a * b)
        rhs = total(a) * b + (a * total(b)).scale(sign)
        assert lhs == rhs

    # exact rank against a plain Gaussian oracle
    for trial in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [
            [Fraction(rng.randint(-4, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        sparse = {
            r: {c: v for c, v in enumerate(row) if v}
            for r, row in enumerate(mat)
            if any(row)
        }
        assert elim.rank_sparse(sparse, rows, cols) == gauss_rank(mat), trial

    # order-independence of ideal membership
    for trial in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = (rng.randint(0, 3), rng.randint(0, 3))
                terms[exps] = Fraction(rng.randint(-3, 3))
            poly = Poly(XY, {e: c for e, c in terms.items() if c})
            if poly:
                gens.append(poly)
        if not gens:
            continue
        grevlex = buchberger(gens, MonomialOrder("grevlex"))
        lex = buchberger(gens, MonomialOrder("lex"))
        for g in grevlex.gens:
            assert not normal_form(g, lex.gens, lex.order).terms, trial
        for g in lex.gens:
            assert not normal_form(g, grevlex.gens, grevlex.order).terms, trial
    print("criterion 11: engine invariants pass")

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc import cli, elim
from drcalc import reiffen as reiffen_module
from drcalc.errors import StructuralError
from drcalc.parse import parse_poly
from drcalc.poly import Poly
from drcalc.derham import DeRhamStage, derham_stage, free_presentation
from drcalc.homology import weight_truncate
from drcalc.reiffen import (
    DEFAULT_UNKNOWN_CAP,
    SOUNDNESS_NOTE,
    classical_stalk_cohomology,
    divergence_feasible,
    divergence_system,
    euler_witness,
    family_member,
    family_scan,
    quotient_by_sequence,
)

from oracles import (
    divergence_equations,
    euler_field,
    euler_residue,
    gauss_rank,
    local_colength,
    partial,
    pinned_equations,
    reference_quotient,
    stalk_span,
    two_build_stalk,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
X = ("x",)


def P(text, ctx=XY):
    return parse_poly(ctx, text)


def reiffen():
    return P("x^4 + y^5 + y^4*x")


# ---------------------------------------------------------------------------
# the divergence system itself


def row_text(system, r):
    """Row r of a divergence system as text, e.g. ``5*A10 +B01 = 1``."""
    parts = []
    for j, c in system.rows[r]:
        label = system.unknown_labels[j][0]
        if c == 1:
            parts.append(f"+{label}")
        elif c == -1:
            parts.append(f"-{label}")
        else:
            parts.append(f"{'+' if c > 0 else ''}{c}*{label}")
    lhs = " ".join(parts).lstrip("+") or "0"
    return f"{lhs} = {system.rhs[r]}"


def test_quintic_bound_system_rows():
    sys5 = divergence_system(reiffen(), P("1"), 5)
    assert sys5.unknown_count == 12
    texts = {sys5.row_monomials[r]: row_text(sys5, r) for r in range(len(sys5.rows))}
    assert texts[(3, 0)] == "4*A00 = 0"
    assert texts[(4, 0)] == "5*A10 +B01 = 1"
    assert texts[(0, 5)] == "A10 +6*B01 = 1"
    assert texts[(1, 4)] == "2*A10 +5*B01 = 1"
    # the pins feeding those rows
    assert texts[(3, 1)] == "4*A01 = 0"
    assert texts[(2, 3)] == "4*B10 = 0"
    assert len(texts) == 10


def test_zero_propagation_isolates_pinned_unknowns():
    # a pinned-to-zero coefficient appears only in its pinning row
    sys5 = divergence_system(reiffen(), P("1"), 5)
    label_pos = {lab: j for j, (lab, _, _) in enumerate(sys5.unknown_labels)}
    for pinned in ("A00", "A01", "B00", "B10"):
        j = label_pos[pinned]
        hits = [r for r, row in enumerate(sys5.rows) if any(k == j for k, _ in row)]
        assert len(hits) == 1
        assert sys5.rhs[hits[0]] == 0
        assert len(sys5.rows[hits[0]]) == 1


def test_hand_certificate_on_named_rows():
    # 7 r(x^4) + 23 r(y^5) - 29 r(y^4 x) cancels every unknown and sums
    # the right-hand sides to 1: an explicit proof of infeasibility
    sys5 = divergence_system(reiffen(), P("1"), 5)
    pos = {m: r for r, m in enumerate(sys5.row_monomials)}
    mult = {pos[(4, 0)]: 7, pos[(0, 5)]: 23, pos[(1, 4)]: -29}
    acc = {}
    rhs = Fraction(0)
    for r, lam in mult.items():
        rhs += lam * sys5.rhs[r]
        for j, c in sys5.rows[r]:
            acc[j] = acc.get(j, Fraction(0)) + lam * c
    assert all(c == 0 for c in acc.values())
    assert rhs == 1


def test_returned_certificate_verifies():
    verdict = divergence_feasible(reiffen(), degree_bound=8)
    assert verdict.status == "infeasible"
    assert not verdict
    assert verdict.note == SOUNDNESS_NOTE
    system = verdict.system
    acc = {}
    rhs = Fraction(0)
    for lam, row, b in zip(verdict.certificate, system.rows, system.rhs):
        rhs += lam * b
        for j, c in row:
            acc[j] = acc.get(j, Fraction(0)) + lam * c
    assert all(c == 0 for c in acc.values())
    assert rhs == 1


def test_refutation_survives_refinement():
    for bound in (5, 6, 7, 8):
        assert divergence_feasible(reiffen(), degree_bound=bound).status == "infeasible"


def test_feasible_witness_satisfies_equation():
    verdict = divergence_feasible(P("x^2 + y^2"), degree_bound=6)
    assert verdict.status == "feasible"
    assert verdict
    hx, hy = verdict.witness
    assert str(hx) == "1/4*x"
    assert str(hy) == "1/4*y"
    f = P("x^2 + y^2")
    residual = f - (f * hx).partial(0) - (f * hy).partial(1)
    assert not residual


def test_feasible_witness_general_source():
    f = P("x*y")
    g = P("x + y")
    verdict = divergence_feasible(f, g, degree_bound=6)
    assert verdict.status == "feasible"
    residual = f * g
    for i, h in enumerate(verdict.witness):
        residual = residual - (f * h).partial(i)
    assert all(sum(m) > 6 for m in residual.terms)


def test_agrees_with_rank_oracle_on_family_systems():
    # independent decision procedure: infeasible iff augmenting the
    # right-hand side raises the rank
    for q, p in [(4, 5), (4, 6), (5, 6)]:
        f = family_member(q, p)
        system = divergence_system(f, Poly.const(XY, 1), p + 4)
        dense = [[Fraction(0)] * system.unknown_count for _ in system.rows]
        for r, row in enumerate(system.rows):
            for j, c in row:
                dense[r][j] = c
        plain = gauss_rank(dense)
        augmented = gauss_rank(
            [row + [b] for row, b in zip(dense, system.rhs)]
        )
        verdict = divergence_feasible(f, degree_bound=p + 4)
        assert (verdict.status == "infeasible") == (augmented > plain)
        assert verdict.status == "infeasible"


_coeff = st.builds(
    Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)
)


# supports of x^q + y^p + x*y^(p-1): for any nonzero coefficients the
# constant source is obstructed from degree p on
_OBSTINATE = [((4, 0), (1, 4), (0, 5)), ((4, 0), (1, 5), (0, 6))]


@st.composite
def _divergence_inputs(draw):
    """(f, g, D): f with no unit part in 1-3 variables, D <= 10.

    Half the plane curves are obstinate, with a source that has a
    constant term, so both verdicts occur.
    """
    n = draw(st.integers(1, 3))
    variables = ("x", "y", "z")[:n]
    exps = st.tuples(*[st.integers(0, 3)] * n)
    f = draw(st.dictionaries(
        exps.filter(lambda e: sum(e) >= 1), _coeff, min_size=1, max_size=4
    ))
    g = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n), _coeff, max_size=3
    ))
    degree = draw(st.integers(0, 10 if n < 3 else 5))
    if n == 2 and draw(st.booleans()):
        f = {m: draw(_coeff) for m in draw(st.sampled_from(_OBSTINATE))}
        g[0, 0] = draw(_coeff)
        degree = draw(st.integers(4, 10))
    return Poly(variables, f), Poly(variables, g), degree


def _assert_rows_match(system, equations):
    """Reported rows against the raw equations of the oracle.

    Every reported entry and right-hand side is the raw one, and every
    raw entry left out is pinned to zero by its own one-entry row.
    Returns the unknowns as ``(i, e)`` pairs, in column order.
    """
    unknowns = list(system.unknowns)
    oracle_unknowns = {u for coeffs, _ in equations.values() for u in coeffs}
    assert oracle_unknowns <= set(unknowns)
    reported = dict(zip(system.row_monomials, zip(system.rows, system.rhs)))
    assert set(reported) <= set(equations)
    pinned = {
        row[0][0] for row, b in zip(system.rows, system.rhs)
        if len(row) == 1 and not b
    }
    for m, (coeffs, b) in equations.items():
        row, value = reported.get(m, ((), Fraction(0)))
        assert value == b
        got = {unknowns[j]: c for j, c in row}
        # every reported entry is the raw coefficient ...
        assert all(coeffs.get(u) == c for u, c in got.items())
        # ... and every raw entry left out is pinned to zero by its own row
        for u in set(coeffs) - set(got):
            assert unknowns.index(u) in pinned
    return unknowns


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_divergence_inputs())
def test_system_matches_the_poly_oracle(case):
    f, g, degree = case
    system = divergence_system(f, g, degree)
    equations = divergence_equations(f, g, degree)
    unknowns = _assert_rows_match(system, equations)
    assert [(i, e) for _, i, e in system.unknown_labels] == unknowns
    oracle_unknowns = sorted(
        {u for coeffs, _ in equations.values() for u in coeffs}
    )
    # feasible exactly when b is in the column span of the raw system
    dense = [
        [coeffs.get(u, Fraction(0)) for u in oracle_unknowns] + [b]
        for coeffs, b in equations.values()
    ]
    plain = gauss_rank([r[:-1] for r in dense])
    augmented = gauss_rank(dense)
    tag, _ = elim.solve_rational(
        system.integer_rows, system.integer_rhs, system.unknown_count
    )
    assert (tag == "infeasible") == (augmented > plain)


# degree bounds at which the packed monomial code's field width changes
_WIDTH_STEPS = (0, 1, 3, 4, 7, 8, 15, 16, 31, 32)


@st.composite
def _packed_inputs(draw, degree):
    """(f, g): f reaching past the degree bound D.

    f has a low term of degree 1-3, a pure power of one variable of
    degree above D (so every other variable has a zero exponent there),
    and up to two more terms with exponents up to D + 3.
    """
    n = draw(st.integers(1, 3 if degree <= 8 else 2))
    variables = ("x", "y", "z")[:n]
    low = [0] * n
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
        low[i] += 1
    high = [0] * n
    high[draw(st.integers(0, n - 1))] = degree + draw(st.integers(1, 3))
    f = {tuple(low): draw(_coeff), tuple(high): draw(_coeff)}
    f.update(draw(st.dictionaries(
        st.tuples(*[st.integers(0, degree + 3)] * n).filter(any),
        _coeff, max_size=2,
    )))
    g = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n), _coeff, max_size=3
    ))
    return Poly(variables, f), Poly(variables, g)


@pytest.mark.parametrize("degree", _WIDTH_STEPS)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_packed_build_matches_the_poly_oracle(degree, data):
    f, g = data.draw(_packed_inputs(degree))
    system = divergence_system(f, g, degree)
    unknowns = _assert_rows_match(
        system, divergence_equations(f, g, degree)
    )
    # the ordering contract: unknowns newest first, then by variable
    # and lex; rows by degree, then lex; entries by ascending column
    n = len(f.context)
    h_bound = degree - f.min_degree() + 1
    exponents = [
        e for e in itertools.product(range(max(h_bound, -1) + 1), repeat=n)
        if sum(e) <= h_bound
    ]
    assert unknowns == sorted(
        ((i, e) for e in exponents for i in range(n)),
        key=lambda u: (-sum(u[1]), u[0], u[1]),
    )
    monomials = list(system.row_monomials)
    assert monomials == sorted(set(monomials), key=lambda m: (sum(m), m))
    # the rows the solve reads are ints over the one denominator den
    assert type(system.den) is int and system.den > 0
    for row in system.integer_rows:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns))
        assert all(type(c) is int for _, c in row)
    assert all(type(b) is int for b in system.integer_rhs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_divergence_inputs())
def test_rows_built_on_demand_are_den_times_the_pinned_oracle(case):
    # rational f and g, as the benchmark draws them past seed 0
    f, g, degree = case
    system = divergence_system(f, g, degree)
    unknowns = list(system.unknowns)
    pins, reported = pinned_equations(
        divergence_equations(f, g, degree), unknowns
    )
    # the pinned set and the row count of the pass-by-pass cleanup
    assert {
        unknowns[j]: system.row_monomials[system._row_codes.index(m)]
        for j, m in system._forced.items()
    } == pins
    assert list(system.row_monomials) == list(reported)
    assert len(system.integer_rows) == len(system.rows) == len(reported)
    # every row, pulled in full, is den times the oracle's
    column = {u: j for j, u in enumerate(unknowns)}
    den = system.den
    for m, row, b in zip(reported, system.integer_rows, system.integer_rhs):
        coeffs, rhs = reported[m]
        assert row == tuple((column[u], c * den) for u, c in coeffs.items())
        assert b == rhs * den
        assert all(type(c) is int for _, c in row) and type(b) is int
    assert [tuple(row) for row in system.rows] == [
        tuple((column[u], c) for u, c in coeffs.items())
        for coeffs, _ in reported.values()
    ]
    assert list(system.rhs) == [b for _, b in reported.values()]
    # a certificate refutes the oracle's rows as they are
    verdict = divergence_feasible(f, g, degree)
    if verdict.status == "infeasible":
        assert len(verdict.certificate) == len(reported)
        acc, value = {}, Fraction(0)
        for lam, (coeffs, b) in zip(verdict.certificate, reported.values()):
            value += lam * b
            for u, c in coeffs.items():
                acc[u] = acc.get(u, 0) + lam * c
        assert value == 1 and not any(acc.values())


def test_infeasible_check_builds_no_row_past_the_certificate(monkeypatch):
    built = []
    real = reiffen_module.DivergenceSystem._row

    def spy(system, r):
        built.append(r)
        return real(system, r)

    monkeypatch.setattr(reiffen_module.DivergenceSystem, "_row", spy)
    verdict = divergence_feasible(reiffen(), degree_bound=140)
    assert verdict.status == "infeasible"
    assert len(verdict.certificate) == len(verdict.system.rows) == 10_000
    assert verdict.certificate[:7] == (0, 0, 0, 7, 23, -29, 0)
    # rows 0 to 5 are built, once each: the elimination stops at row 5,
    # which opens the certificate, and its rerun and check read no row
    assert built == list(range(6))
    assert not any(verdict.certificate[6:])


QUARTIC_D5_LABELS = (
    ("A02", 0, (0, 2)), ("A11", 0, (1, 1)), ("A20", 0, (2, 0)),
    ("B02", 1, (0, 2)), ("B11", 1, (1, 1)), ("B20", 1, (2, 0)),
    ("A01", 0, (0, 1)), ("A10", 0, (1, 0)), ("B01", 1, (0, 1)),
    ("B10", 1, (1, 0)), ("A00", 0, (0, 0)), ("B00", 1, (0, 0)),
)


def test_unknown_labels_on_the_quartic():
    system = divergence_system(reiffen(), P("1"), 5)
    assert system.unknown_labels == QUARTIC_D5_LABELS
    assert system.unknowns == tuple((i, e) for _, i, e in QUARTIC_D5_LABELS)
    assert system.unknown_labels is system.unknown_labels  # built once


def test_labels_are_built_only_when_read(monkeypatch, capsys):
    def refuse(i, exps):
        raise AssertionError("a label was built")

    monkeypatch.setattr(reiffen_module, "_label", refuse)
    infeasible = divergence_feasible(reiffen(), degree_bound=8)
    assert infeasible.status == "infeasible"
    feasible = divergence_feasible(P("x^2 + y^2"), degree_bound=6)
    assert feasible.status == "feasible"
    assert cli.main([
        "reiffen", "check", "--vars", "x,y", "--f", "x^4+y^5+y^4*x",
        "--degree", "8",
    ]) == 0
    assert "verdict=infeasible" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="a label was built"):
        infeasible.system.unknown_labels


def test_unknown_cap_reports_resource_limit():
    verdict = divergence_feasible(reiffen(), degree_bound=200)
    assert verdict.status == "resource-limit"
    assert verdict.unknowns == 39402 > DEFAULT_UNKNOWN_CAP
    assert verdict.system is None  # nothing was built past the size estimate
    assert not verdict


def test_unknown_prediction_matches_construction():
    for bound in (5, 6, 8):
        system = divergence_system(reiffen(), P("1"), bound)
        verdict = divergence_feasible(reiffen(), degree_bound=bound)
        assert verdict.unknowns == system.unknown_count


def test_unit_part_rejected():
    with pytest.raises(StructuralError):
        divergence_system(P("1 + x"), P("1"), 5)
    with pytest.raises(StructuralError):
        divergence_system(Poly.zero(XY), P("1"), 5)


# ---------------------------------------------------------------------------
# quasi-homogeneous witnesses


def test_euler_witnesses():
    cases = [
        (P("x^2", X), (1,), ["1/3*x"]),
        (P("x^2 + y^2"), (1, 1), ["1/4*x", "1/4*y"]),
        (P("x^3 + y^2"), (2, 3), ["2/11*x", "3/11*y"]),
        (P("x*y"), (1, 1), ["1/4*x", "1/4*y"]),
    ]
    for f, weights, expected in cases:
        hs = euler_witness(f, weights)
        assert [str(h) for h in hs] == expected
        residual = f
        for i, h in enumerate(hs):
            residual = residual - (f * h).partial(i)
        assert not residual


def test_euler_rejects_inhomogeneous():
    with pytest.raises(StructuralError):
        euler_witness(reiffen(), (1, 1))
    with pytest.raises(StructuralError):
        euler_witness(P("x^2"), (1, 1, 1))


# ---------------------------------------------------------------------------
# the family


def test_family_member_shape():
    assert str(family_member(4, 5)) == "x^4 + y^4*x + y^5"


def test_family_scan():
    scan = family_scan(5, 7, 10)
    assert all(status == "infeasible" for _, status in scan.entries)
    assert len(scan.entries) == 5
    assert scan.format().splitlines()[0] == "q=4 p=5 verdict=infeasible"


def test_family_scan_needs_room():
    with pytest.raises(StructuralError):
        family_scan(4, 5, 7)


# ---------------------------------------------------------------------------
# differential ideal and stalk cohomology


def _k_dims(gens, weight):
    """The ambient at ``weight + 1`` and dim K^k there, from the oracle.

    The ambient is built as ``classical_stalk_cohomology`` builds it;
    K is the span the oracle forms on its basis, and dim K^k is what
    the oracle's quotient leaves out of degree k.
    """
    variables = tuple(gens[0].context)
    stage = DeRhamStage(free_presentation(variables), len(variables), weight + 1)
    ambient = weight_truncate(stage, weight + 1)
    span = stalk_span(stage, ambient.labels, gens, weight + 1)
    quotient = reference_quotient(ambient, span)
    return ambient, [
        ambient.dims[k] - quotient.dims.get(k, 0) for k in sorted(ambient.dims)
    ]


def test_k_ideal_line():
    ambient, dims = _k_dims([P("x", X)], 2)
    ctx = derham_stage(free_presentation(X), 1, 3).truncation_data()[0]
    names = [tuple(ctx.monomial_str(m) for m in ambient.labels[k]) for k in (0, 1)]
    assert names[0] == ("1", "x", "x^2", "x^3")
    assert names[1] == ("dx", "x*dx", "x^2*dx")
    assert dims == [3, 3]


def test_k_ideal_quartic():
    # at W + 1 = 6, where the stalk's one ambient is built
    assert _k_dims([reiffen()], 5)[1] == [6, 10, 4]


def test_k_ideal_guards():
    with pytest.raises(StructuralError):
        classical_stalk_cohomology([Poly.zero(X)], 3)
    with pytest.raises(StructuralError):
        classical_stalk_cohomology([], 3)
    with pytest.raises(StructuralError):
        classical_stalk_cohomology([P("x", X), P("y", ("y",))], 3)


def test_stalk_cohomology_quartic():
    rep = classical_stalk_cohomology([reiffen()], 9)
    assert rep.dims == ((0, 1), (1, 1), (2, 0))
    assert all(flag for _, flag in rep.stable)


def test_stalk_cohomology_smooth():
    rep = classical_stalk_cohomology([P("x", X)], 6)
    assert rep.dims == ((0, 1), (1, 0))
    assert all(flag for _, flag in rep.stable)
    # the unit ideal: dg = 0 spans nothing, and the quotient is zero
    rep = classical_stalk_cohomology([P("1", X)], 3)
    assert rep.dims == ((0, 0), (1, 0))
    assert all(flag for _, flag in rep.stable)


# (q, p, with the x*y^(p-1) term): x^q + y^p [+ x*y^(p-1)]
STALK_CURVES = [
    (q, p, True) for q, p in ((3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (5, 7))
]
STALK_CURVES += [(4, 5, False), (2, 3, False)]


@pytest.mark.parametrize(
    "q, p, tail", STALK_CURVES,
    ids=[f"x{q}y{p}" + ("+xy" if t else "") for q, p, t in STALK_CURVES],
)
def test_stalk_h1_is_milnor_minus_tjurina(q, p, tail):
    # for an isolated plane-curve germ dim H^1 = mu - tau; mu and tau are
    # the local colengths of J(f) and (f) + J(f), computed here by the
    # oracle's own elimination and checked to have settled in m^n
    f = {(q, 0): 1, (0, p): 1}
    if tail:
        f[(1, p - 1)] = 1
    jacobian = [partial(f, 0), partial(f, 1)]
    mu, tau = local_colength(jacobian, 16), local_colength([f] + jacobian, 16)
    assert (mu, tau) == (
        local_colength(jacobian, 18), local_colength([f] + jacobian, 18)
    )
    assert mu == (q - 1) * (p - 1)  # semi-quasi-homogeneous: Milnor's count
    if not tail:
        assert tau == mu  # quasi-homogeneous (Saito)
    poly = Poly(XY, f)
    rep = classical_stalk_cohomology([poly], 12)
    assert rep.dim(1) == mu - tau, (str(poly), mu, tau)


# (f, mu, tau): T_{3,3,4}, whose tau is mu - 1; x^2+y^3+z^5 (E_8),
# quasi-homogeneous; x^2+y^3+z^4+xyz, which completing the square in x
# makes E_6 plus a term above its weights
STALK_SURFACES = [
    ("x^3+y^3+z^4+x*y*z", 9, 8),
    ("x^2+y^3+z^5", 8, 8),
    ("x^2+y^3+z^4+x*y*z", 6, 6),
]


@pytest.mark.parametrize(
    "f, mu, tau", STALK_SURFACES, ids=[f for f, _, _ in STALK_SURFACES]
)
def test_stalk_h2_is_milnor_minus_tjurina(f, mu, tau):
    # for an isolated surface germ in 3 variables H^1 = 0 and dim H^2 =
    # mu - tau (Brieskorn 1970); the local colengths are the oracle's
    # own, checked to have settled in m^n
    poly = P(f, XYZ)
    terms = dict(poly.terms)
    jacobian = [partial(terms, i) for i in range(3)]
    for n in (12, 14):
        assert local_colength(jacobian, n) == mu, n
        assert local_colength([terms] + jacobian, n) == tau, n
    rep = classical_stalk_cohomology([poly], 10)
    assert rep.dim(1) == 0
    assert rep.dim(2) == mu - tau, (f, mu, tau)
    assert all(flag for _, flag in rep.stable)


@pytest.mark.parametrize(
    "variables, weight", [(X, 10), (XY, 6), (XY, 8), (XYZ, 6)],
    ids=["x-W10", "xy-W6", "xy-W8", "xyz-W6"],
)
def test_stalk_ambient_is_contracted_by_the_euler_field(variables, weight):
    # the stalk reads Omega/K off K through the long exact sequence,
    # which needs the ambient Omega to be Q in degree 0 and acyclic
    # elsewhere, at W + 1 and at its cut W: h = iota_E / (number of
    # factors) gives dh + hd = id - pi exactly on every column of both
    n = len(variables)
    stage = DeRhamStage(free_presentation(variables), n, weight + 1)
    ctx = stage.truncation_data()[0]
    ambient = weight_truncate(stage, weight + 1)
    cut = reference_quotient(ambient, {
        n: [{key: Fraction(1)} for key in keys[ambient.light[n]:]]
        for n, keys in ambient.labels.items()
    })
    iota = euler_field(ctx, variables)
    point = {k: int(k == 0) for k in range(n + 1)}
    for cx in (ambient, cut):
        assert euler_residue(cx, ctx, iota) == {}
        assert cx.cohomology() == point
        # a wrong scale leaves a residue on every column but the unit
        doubled = {name: image.scale(2) for name, image in iota.items()}
        moved = euler_residue(cx, ctx, doubled)
        assert len(moved) == sum(cx.dims.values()) - 1
    assert ambient.cut_cohomology() == (point, point)


def test_quotient_by_the_exact_sequence():
    # Omega/K from H(K) alone, on subcomplexes of the free stage on x
    # below weight 4 that no ideal spans: Q*dx has H^1 = 1, and its
    # quotient two classes in degree 0, 1 and x; K spanned by x^2 and
    # x*dx, or by x, x^3, dx and x^2*dx, is acyclic
    stage = DeRhamStage(free_presentation(X), 1, 4)
    weight_of = stage.truncation_data()[0].weight_of
    cx = weight_truncate(stage, 4)
    one = Fraction(1)
    spans = [
        {1: [{(0, 1): one}]},
        {0: [{(2, 0): one}], 1: [{(1, 1): one}]},
        {
            0: [{(1, 0): one}, {(3, 0): one}],
            1: [{(0, 1): one}, {(2, 1): one}],
        },
    ]
    h1 = []
    for span in spans:
        got = cx.subcomplex_cohomology(span, weight_of)
        want = reference_quotient(cx, span).cut_cohomology()
        assert [quotient_by_sequence(h, 1) for h in got] == [
            {k: h.get(k, 0) for k in (0, 1)} for h in want
        ]
        h1.append(got[1][1])
    assert h1 == [1, 0, 0]


def test_stalk_row_operations_stay_bounded(monkeypatch):
    # per degree one elimination of K's span and one of the images under
    # d of its pivot rows, whose echelon basis alone is checked to lie in
    # K.  The stalk of T_{3,3,4} at W 12 takes 23,528 row operations
    # (elim._axpy calls); eliminating d's light and heavy columns after
    # every image, as it once did, took 49,409.
    calls = [0]
    axpy = elim._axpy

    def spy(*args):
        calls[0] += 1
        return axpy(*args)

    monkeypatch.setattr(elim, "_axpy", spy)
    rep = classical_stalk_cohomology([P("x^3+y^3+z^4+x*y*z", XYZ)], 12)
    assert rep.dims == ((0, 1), (1, 0), (2, 1), (3, 0))
    assert calls[0] <= 30_000


@st.composite
def _germs(draw):
    """(generators, W): one or two germs in 2-3 variables, W in 1..7.

    Coefficients are rational.  Half the draws are one germ of pure
    powers x^a + y^b [+ z^c] (a, b, c in 2..5) plus up to two terms of
    degree 2-5: singular germs whose heavier terms often come first in
    lex order, the case the weight order of the bases is there for.
    The others are one or two germs with terms of degree 1-3.
    """
    n = draw(st.integers(2, 3))
    variables = ("x", "y", "z")[:n]
    weight = draw(st.integers(1, 7))
    if draw(st.booleans()):
        f = {}
        for i in range(n):
            power = [0] * n
            power[i] = draw(st.integers(2, 5))
            f[tuple(power)] = draw(_coeff)
        mixed = st.tuples(*[st.integers(0, 3)] * n).filter(
            lambda e: 2 <= sum(e) <= 5
        )
        f.update(draw(st.dictionaries(mixed, _coeff, max_size=2)))
        return [Poly(variables, f)], weight
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda e: 1 <= sum(e) <= 3
    )
    gens = draw(st.lists(
        st.dictionaries(exps, _coeff, min_size=1, max_size=4),
        min_size=1, max_size=2,
    ))
    return [Poly(variables, g) for g in gens], weight


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_germs())
def test_one_quotient_stalk_matches_two_builds(case):
    # the stalk read off ranks of one W+1 ambient, against the oracle's
    # two quotients, built with no assembly, elimination or quotient
    # code of the package
    gens, weight = case
    rep = classical_stalk_cohomology(gens, weight)
    want = two_build_stalk(gens, weight)
    assert (rep.dims, rep.stable) == (want.dims, want.stable)


def test_obstruction_matches_divergence_feasibility():
    # H^1 of the stalk quotient vanishes exactly when every monomial
    # source of degree <= 2 admits a divergence solution
    sources = ["1", "x", "y", "x^2", "x*y", "y^2"]
    for f in ("x^2 + y^2", "x*y", "x^2 + y^3", "x^4 + y^5 + y^4*x"):
        fp = P(f)
        h1 = dict(classical_stalk_cohomology([fp], 8).dims).get(1, 0)
        verdicts = [
            divergence_feasible(fp, P(g), 8).status == "feasible"
            for g in sources
        ]
        assert (h1 == 0) == all(verdicts), f
    # on the obstinate quartic only the constant source is obstructed
    quartic = reiffen()
    assert divergence_feasible(quartic, P("1"), 8).status == "infeasible"
    for g in ("x", "y", "x^2", "x*y", "y^2"):
        assert divergence_feasible(quartic, P(g), 8).status == "feasible"

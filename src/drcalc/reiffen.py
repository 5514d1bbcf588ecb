"""Stalk-level obstruction tests for hypersurface singularities.

Two computations drive this module.  The first is the stalk: the free
de Rham stage on the variables modulo the differential ideal K
generated by the defining equations, whose cohomology is read off K's
own, from ranks of one ``MatrixComplex`` and K's span, with no
quotient built; it detects failure of the Poincaré lemma on the
singular germ.  The second is the divergence equation ``f*g = sum_i
d(f*h_i)/dx_i`` viewed as an exact linear system on the Taylor
coefficients of the unknowns ``h_i``: a rational certificate of
infeasibility refutes solvability of the untruncated problem, because
every row is a necessary condition on any formal solution.  Truncation
soundness is asymmetric by design — infeasible verdicts are
conclusive, feasible ones are limited to the window — and every
verdict says so.

The running example throughout is the quasi-homogeneous-looking but
obstinate curve x^q + y^p + y^{p-1} x.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
import functools
import math
import operator
import string
from dataclasses import dataclass
from fractions import Fraction

from . import elim
from .algebra import GradedElement, check_weight, enumerate_monomials
from .derham import DeRhamStage, free_presentation
from .errors import StructuralError
from .homology import CohomologyReport, flag_stability, weight_truncate
from .poly import Poly

SOUNDNESS_NOTE = (
    "infeasible at a finite degree bound refutes the untruncated problem; "
    "feasible only certifies the window"
)


# ---------------------------------------------------------------------------
# the differential ideal K^* and the stalk's cohomology


def classical_stalk_cohomology(gens, weight) -> CohomologyReport:
    """Cohomology of the germ's de Rham quotient, with stability flags.

    The ambient Omega is the free de Rham stage on the variables,
    assembled once at ``weight + 1``: the one complex built.  K^k =
    I*Omega^k + dI ^ Omega^{k-1} is spanned by the weight-cut products
    of each generator g with the ambient k-forms and of dg with the
    (k-1)-forms.  Neither K nor the quotient gets a basis:
    ``MatrixComplex.subcomplex_cohomology`` reads H(K) off ranks, two
    eliminations per degree of K's span and of its images under d, and
    checks on the way that d maps K into K.  The ambient's cut is at
    ``weight``, and dropping the heavy keys from K at ``weight + 1``
    leaves the K of the ambient at ``weight`` (its span with the heavy
    terms dropped), so the same eliminations give both cuts.

    The quotient's cohomology is K's, shifted.  Omega's d keeps weight,
    and on the part of weight w > 0 (w factors x_i or dx_i) the Euler
    contraction, dx_i -> x_i divided by w, is a homotopy from the
    identity to zero, so each cut of Omega is Q in degree 0 and acyclic
    elsewhere.  The long exact sequence of 0 -> K -> Omega -> Omega/K
    -> 0 then gives H^k(Omega/K) = H^(k+1)(K) for k >= 1 and
    dim H^0(Omega/K) = 1 - dim H^0(K) + dim H^1(K), on each side of the
    cut (``quotient_by_sequence``).  Flags compare the dimensions at
    ``weight`` and ``weight + 1``; every form degree is reported.
    """
    gens = tuple(gens)
    if not gens or any(not g for g in gens):
        raise StructuralError("ideal generators must be nonzero")
    variables = tuple(gens[0].context)
    for g in gens:
        if tuple(g.context) != variables:
            raise StructuralError("mixed variable contexts")
    check_weight(weight)
    n = len(variables)
    stage = DeRhamStage(free_presentation(variables), n, weight + 1)
    ctx, d, _ = stage.truncation_data()
    ambient = weight_truncate(stage, weight + 1)
    span = {k: [] for k in range(n + 1)}
    for g in gens:
        lifted = g.cast_to(ctx)
        for factor, shift in ((lifted, 0), (d(lifted), 1)):
            if not factor:
                continue
            # a key past this room leaves every term of its product
            # above the cut: the product would be empty
            room = weight + 1 - factor.min_weight()
            for k, keys in ambient.labels.items():
                if k + shift <= n:
                    span[k + shift] += [
                        (factor * GradedElement.monomial(ctx, m))
                        .weight_filter(weight + 1).terms
                        for m in keys
                        if ctx.weight_of(m) <= room
                    ]
    return flag_stability(*(
        quotient_by_sequence(h, n)
        for h in ambient.subcomplex_cohomology(span, ctx.weight_of)
    ))


def quotient_by_sequence(h, n):
    """``{k: dim H^k(Omega/K)}`` for k in 0..n, from ``h`` = H(K).

    The long exact sequence of 0 -> K -> Omega -> Omega/K -> 0 for an
    Omega that is Q in degree 0 and acyclic elsewhere (see
    ``classical_stalk_cohomology``); ``h`` has degree 0.
    """
    return {0: 1 - h[0] + h.get(1, 0)} | {
        k: h.get(k + 1, 0) for k in range(1, n + 1)
    }


# ---------------------------------------------------------------------------
# the divergence system


def _unknown_letter(i: int) -> str:
    letters = string.ascii_uppercase
    return letters[i % 26] * (i // 26 + 1)


def _label(i: int, exps) -> str:
    return _unknown_letter(i) + "".join(str(e) for e in exps)


@dataclass(frozen=True)
class DivergenceSystem:
    """Exact linear system for f*g = sum_i d(f*h_i)/dx_i up to degree D.

    Unknowns are the Taylor coefficients of the h_i up to degree
    ``D - min_degree(f) + 1``; there is one row per monomial of degree
    at most D that occurs on either side.  Raw rows at bound D only
    involve unknowns within the bound, so the D-system is a subsystem
    of the (D+1)-system over a shared label set.

    Unknowns are numbered newest first: by descending degree, ties by
    variable and then by exponent in lex order.  ``unknowns`` holds the
    ``(variable index, exponent tuple)`` of each.  The system is block
    triangular by degree (an unknown of degree e enters only rows of
    degree at least e + min_degree(f) - 1), and rows are sorted by
    degree, then by exponent in lex order, so each row's smallest
    columns are the unknowns that just entered.  Left-to-right
    elimination then pivots a row on those columns and leaves the older
    ones alone, which keeps fill-in low (Davis 2006, ch. 7).  Only which
    solution a feasible system reports depends on the order: free
    unknowns are set to zero.  Each row lists its entries by ascending
    column.

    The build packs each monomial x^m into one int, its code (Monagan &
    Pearce, CASC 2007): from the top, a field for the total degree, then
    one for each of m_1 ... m_n, every field ``bits`` wide.  A stored
    code is a row monomial (degree at most D) or an unknown's exponent
    (degree at most D - min_degree(f) + 1 <= D), so no field exceeds D,
    and ``bits`` is the bit length of max(D, 1).  With every field in
    range, the code of a product is the sum of the codes (no field
    carries), and codes compare as ints exactly as the keys
    ``(sum(m), m)`` do, which is the row order.  A term of f enters
    through a precomputed difference of codes, which need not fit the
    fields (see the build), so the width does not depend on f's degree.
    Exponent tuples are decoded once per reported row.

    Rows are reported after one cleanup: whenever a homogeneous row
    pins a single coefficient to zero, that coefficient is dropped from
    the other rows and the pinning row itself is kept.  Every reported
    row is therefore an exact consequence of the coefficient equations
    (a raw row plus rational multiples of pinning rows), so
    certificates stated against the reported rows refute the raw
    system too.

    ``unknown_labels`` names the unknowns (``A10`` is the coefficient
    of x in h_1); the package never reads the names, so they are built
    when first read.
    """

    f: Poly
    g: Poly
    degree_bound: int
    unknowns: tuple  # (variable index, exponent tuple)
    row_monomials: tuple  # exponent tuples, sorted
    rows: tuple  # per row: tuple of (unknown index, Fraction)
    rhs: tuple  # per row: Fraction

    @functools.cached_property
    def unknown_labels(self) -> tuple:
        """(label, variable index, exponent tuple) per unknown."""
        return tuple((_label(i, e), i, e) for i, e in self.unknowns)

    @property
    def unknown_count(self) -> int:
        return len(self.unknowns)


def divergence_system(f: Poly, g: Poly, degree_bound: int) -> DivergenceSystem:
    if not f:
        raise StructuralError("f must be nonzero")
    if f.min_degree() < 1:
        raise StructuralError(
            "f has a unit part; the divergence equation is trivially "
            "solvable and the test says nothing"
        )
    n = len(f.context)
    h_bound = degree_bound - f.min_degree() + 1
    exponents = [] if h_bound < 0 else enumerate_monomials(
        f.context, max_weight=h_bound
    )
    bits = max(degree_bound, 1).bit_length()
    mask = (1 << bits) - 1
    offsets = [bits * k for k in range(n - 1, -1, -1)]  # x_1 ... x_n
    one = 1 << (bits * n)  # a unit in the degree field

    def code(m):
        return sum(m) * one + sum(map(operator.lshift, m, offsets))

    target = {
        code(m): c
        for m, c in (f * g).terms.items()
        if sum(m) <= degree_bound
    }
    # column (i, e) is d/dx_i (f * x^e): the term c*x^a of f contributes
    # c*(a_i + e_i) at a + e - 1_i, whose code is code(e) + shift with
    # shift = code(a) - code(1_i), one per term and variable.  The shift
    # is not itself a code (a - 1_i may have a -1 field), but code is
    # linear, so the sum is exact in Z and, having every field in range,
    # is the code of a + e - 1_i.  A term's table[k] is c*k, built once
    # because a Fraction product per entry doubles the build time.
    # Terms go by ascending degree: a column of degree d keeps those of
    # degree at most D + 1 - d, so a term above D + 1 reaches no row.
    terms = sorted(
        (t for t in f.terms.items() if sum(t[0]) <= degree_bound + 1),
        key=lambda t: sum(t[0]),
    )
    degrees = [sum(a) for a, _ in terms]
    multiples = [
        [c * k for k in range(sum(a) + h_bound + 1)] for a, c in terms
    ]
    shifted = [
        [
            (code(a) - one - (1 << offsets[i]), a[i], table)
            for (a, _), table in zip(terms, multiples)
        ]
        for i in range(n)
    ]
    codes = [code(e) for e in exponents]
    # row code -> {unknown index: coeff}
    raw = defaultdict(dict, {m: {} for m in target})
    unknowns = []
    # enumerate_monomials lists exponents by ascending degree, lex within
    # a degree, so degree d fills [comb(d - 1 + n, n), comb(d + n, n))
    for d in range(h_bound, -1, -1):
        first, stop = math.comb(d - 1 + n, n), math.comb(d + n, n)
        live = bisect.bisect_right(degrees, degree_bound + 1 - d)
        for i in range(n):
            active = shifted[i][:live]
            for t in range(first, stop):
                e = exponents[t]
                j = len(unknowns)
                unknowns.append((i, e))
                base = codes[t]
                ei = e[i]
                for shift, ai, table in active:
                    k = ai + ei
                    if k:
                        raw[base + shift][j] = table[k]
    ordered = sorted(raw)

    # propagate zero-forced coefficients, batch per pass so the pinning
    # row is always one that was a singleton at the same stage
    forced = {}  # unknown index -> pinning row code
    while True:
        fresh = {}
        for m in ordered:
            if target.get(m):
                continue
            support = [j for j in raw[m] if j not in forced]
            if len(support) == 1 and support[0] not in fresh:
                fresh[support[0]] = m
        if not fresh:
            break
        forced.update(fresh)
    pinning = {m: j for j, m in forced.items()}

    zero = Fraction(0)
    monomials = []
    rows = []
    rhs = []
    for m in ordered:
        entries = {j: c for j, c in raw[m].items() if j not in forced}
        value = target.get(m, zero)
        if m in pinning:
            j = pinning[m]
            entries[j] = raw[m][j]  # back in last: this row alone is sorted
            row = tuple(sorted(entries.items()))
        elif entries or value:
            row = tuple(entries.items())  # columns came in ascending order
        else:
            continue
        monomials.append(tuple((m >> s) & mask for s in offsets))
        rows.append(row)
        rhs.append(value)
    return DivergenceSystem(
        f=f,
        g=g,
        degree_bound=degree_bound,
        unknowns=tuple(unknowns),
        row_monomials=tuple(monomials),
        rows=tuple(rows),
        rhs=tuple(rhs),
    )


@dataclass(frozen=True)
class FeasibilityVerdict:
    status: str  # "feasible" | "infeasible" | "resource-limit"
    witness: tuple = ()  # Poly per variable when feasible
    certificate: tuple = ()  # Fraction per row when infeasible
    unknowns: int = 0  # size of the coefficient system
    system: DivergenceSystem = None
    note: str = SOUNDNESS_NOTE

    def __bool__(self):
        return self.status == "feasible"


DEFAULT_UNKNOWN_CAP = 20_000


def _unknown_total(f: Poly, degree_bound: int) -> int:
    n = len(f.context)
    h_bound = degree_bound - f.min_degree() + 1
    if h_bound < 0:
        return 0
    return n * math.comb(h_bound + n, n)


def divergence_feasible(
    f: Poly, g: Poly = None, degree_bound: int = 8
) -> FeasibilityVerdict:
    """Decide the truncated divergence system, with checkable output.

    Feasible verdicts carry the h_i as polynomials and are re-verified
    by substitution before returning: the residual f*g - sum d(f*h_i)
    must have no terms of degree <= D.  Infeasible verdicts carry exact
    row multipliers lam with lam.A = 0 and lam.b = 1.  The unknown cap,
    ``DEFAULT_UNKNOWN_CAP``, is assessed from the predicted system size,
    before anything is built.
    """
    if degree_bound < 0:
        raise StructuralError(
            f"degree {degree_bound} is negative; windows start at 0"
        )
    if g is None:
        g = Poly.const(f.context, 1)
    predicted = _unknown_total(f, degree_bound)
    if predicted > DEFAULT_UNKNOWN_CAP:
        return FeasibilityVerdict(status="resource-limit", unknowns=predicted)
    system = divergence_system(f, g, degree_bound)
    tag, payload = elim.solve_rational(
        system.rows, system.rhs, system.unknown_count
    )
    if tag == "infeasible":
        return FeasibilityVerdict(
            status="infeasible",
            certificate=tuple(payload),
            unknowns=system.unknown_count,
            system=system,
        )
    variables = tuple(f.context)
    per_var = {}
    for value, (i, exps) in zip(payload, system.unknowns):
        if value:
            per_var.setdefault(i, {})[exps] = value
    witness = tuple(
        Poly(variables, per_var.get(i, {})) for i in range(len(variables))
    )
    residual = f * g
    for i, h in enumerate(witness):
        residual = residual - (f * h).partial(i)
    bad = [m for m in residual.terms if sum(m) <= degree_bound]
    if bad:
        raise StructuralError(
            f"witness verification failed at {bad[0]}"
        )  # pragma: no cover
    return FeasibilityVerdict(
        status="feasible",
        witness=witness,
        unknowns=system.unknown_count,
        system=system,
    )


def euler_witness(f: Poly, weights) -> tuple:
    """The weighted-Euler solution for a weighted-homogeneous f.

    With weights w and weighted degree d0, ``h_i = w_i x_i / (d0 + sum
    w)`` solves the divergence equation on the nose; the identity is
    verified exactly and failure (f not homogeneous for these weights)
    raises.
    """
    variables = tuple(f.context)
    if len(weights) != len(variables):
        raise StructuralError("one weight per variable")
    degrees = {
        sum(w * e for w, e in zip(weights, m)) for m in f.terms
    }
    if len(degrees) != 1:
        raise StructuralError(
            "f is not weighted-homogeneous for the given weights"
        )
    (d0,) = degrees
    denom = d0 + sum(weights)
    witness = tuple(
        Poly.var(variables, v) * Fraction(w, denom)
        for v, w in zip(variables, weights)
    )
    residual = f
    for i, h in enumerate(witness):
        residual = residual - (f * h).partial(i)
    if residual:
        raise StructuralError("Euler identity failed")  # pragma: no cover
    return witness


# ---------------------------------------------------------------------------
# the obstinate family


def family_member(q: int, p: int) -> Poly:
    x = Poly.var(("x", "y"), "x")
    y = Poly.var(("x", "y"), "y")
    return x ** q + y ** p + y ** (p - 1) * x


@dataclass(frozen=True)
class FamilyScan:
    degree_bound: int
    entries: tuple  # ((q, p), status string)

    def format(self) -> str:
        lines = []
        for (q, p), status in self.entries:
            lines.append(f"q={q} p={p} verdict={status}")
        return "\n".join(lines)


def family_scan(q_max: int, p_max: int, degree_bound: int) -> FamilyScan:
    """Verdicts for x^q + y^p + y^{p-1}x over 4 <= q, q+1 <= p."""
    if q_max < 4 or p_max < 5:
        raise StructuralError(
            f"scan range qmax={q_max} pmax={p_max} holds no member; the "
            "family starts at q=4, p=5"
        )
    if degree_bound < p_max + 3:
        raise StructuralError(
            "degree bound too small to see the family's obstruction rows"
        )
    entries = []
    for q in range(4, q_max + 1):
        for p in range(q + 1, p_max + 1):
            verdict = divergence_feasible(
                family_member(q, p), degree_bound=degree_bound
            )
            entries.append(((q, p), verdict.status))
    return FamilyScan(degree_bound=degree_bound, entries=tuple(entries))

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
verdict says so.  The system's rows are built only when the solve
reads them, each from its monomial alone, with integer entries over
one denominator of the whole system; an infeasible system is read in
row order up to the row that opens its certificate, and the rows past
it are never built.

The running example throughout is the quasi-homogeneous-looking but
obstinate curve x^q + y^p + y^{p-1} x.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
import functools
import math
import operator
import string
from fractions import Fraction
from typing import NamedTuple

from . import elim
from .algebra import GradedElement, check_weight
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


class _Rows:
    """A read-only sequence whose items are built each time they are read."""

    __slots__ = ("_item", "_len")

    def __init__(self, item, length):
        self._item = item
        self._len = length

    def __len__(self):
        return self._len

    def __getitem__(self, r):
        if not 0 <= r < self._len:
            raise IndexError("row index out of range")
        return self._item(r)

    def __iter__(self):
        return map(self._item, range(self._len))


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

    Rows are built when read, from their monomial alone: the term
    c*x^a of f puts c*(m_i + 1) into row x^m at the unknown (i, e) with
    e = m - a + 1_i, whenever e has no negative exponent (the degree
    bound on e then holds by itself).  ``integer_rows`` and
    ``integer_rhs`` are the rows and right-hand sides times ``den``,
    the least common denominator of the system, so their entries are
    ints; ``rows`` and ``rhs`` divide them by ``den`` again.  A row read
    twice is built twice.  ``row_monomials``, ``unknowns`` and
    ``unknown_labels`` are built when first read.

    Each monomial x^m is packed into one int, its code (Monagan &
    Pearce, CASC 2007): from the top, a field for the total degree,
    then one for each of m_1 ... m_n.  A variable's field is one bit
    wider than D needs: the exponents of rows and unknowns (at most D)
    stay below its top bit, the guard bit, and those of f's terms (at
    most D + 1, as a term past D + 1 reaches no row) reach at most the
    guard bit itself.  The code of a product is the sum of the codes,
    and codes compare as ints exactly as the keys ``(sum(m), m)`` do,
    which is the row order.  With every guard bit set in the code of a
    row x^m, subtracting the code of x^b leaves them all set exactly
    when x^b divides x^m.

    Rows are reported after one cleanup: whenever a homogeneous row
    pins a single coefficient to zero, that coefficient is dropped from
    the other rows and the pinning row itself is kept.  Every reported
    row is therefore an exact consequence of the coefficient equations
    (a raw row plus rational multiples of pinning rows), so
    certificates stated against the reported rows refute the raw
    system too.  The pinning runs in passes: a pass pins the
    coefficient of every homogeneous row left with one coefficient not
    yet pinned, the first such row in row order pinning it.  The term
    x^a and the variable i make one pair, which enters row x^m exactly
    when its divisor, x^(a - 1_i) (or x^a when a_i = 0), divides x^m,
    so the rows a pair enters are the multiples of its divisor up to
    degree D.  A count over those, on codes and with no entry formed,
    gives every row and the size of its support.  The first pass reads
    the rows of support one; a later pass reads only the rows that
    meet a coefficient the pass before pinned, since no other row's
    count of coefficients not yet pinned has changed.

    ``unknown_labels`` names the unknowns (``A10`` is the coefficient
    of x in h_1); the package never reads the names.
    """

    def __init__(self, f: Poly, g: Poly, degree_bound: int):
        self.f, self.g, self.degree_bound = f, g, degree_bound
        n = len(f.context)
        self.unknown_count = _unknown_total(f, degree_bound)
        h_bound = degree_bound - f.min_degree() + 1
        width = max(degree_bound, 1).bit_length() + 1
        offsets = [width * k for k in range(n - 1, -1, -1)]  # x_1 ... x_n
        self._offsets = offsets
        self._field = (1 << width) - 1
        self._degree_shift = shift = width * n
        self._guard = sum(1 << (o + width - 1) for o in offsets)
        one = 1 << shift  # a unit in the degree field
        units = [one + (1 << o) for o in offsets]

        def code(m):
            return sum(m) * one + sum(map(operator.lshift, m, offsets))

        # every monomial of degree at most h_bound, by code: an unknown's
        # exponent, and the degree d ones fill [N(d - 1), N(d)) with
        # N(d) = comb(d + n, n)
        codes = [0] if h_bound >= 0 else []
        for unit in units:
            codes = [
                c + k * unit
                for c in codes for k in range(h_bound + 1 - (c >> shift))
            ]
        codes.sort()
        self._codes = codes

        target = {
            code(m): c
            for m, c in (f * g).terms.items()
            if sum(m) <= degree_bound
        }
        # a term above D + 1 reaches no row
        terms = [t for t in f.terms.items() if sum(t[0]) <= degree_bound + 1]
        self.den = den = math.lcm(
            *(c.denominator for _, c in terms),
            *(c.denominator for c in target.values()),
        )
        self._target = {
            m: c.numerator * (den // c.denominator) for m, c in target.items()
        }

        # the pairs, in the order of the columns they give any one row:
        # ascending degree of a, then i, then a in descending lex order.
        # A pair is (the code of its divisor; code(a) - code(1_i), which
        # takes row x^m to x^e; i; c * den; and per row degree s, the
        # index of the first unknown (i, e) of degree s - deg(a) + 1 less
        # the position in ``codes`` of the first code of that degree)
        bounds = [math.comb(d + n, n) for d in range(-1, h_bound + 1)]
        firsts = [  # per variable i and degree d
            [
                n * (len(codes) - high) + i * (high - low) - low
                for low, high in zip(bounds, bounds[1:])
            ]
            for i in range(n)
        ]
        self._pairs = [
            (
                ca - units[i] if a[i] else ca,
                ca - units[i],
                i,
                c.numerator * (den // c.denominator),
                [0] * (sum(a) - 1) + firsts[i],  # row degree deg(a) - 1 + d has d
            )
            for _, i, _, a, ca, c in sorted(
                (sum(a), i, -ca, a, ca, c)
                for a, ca, c in ((a, code(a), c) for a, c in terms)
                for i in range(n)
            )
        ]

        # every row and its support size: pair p enters the multiples of
        # its divisor up to degree D, the divisor's code plus each code
        # of degree at most D - deg(divisor), a prefix of ``codes``
        sizes = Counter(chain.from_iterable(
            map(fit.__add__, codes[:math.comb(room + n, n)])
            for fit, *_ in self._pairs
            for room in (degree_bound - (fit >> shift),)
            if room >= 0
        ))
        ordered = sorted(sizes.keys() | target.keys())

        forced = {}  # unknown index -> pinning row code
        fresh = {}
        for m in sorted(compress(sizes, map((1).__eq__, sizes.values()))):
            if m not in target:
                (j, _), = self._raw(m)
                fresh.setdefault(j, m)
        supports = {}  # the rows that meet a pinned unknown -> their unknowns
        while fresh:
            forced.update(fresh)
            rows = sorted({r for j in fresh for r in self._rows_of(j)})
            fresh = {}
            for m in rows:
                supports[m] = [j for j, _ in self._raw(m)]
                if m in target:
                    continue
                support = [j for j in supports[m] if j not in forced]
                if len(support) == 1 and support[0] not in fresh:
                    fresh[support[0]] = m
        self._forced, self._touched = forced, supports.keys()
        pinning = set(forced.values())
        dropped = {
            m for m, support in supports.items()
            if m not in target and m not in pinning
            and all(j in forced for j in support)
        }
        self._row_codes = [m for m in ordered if m not in dropped]
        count = len(self._row_codes)
        self.integer_rows = _Rows(self._row, count)
        self.integer_rhs = _Rows(self._rhs, count)

    @functools.cached_property
    def _positions(self):
        """The position of each code in ``_codes``."""
        return dict(zip(self._codes, range(len(self._codes))))

    def _raw(self, m):
        """Row x^m before the cleanup: ``(unknown index, int)`` pairs, ascending."""
        guard = self._guard
        lifted = m | guard
        positions = self._positions
        s = m >> self._degree_shift
        lifts = [((m >> o) & self._field) + 1 for o in self._offsets]  # m_i + 1
        return [
            (positions[m - back] + first[s], c * lifts[i])
            for fit, back, i, c, first in self._pairs
            if (lifted - fit) & guard == guard
        ]

    def _unknown(self, j):
        """``(i, code of x^e)`` of unknown j."""
        n, codes = len(self._offsets), self._codes
        total = len(codes)
        # the degree d block of unknowns covers n * [total - N(d), total - N(d - 1))
        d = codes[total - j // n - 1] >> self._degree_shift
        low, high = math.comb(d - 1 + n, n), math.comb(d + n, n)
        i, rank = divmod(j - n * (total - high), high - low)
        return i, codes[low + rank]

    def _rows_of(self, j):
        """Codes of the rows unknown j enters.

        Unknown (i, e) enters row x^(e + a - 1_i) for each term x^a of
        f with a_i + e_i > 0, up to degree D; a pair's divisor is
        ``code(a) - code(1_i)`` exactly when a_i > 0.
        """
        i, e = self._unknown(j)
        lifted = (e >> self._offsets[i]) & self._field  # e_i
        rows = [
            e + back
            for fit, back, k, _, _ in self._pairs
            if k == i and (lifted or fit == back)
        ]
        return [r for r in rows if r >> self._degree_shift <= self.degree_bound]

    def _row(self, r):
        m = self._row_codes[r]
        row = self._raw(m)
        if m in self._touched:
            forced = self._forced
            row = [(j, v) for j, v in row if forced.get(j, m) == m]
        return tuple(row)

    def _rhs(self, r):
        return self._target.get(self._row_codes[r], 0)

    def _decode(self, code):
        return tuple((code >> o) & self._field for o in self._offsets)

    @property
    def rows(self):
        """Per row: ``(unknown index, Fraction)`` pairs."""
        den = self.den
        return _Rows(
            lambda r: tuple((j, Fraction(v, den)) for j, v in self._row(r)),
            len(self._row_codes),
        )

    @property
    def rhs(self):
        """Per row: the right-hand side as a Fraction."""
        return _Rows(
            lambda r: Fraction(self._rhs(r), self.den), len(self._row_codes)
        )

    @functools.cached_property
    def row_monomials(self) -> tuple:
        """Exponent tuple of each row, in row order."""
        return tuple(map(self._decode, self._row_codes))

    def unknown(self, j):
        """``(variable index, exponent tuple)`` of unknown j."""
        i, e = self._unknown(j)
        return i, self._decode(e)

    @functools.cached_property
    def unknowns(self) -> tuple:
        """``(variable index, exponent tuple)`` of each unknown."""
        return tuple(map(self.unknown, range(self.unknown_count)))

    @functools.cached_property
    def unknown_labels(self) -> tuple:
        """(label, variable index, exponent tuple) per unknown."""
        return tuple((_label(i, e), i, e) for i, e in self.unknowns)


def divergence_system(f: Poly, g: Poly, degree_bound: int) -> DivergenceSystem:
    """The divergence system of f*g up to degree ``degree_bound``.

    The walk over supports and the cleanup run here; the rows, integer
    entries over the system's ``den``, are built when read (see
    ``DivergenceSystem``).
    """
    if not f:
        raise StructuralError("f must be nonzero")
    if f.min_degree() < 1:
        raise StructuralError(
            "f has a unit part; the divergence equation is trivially "
            "solvable and the test says nothing"
        )
    return DivergenceSystem(f, g, degree_bound)


class FeasibilityVerdict(NamedTuple):
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
        system.integer_rows, system.integer_rhs, system.unknown_count
    )
    if tag == "infeasible":
        # lam . (den A) = 0 and lam . (den b) = 1: den * lam refutes A, b
        if system.den != 1:
            payload = [system.den * lam if lam else lam for lam in payload]
        return FeasibilityVerdict(
            status="infeasible",
            certificate=tuple(payload),
            unknowns=system.unknown_count,
            system=system,
        )
    variables = tuple(f.context)
    per_var = {}
    for j in compress(range(len(payload)), payload):
        i, exps = system.unknown(j)
        per_var.setdefault(i, {})[exps] = payload[j]
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


class FamilyScan(NamedTuple):
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

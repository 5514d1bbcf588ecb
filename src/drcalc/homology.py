"""Weight-truncated cochain complexes over the rationals.

Everything here is finite and exact.  A differential that never lowers
weight makes the monomials of weight above ``W`` span a subcomplex, so
the quotient spanned by the light monomials is again a complex; that
quotient is what ``weight_truncate`` materializes, one sparse rational
matrix per adjacent degree pair, with exponent tuples as basis keys.
Every assembled basis lists its keys in ascending weight, ties in lex
order (``algebra.graded_monomials``), so in each degree the keys below
the top weight ``W`` are a prefix, whose length the complex records
(``MatrixComplex.light``).  The assembly itself runs on packed
monomial codes (``algebra.MonomialCode``): the walk that lists the
basis also gives each monomial's code, the Leibniz terms are formed on
codes (``algebra.leibniz``) and target rows are looked up by code;
tuples are decoded only for the error that names a missing image
term.  Cohomology is rank-nullity bookkeeping on top of exact sparse
elimination (``elim``), one elimination per differential.

Only ranks are read here, so column order is free up to one contract.
``elim``'s kernel pivots each row at its smallest column, so the
column numbering is the pivot order: ranks do not depend on it,
fill-in does.  ``cut_cohomology`` (every report's ranks) numbers each
matrix's columns heaviest first; ``induced_map_vanishes`` reads the
mapping cone's rank, its source columns in basis order before the
target's.  ``subcomplex_cohomology`` reads a cut's ranks off the
pivots among the light positions, so it numbers the light positions
before the heavy ones; inside each block the order is free, and it
takes ascending weight, ties in reverse basis order.

Every matrix is stored as sparse integer rows, ``{row: {col: int}}``
with nonzero rows only, over one positive denominator for the whole
matrix, in lowest terms (the least common denominator of the rational
matrix, 1 whenever its entries are integers, so no prime divides it
and every entry).  The form is made once, where a matrix is
assembled: each column's image is scattered into the rows it reaches.
Products and ranks take the rows as they are; a product multiplies
rows by rows (``_row_products``), and only ``subcomplex_cohomology``,
which eliminates images of span vectors, transposes a matrix, one
degree at a time.  The rows a complex stores are never handed to
``elim``'s kernel, which reduces its rows in place: ``cut_cohomology``,
``subcomplex_cohomology`` and ``induced_map_vanishes`` feed it copies.

d o d = 0 is checked once, where a complex is assembled:
``weight_truncate`` calls ``check_composition`` on what it builds (the
conerve's minimal model in ``derham`` has no differential).  Everything
else is derived from a checked complex by a degree shift, is a quotient
by a subcomplex or is a spanned subcomplex, again a complex;
``subcomplex_cohomology`` raises unless what it is given is closed
under d, so no derived complex needs a second check and
``cohomology`` is rank-nullity only.

A subcomplex S given by spanning vectors (the stalk's differential
ideal) gets no basis of its own.  Its dimensions and the ranks of d on
it are ranks of its span vectors and of their images under d (the
Macaulay-matrix view, Lazard 1983, EUROCAL, LNCS 162), so
``subcomplex_cohomology`` reads them, and those of S's W cut, off two
eliminations per degree.  A quotient by S needs nothing more when the
complex is acyclic but for a known H^0: the long exact sequence of
0 -> S -> C -> C/S -> 0 gives H(C/S) from H(S)
(``reiffen.classical_stalk_cohomology``).

Truncation does not commute with cohomology in general.  The stability
flags reported by ``stability_report`` compare dimensions at ``W`` and
``W + 1``: evidence, not proof, that a dimension has settled.  The
complex is assembled once, at ``W + 1``; the ``W`` complex is its
quotient by the weight-``(W + 1)`` part, i.e. the same matrices cut to
the light prefix of each basis.  Its ranks are read off the ``W + 1``
elimination, not off a quotient: each matrix's light rows are
eliminated first, and since the differential never lowers weight they
are zero on every heavy column, i.e. they are the rows of the ``W``
matrix.  The pivot count after them is the ``W`` rank, the count after
the heavy rows the ``W + 1`` rank (``MatrixComplex.cut_cohomology``).
Callers that compare two constructions are expected to restrict
attention to degrees where both sides are stable.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import le
from typing import NamedTuple

from . import elim
from .algebra import (
    GradedElement,
    check_weight,
    exponent_caps,
    graded_monomials,
    leibniz,
)
from .errors import StructuralError


class MatrixComplex:
    """Bases (as key lists) per degree plus one matrix per step up.

    ``labels[n]`` lists opaque hashable basis keys: exponent tuples for
    assembled complexes, anything hashable for hand-built ones.  It is
    a tuple, or a ``range`` when the keys are mere counters, as for the
    classes of the conerve's minimal model in ``derham``, which can
    number millions.  ``diffs[n] / dens[n]``
    maps degree ``n`` to degree ``n + 1``: ``diffs[n]`` holds the
    nonzero rows ``{row: {col: int}}``, rows indexed by the target
    basis and columns by the source basis, and ``dens[n]`` is the
    positive denominator of the whole matrix, in lowest terms with them
    (see the module docstring; ``lowest_terms`` makes the form).  A
    degree missing from ``dens`` has denominator 1.  The complex takes
    its rows and its labels as they are, without a copy, and never
    changes them; a caller hands over rows it no longer changes and
    labels as tuples or ranges.

    ``light[n]`` is the complex's weight cut: the number of leading
    basis keys of degree ``n`` below its top weight, which
    ``cut_cohomology`` and ``subcomplex_cohomology`` read.  A degree
    missing from ``light`` has every key light, so a complex built
    without a cut (the conerve's minimal model, hand-built ones) cuts
    nothing.
    """

    __slots__ = ("dims", "labels", "diffs", "dens", "light")

    def __init__(self, dims, labels, diffs, dens, light=None):
        self.dims = dict(dims)
        self.labels = labels
        self.diffs = dict(diffs)
        self.dens = {n: dens.get(n, 1) for n in self.diffs}
        light = light or {}
        self.light = {n: light.get(n, d) for n, d in self.dims.items()}
        for n, count in light.items():
            if not 0 <= count <= self.dims.get(n, 0):
                raise StructuralError(
                    f"light count {count} at degree {n} is outside "
                    f"0..{self.dims.get(n, 0)}"
                )
        for n, rows in self.diffs.items():
            if self.dens[n] < 1:
                raise StructuralError(
                    f"denominator {self.dens[n]} at degree {n} is not positive"
                )
            nrows = self.dims.get(n + 1, 0)
            ncols = self.dims.get(n, 0)
            for r, row in rows.items():
                if not 0 <= r < nrows or row and not (
                    0 <= min(row) and max(row) < ncols
                ):
                    raise StructuralError(
                        f"matrix row {r} reaches outside {nrows}x{ncols} "
                        f"at degree {n}"
                    )

    def degrees(self):
        return sorted(self.dims)

    def check_composition(self):
        """Raise unless consecutive differentials compose to zero.

        The integer matrices are multiplied as they are, rows by rows:
        their denominators do not change whether the product is zero.
        The check stops at the first product row that is not zero and
        names its smallest column.
        """
        for n, first in self.diffs.items():
            second = self.diffs.get(n + 1, {})
            for _, row in _row_products(second, first):
                if row:
                    raise StructuralError(
                        f"d o d != 0 out of degree {n}, column {min(row)}"
                    )

    def cohomology(self):
        """{degree: dim H} via dim ker(d^n) - rank(d^{n-1}).

        Rank-nullity only: d o d = 0 was checked where the complex was
        assembled (see the module docstring).  It is the second half of
        ``cut_cohomology``, so a cut that is no quotient raises here
        too, as it does on a hand-built complex whose light rows reach
        a heavy column.
        """
        return self.cut_cohomology()[1]

    def cut_cohomology(self):
        """``(here, above)``: cohomology below the cut and of self.

        The complex below the cut is the quotient by the heavy keys,
        those past ``light[n]`` in each degree.  One elimination per
        degree gives both: each matrix's light rows go first
        (``elim.rank_split``).  The heavy keys must span a subcomplex,
        so a light row is zero on every heavy column, i.e. it is its
        row of the quotient's matrix, and the rank after the light rows
        is the quotient's rank.  A light row that reaches a heavy
        column raises.  The quotient's dimensions are the light counts;
        degrees without a light key disappear.

        The light keys are a prefix, so feeding the rows in basis order
        puts the light ones first.  The kernel reduces its rows in
        place, so each stored row is copied as it is fed to it, one
        degree at a time, with its columns numbered heaviest first
        (``ncols - 1 - c``), which ranks do not see: on a basis in
        ascending weight, pivoting on the heavy columns first keeps the
        echelon small (the quartic x^4+y^5+xy^4 at K 21, W 20: 3,566
        nonzeros against 9,683 in basis order).
        """
        low, high = {}, {}
        for n, rows in self.diffs.items():
            ncols, cut = self.dims.get(n, 0), self.light.get(n, 0)
            split = self.light.get(n + 1, 0)
            light, heavy = [], []
            # in basis order: the assembly's scatter order is not, and
            # the fill-in depends on the order of the rows
            for r in sorted(rows):
                (light if r < split else heavy).append(rows[r])
            if cut < ncols:
                for row in light:
                    if max(row, default=-1) >= cut:
                        raise _not_a_quotient(
                            next(c for c in row if c >= cut), n
                        )
            low[n], high[n] = elim.rank_split(
                _heaviest_first(light, ncols),
                _heaviest_first(heavy, ncols),
            )
        counts = {n: k for n, k in self.light.items() if k}
        return _rank_nullity(counts, low), _rank_nullity(self.dims, high)

    def subcomplex_cohomology(self, span, weight_of):
        """``(here, above)``: cohomology of a spanned subcomplex and its cut.

        ``span[n]`` lists sparse vectors ``{basis key: value}`` of
        degree ``n``; d must map their span S into S.  ``above`` is the
        cohomology of S, ``here`` that of its cut: S's projection that
        drops the heavy keys, a subcomplex of the complex below the
        cut.  The heavy keys must span a subcomplex, as for
        ``cut_cohomology``, and a light row that reaches a heavy column
        raises as it does there.

        No basis of S is built: both are read off ranks, with two
        eliminations per degree ``m``:

        1. the span vectors of degree ``m``, whose pivots count dim S^m;
        2. into a fresh echelon, the images under d of the pivot rows
           step 1 found one degree down, whose pivots count the rank of
           d on S^(m-1).

        The light positions are numbered before the heavy ones, so the
        pivots among them count the rank of the projection that drops
        the heavy keys: of S^m in step 1, and in step 2 of d on the cut
        of S^(m-1), since the projection commutes with d.  Each pivot
        row of step 2 lies in S when d maps S into S, so a copy of each
        is fed to step 1's echelon, and one that opens a pivot raises
        (the span is not closed under d).  Every degree of the complex
        is reported, 0 where S has no vectors.

        Inside each block the order is free: ranks do not see it, but
        fill-in does.  Positions are numbered by ascending
        ``weight_of(key)``, ties in reverse basis order (on an assembled
        basis, descending lex).  The stalk of x^3+y^3+z^4+xyz at W 20
        then takes 0.31 M row operations (``elim._axpy`` calls),
        against 0.44 M heaviest first and 0.56 M in basis order; that of
        x^5+y^7+xy^6 at W 40 takes 59 k, against 515 k heaviest first
        and 66 k in basis order.
        """
        low, high, here, above = {}, {}, {}, {}
        found = {}  # degree -> step 1's pivot rows, on basis positions
        for m in sorted(self.dims):
            keys, cut = self.labels[m], self.light[m]
            order = sorted(
                range(len(keys)),
                key=lambda i: (i >= cut, weight_of(keys[i]), -i),
            )
            number = sorted(range(len(keys)), key=order.__getitem__)
            index = dict(zip(keys, number))
            pivots = elim.echelon(
                {index[key]: v for key, v in vec.items()}
                for vec in span.get(m, ())
            )
            above[m], here[m] = len(pivots), sum(c < cut for c in pivots)
            found[m] = {
                order[c]: {order[j]: v for j, v in row.items()}
                for c, (row, _) in pivots.items()
            }
            n = m - 1
            split = self.light.get(n, 0)
            columns = {}  # d's columns into degree m, numbered as above
            for r, row in self.diffs.get(n, {}).items():
                if r < cut and max(row, default=-1) >= split:
                    raise _not_a_quotient(next(c for c in row if c >= split), n)
                for c, v in row.items():
                    columns.setdefault(c, {})[number[r]] = v
            images = elim.echelon(
                image for _, image in _row_products(found.pop(n, {}), columns)
            )
            high[n], low[n] = len(images), sum(c < cut for c in images)
            for row, _ in images.values():
                if len(elim.echelon([row], pivots)) > above[m]:
                    raise StructuralError(
                        f"span is not closed under d: an image in degree {m} "
                        "leaves the span at basis position "
                        f"{order[next(reversed(pivots))]}"
                    )
        return _rank_nullity(here, low), _rank_nullity(above, high)

    def euler_characteristic(self) -> int:
        return sum((-d if n % 2 else d) for n, d in self.dims.items())


class CohomologyReport(NamedTuple):
    """Per-degree dimensions with optional stability flags."""

    dims: tuple  # ((degree, dim), ...) ascending
    stable: tuple  # ((degree, bool), ...) or () when not assessed

    def dim(self, degree) -> int:
        for n, d in self.dims:
            if n == degree:
                return d
        return 0

    def is_stable(self, degree):
        for n, flag in self.stable:
            if n == degree:
                return flag
        return None

    def format(self) -> str:
        if not self.stable:
            raise StructuralError(
                "report has no stability flags; use stability_report"
            )
        flags = dict(self.stable)
        lines = []
        for n, d in self.dims:
            flag = "true" if flags.get(n, False) else "false"
            lines.append(f"H^{{{n}}} dim={d} stable={flag}")
        return "\n".join(lines)


def weight_truncate(source, weight) -> MatrixComplex:
    """Finite quotient complex of everything of weight at most ``weight``.

    ``source`` is any object exposing ``truncation_data()``, which
    returns ``(context, differential, hodge)``: ``hodge`` is ``None`` or
    the range of Hodge columns kept (columns above it span a subcomplex
    and are quotiented away).  Basis keys are exponent tuples by
    ascending weight.

    One walk (``graded_monomials``) lists the basis with each
    monomial's weight, Hodge level, degree and code.  Each basis
    monomial's image is formed on codes (``algebra.leibniz``), integral
    coefficients as ints, from the image terms that stay within the
    weight and Hodge level left above it: the cuts are decided from
    each term's raises, worked out once, before the term is formed.  A
    formed term is looked up by code among the basis one degree up, and
    one that is not there is missing; the image is scattered into the
    rows it reaches.  Each matrix is brought to lowest terms once.  The
    assembled complex is checked for d o d = 0 before it is returned.
    """
    ctx, diff, hodge = source.truncation_data()
    for i, image in diff.images.items():
        gen = ctx.gens[i]
        lowest = image.min_weight()
        if lowest is not None and lowest < gen.weight:
            raise StructuralError(
                f"differential lowers weight on generator {gen.name!r}: "
                f"image has weight {lowest} < {gen.weight}"
            )
    low_hodge, top_hodge = 0, None
    if hodge is not None:
        low_hodge, top_hodge = hodge.start, hodge.stop - 1
    code = diff.code_for(exponent_caps(ctx, weight))
    # a Leibniz term raises weight and Hodge level by what its image
    # term does over its generator; room past the largest raise keeps
    # every term, so rooms are capped there and few tables are built
    raises = {
        (i, t): (
            ctx.weight_of(t) - ctx._weights[i],
            ctx.hodge_of(t) - ctx._hodges[i],
        )
        for i, image in diff.images.items()
        for t in image.terms
    }
    most_w = max((r for r, _ in raises.values()), default=0)
    most_h = max((r for _, r in raises.values()), default=0)
    buckets = {}  # degree -> [(exps, room, code)]
    light = {}  # degree -> keys below the top weight, a prefix
    for m, w, h, n, c in graded_monomials(ctx, weight, top_hodge, code):
        if h < low_hodge:
            continue
        light[n] = light.get(n, 0) + (w < weight)
        room = (
            min(weight - w, most_w),
            most_h if top_hodge is None else min(top_hodge - h, most_h),
        )
        buckets.setdefault(n, []).append((m, room, c))
    tables = {}  # room -> coded_table of the terms that stay in it
    odd_bits = code.odd_bits
    diffs, dens = {}, {}
    for n, ms in buckets.items():
        rows = {}
        target = {c: i for i, (_, _, c) in enumerate(buckets.get(n + 1, ()))}
        for col, (m, room, c) in enumerate(ms):
            table = tables.get(room)
            if table is None:
                table = tables[room] = diff.coded_table(
                    code,
                    lambda i, t, room=room: all(map(le, raises[i, t], room)),
                )
            image = {}
            leibniz(table, odd_bits, m, c, 1, image)
            for k, coeff in image.items():
                if not coeff:
                    continue
                row = target.get(k)
                if row is None:
                    raise StructuralError(
                        f"image term {ctx.monomial_str(code.decode(k))} "
                        f"missing from degree {n + 1} basis"
                    )
                rows.setdefault(row, {})[col] = coeff
        # the coded loop formed diff.den times each image, on ints
        diffs[n], dens[n] = lowest_terms(rows, diff.den)
    dims = {n: len(ms) for n, ms in buckets.items()}
    labels = {n: tuple(m for m, _, _ in ms) for n, ms in buckets.items()}
    cx = MatrixComplex(dims, labels, diffs, dens, light)
    cx.check_composition()
    return cx


def stability_report(source, weight) -> CohomologyReport:
    """Cohomology at ``weight`` with per-degree (W vs W+1) flags.

    The source is assembled once, at ``weight + 1``.
    """
    return restricted_report(lambda w: weight_truncate(source, w), weight)


def restricted_report(build, weight) -> CohomologyReport:
    """Flagged report from one build and one elimination per degree.

    ``build(weight + 1)`` is the W+1 complex, its cut at the keys of
    weight ``weight + 1``; the W complex is its quotient by them, and
    ``cut_cohomology`` reads both off the W+1 elimination, light rows
    first, with no quotient built.  d o d = 0 is checked once, when
    the W+1 complex is assembled.
    """
    check_weight(weight)
    return flag_stability(*build(weight + 1).cut_cohomology())


def flag_stability(here, above) -> CohomologyReport:
    """Report the dims ``here`` flagged by agreement with ``above``.

    Both are ``{degree: dim}``; the flags cover every degree either
    side has.
    """
    degrees = sorted(set(here) | set(above))
    return CohomologyReport(
        dims=tuple(sorted(here.items())),
        stable=tuple((n, here.get(n, 0) == above.get(n, 0)) for n in degrees),
    )


def chain_map_check(morphism, weight) -> "ChainMapReport":
    """Verify a presentation morphism commutes with d at truncation W.

    Both sides are assembled as matrices; the check is
    ``Phi_{n+1} d_src^n == d_tgt^n Phi_n`` for every degree of the
    source.  Each side is an integer product over the product of its
    factors' denominators; brought to lowest terms, the one integer
    form of a rational matrix, the two are compared as they are.
    Failure is a result, not an exception.
    """
    src = weight_truncate(morphism.source, weight)
    tgt = weight_truncate(morphism.target, weight)
    mats = morphism_matrices(morphism, src, tgt, weight)
    for n in src.degrees():
        lhs = _compose(mats.get(n + 1, {}), src.diffs.get(n, {}))
        rhs = _compose(tgt.diffs.get(n, {}), mats.get(n, {}))
        lhs_den = mats.dens.get(n + 1, 1) * src.dens.get(n, 1)
        rhs_den = tgt.dens.get(n, 1) * mats.dens.get(n, 1)
        if lowest_terms(lhs, lhs_den) != lowest_terms(rhs, rhs_den):
            return ChainMapReport(False, n)
    return ChainMapReport(True, None)


class ChainMapReport(NamedTuple):
    ok: bool
    first_failure_degree: object

    def __bool__(self):
        return self.ok


def lowest_terms(rows, den):
    """``(rows, den)`` with their common factor divided out.

    ``rows`` are ``{row: {col: int}}`` and ``den`` a positive int; the
    pair is returned as it is when ``den`` is 1, the common case.
    """
    if den > 1:
        g = gcd(den, *(v for row in rows.values() for v in row.values()))
        if g > 1:
            rows = {
                r: {c: v // g for c, v in row.items()}
                for r, row in rows.items()
            }
            den //= g
    return rows, den


def _integral(rows):
    """``(rows, den)``: rational rows as ints over one denominator.

    ``den`` is the least common denominator of the entries: this is
    ``elim.integral`` of a whole matrix.
    """
    den = lcm(*(v.denominator for row in rows.values() for v in row.values()))
    return {
        r: {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        for r, row in rows.items()
    }, den


def _heaviest_first(rows, ncols):
    """Copies of ``rows``, made one at a time as they are read.

    Column ``c`` of a copy is numbered ``ncols - 1 - c``.
    """
    last = ncols - 1
    for row in rows:
        copy = {}
        for c, v in row.items():
            copy[last - c] = v
        yield copy


def _not_a_quotient(c, n):
    """The error for a dropped column ``c`` of degree ``n`` reaching a
    kept row: the dropped keys span no subcomplex."""
    return StructuralError(
        f"restriction is not a quotient: dropped column {c} of degree {n} "
        "reaches a kept row"
    )


def _rank_nullity(dims, ranks):
    """``{degree: dim - rank out of it - rank into it}``, degrees ascending."""
    return {
        n: dims[n] - ranks.get(n, 0) - ranks.get(n - 1, 0)
        for n in sorted(dims)
    }


def _row_products(outer, inner):
    """``(r, {col: int})`` per row ``r`` of outer o inner, lazily.

    Both factors are rows; row ``r`` of the product sums row ``mid`` of
    ``inner`` times ``outer[r][mid]``.  Summed as they are, with no
    rescaling; only nonzero entries are kept.
    """
    for r, row in outer.items():
        acc = {}
        for mid, w in row.items():
            for c, v in inner.get(mid, {}).items():
                acc[c] = acc.get(c, 0) + w * v
        yield r, {c: v for c, v in acc.items() if v}


def _compose(second, first):
    """Sparse product second o first of ``{row: {col: value}}`` rows.

    The product of two stored matrices is over the product of their
    denominators.  Only nonzero rows and entries are kept.
    """
    return {r: row for r, row in _row_products(second, first) if row}


class GradedMatrices(dict):
    """``{degree: {row: {col: int}}}`` with one ``dens[degree]`` each.

    The form of ``morphism_matrices``: each matrix is in the integer
    form of a ``MatrixComplex`` differential.
    """

    __slots__ = ("dens",)


def morphism_matrices(morphism, src_cx, tgt_cx, weight) -> GradedMatrices:
    """Degree-indexed sparse matrices of a morphism between truncations.

    Both complexes must be keyed by exponent tuples over the morphism's
    source and target contexts: the matrices are computed by pushing
    each source basis monomial through the generator images and
    expanding in the target basis (terms falling outside the truncation
    are projected away), each image scattered into the rows it reaches.
    Each matrix is scaled to integers once.
    """
    src_ctx = morphism.source.context
    mats = GradedMatrices()
    mats.dens = {}
    for n in src_cx.degrees():
        target_index = {
            exps: i for i, exps in enumerate(tgt_cx.labels.get(n, ()))
        }
        rows = {}
        for col, exps in enumerate(src_cx.labels[n]):
            image = morphism.apply(GradedElement.monomial(src_ctx, exps))
            image = image.weight_filter(weight)
            for t_exps, coeff in image.terms.items():
                row = target_index.get(t_exps)
                if row is not None:
                    rows.setdefault(row, {})[col] = coeff
        mats[n], mats.dens[n] = _integral(rows)
    return mats


def induced_map_vanishes(src_cx, tgt_cx, mats, degree) -> bool:
    """Does the induced map on H^degree land in zero?

    Read off the rank of the mapping cone's differential (Weibel 1994,
    §1.5) out of degree ``n``,

        M = [[d_src^n, 0], [phi_n, d_tgt^(n-1)]],

    whose kernel is the pairs (z, t) with d z = 0 and phi z = -d t.
    Dropping t maps it onto the cycles that phi sends to boundaries,
    with kernel the cycles of d_tgt^(n-1), so every cycle goes to a
    boundary exactly when rank M = rank d_src^n + rank d_tgt^(n-1).
    That holds for any linear phi, a chain map or not.  Each block
    stays on its own stored integers: scaling a block row or a block
    column changes no rank.  ``elim.rank_split`` reads rank d_src^n
    and rank M off one elimination of copies, d_src^n's rows first,
    then those of [phi_n | d_tgt^(n-1)] with d_tgt's columns numbered
    after the source's; ``elim.echelon`` gives rank d_tgt^(n-1).
    """
    n = degree
    shift = src_cx.dims.get(n, 0)
    bnd = tgt_cx.diffs.get(n - 1, {})
    cone = {r: dict(row) for r, row in mats.get(n, {}).items()}
    for r, row in bnd.items():
        cone.setdefault(r, {}).update(
            (shift + c, v) for c, v in row.items()
        )
    rank_src, rank_cone = elim.rank_split(
        (dict(row) for row in src_cx.diffs.get(n, {}).values()),
        cone.values(),
    )
    return rank_cone == rank_src + len(elim.echelon(bnd.values()))

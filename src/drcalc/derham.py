"""Hodge-truncated derived de Rham complexes and their comparisons.

Starting from a Koszul-style presentation, the stage construction
adjoins one de Rham generator per variable and per odd generator:
``dx`` is odd (form degree 1, internal degree 0) and ``dxi`` is even
(form degree 1, internal degree -1), so powers of ``dxi`` are symmetric
— the characteristic-zero reason no divided powers appear.  The total
differential is the sum of the internal boundary, extended by
``del(dxi) = -d(f)``, and the de Rham differential ``x -> dx``,
``xi -> dxi``; the two anticommute, so the sum squares to zero.

The Hodge level ``K`` keeps form degrees up to and including ``K``
(columns 0..K); the weight bound ``W`` cuts the coefficient direction.
Heavy monomials and high forms span subcomplexes, so both cuts are
quotients and the result is a finite bicomplex.

Also here: the two-term cotangent complex and its wedge powers, the
column-versus-wedge comparison, polynomial homotopy invariance, the
fibre-sequence bookkeeping for a hypersurface, and the Amitsur side of
the descent comparison: the normalized tensor-power conerve, cut at a
column, whose cohomology is forced (ℚ in degree 0, a count of weight
tuples in the last column's degree, 0 elsewhere) and is returned in
closed form, with no key of the conerve built, against the de Rham
stage.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .algebra import (
    Derivation,
    GradedContext,
    GradedElement,
    Generator,
    check_weight,
)
from .dg import (
    DGPresentation,
    koszul_presentation,
    presentation_check,
)
from .errors import StructuralError
from .homology import (
    CohomologyReport,
    MatrixComplex,
    restricted_report,
    stability_report,
    weight_truncate,
)
from .poly import Poly


# ---------------------------------------------------------------------------
# stage construction


def _stage_context(pres: DGPresentation) -> GradedContext:
    gens = list(pres.context.gens)
    for name in pres.even:
        gens.append(Generator("d" + name, 1, 1, 1))
    for g in pres.odd:
        gens.append(Generator("d" + g.name, g.degree + 1, g.weight, 1))
    return GradedContext(gens)


def _stage_derivations(pres: DGPresentation, ctx: GradedContext):
    """(internal boundary, de Rham differential) on the stage context."""
    d_images = {}
    for name in pres.even:
        d_images[name] = GradedElement.generator(ctx, "d" + name)
    for g in pres.odd:
        d_images[g.name] = GradedElement.generator(ctx, "d" + g.name)
    d_dr = Derivation(ctx, d_images)
    del_images = {}
    for g in pres.odd:
        image = pres.images.get(g.name)
        if image is None or not image:
            continue
        lifted = image.cast_to(ctx)
        del_images[g.name] = lifted
        del_images["d" + g.name] = -d_dr(lifted)
    boundary = Derivation(ctx, del_images)
    return boundary, d_dr


class DeRhamStage(NamedTuple):
    """Truncated total complex of a presentation's de Rham theory."""

    presentation: DGPresentation
    hodge_level: int
    weight: int

    def truncation_data(self):
        ctx = _stage_context(self.presentation)
        boundary, d_dr = _stage_derivations(self.presentation, ctx)
        return ctx, boundary + d_dr, range(self.hodge_level + 1)

    def complex(self, weight=None) -> MatrixComplex:
        return weight_truncate(self, self.weight if weight is None else weight)

    def report(self) -> CohomologyReport:
        return stability_report(self, self.weight)


def derham_stage(pres: DGPresentation, hodge_level: int, weight: int) -> DeRhamStage:
    if hodge_level < 1:
        raise StructuralError("Hodge level must be positive")
    check = presentation_check(pres)
    if not check:
        raise StructuralError(f"presentation rejected: {check.failures[0]}")
    return DeRhamStage(pres, hodge_level, weight)


def free_presentation(variables) -> DGPresentation:
    """The smooth case: even variables only, zero differential."""
    return DGPresentation(tuple(variables), (), {})


# ---------------------------------------------------------------------------
# cotangent complex and wedge powers


class CotangentPresentation(NamedTuple):
    """Two-term free-module complex ``B dxi -> B dx`` over the base.

    Internal degrees: the ``dx`` span sits in degree 0, each ``dxi``
    generator one step below; the differential sends ``dxi`` to the
    exterior derivative of the equation it bounds.  As a truncation
    source it is the Hodge column ``column`` of the stage under the
    internal boundary alone; column 1 is the cotangent complex itself,
    column k its k-th wedge power in the stage's own realization.
    """

    base: DGPresentation
    column: int = 1

    def truncation_data(self):
        ctx = _stage_context(self.base)
        boundary, _ = _stage_derivations(self.base, ctx)
        return ctx, boundary, range(self.column, self.column + 1)

    def complex(self, weight) -> MatrixComplex:
        """The column slice, graded by internal degree."""
        return _shift_degrees(weight_truncate(self, weight), -self.column)

    def report(self, weight) -> CohomologyReport:
        return restricted_report(self.complex, weight)


def cotangent_complex(pres: DGPresentation) -> CotangentPresentation:
    check = presentation_check(pres)
    if not check:
        raise StructuralError(f"presentation rejected: {check.failures[0]}")
    return CotangentPresentation(pres)


def _shift_degrees(cx: MatrixComplex, shift: int) -> MatrixComplex:
    dims = {n + shift: d for n, d in cx.dims.items()}
    labels = {n + shift: ls for n, ls in cx.labels.items()}
    diffs = {n + shift: m for n, m in cx.diffs.items()}
    dens = {n + shift: d for n, d in cx.dens.items()}
    light = {n + shift: k for n, k in cx.light.items()}
    return MatrixComplex(dims, labels, diffs, dens, light)


class _WedgeSource:
    """Reordered realization of a wedge power, for independent assembly.

    The context puts the module generators first and the base algebra
    after them, so monomial order, signs, and matrix layout all differ
    from the stage realization; agreement of cohomology tables is then
    an actual check rather than a tautology.
    """

    def __init__(self, base: DGPresentation, k: int):
        self.base = base
        self.k = k
        gens = []
        for name in base.even:
            gens.append(Generator("d" + name, 1, 1, 1))
        for g in base.odd:
            gens.append(Generator("d" + g.name, g.degree + 1, g.weight, 1))
        gens += list(base.context.gens)
        self.context = GradedContext(gens)

    def truncation_data(self):
        boundary, _ = _stage_derivations(self.base, self.context)
        return self.context, boundary, range(self.k, self.k + 1)


def wedge_power(cotangent: CotangentPresentation, k: int, weight: int) -> MatrixComplex:
    """k-th wedge of the cotangent complex, in total degrees.

    Exterior on the odd ``dx`` generators, symmetric on the even
    ``dxi`` ones, with base-algebra coefficients.  Degrees are not
    shifted: like ``hodge_graded``, the result sits in the total
    degrees of the k-th Hodge column, so the two compare directly.
    """
    if k < 0:
        raise StructuralError("wedge exponent must be non-negative")
    return weight_truncate(_WedgeSource(cotangent.base, k), weight)


def hodge_graded(pres: DGPresentation, k: int, weight: int) -> MatrixComplex:
    """The Hodge-degree-k column of the stage, internal differential only."""
    if k < 0:
        raise StructuralError("column index must be non-negative")
    return weight_truncate(CotangentPresentation(pres, k), weight)


# ---------------------------------------------------------------------------
# Cartier comparison


class CartierReport(NamedTuple):
    k: int
    graded_dims: tuple  # ((degree, dim), ...) for the Hodge column
    wedge_dims: tuple  # ((degree, dim), ...) for the wedge power
    verdicts: tuple  # ((degree, "equal"|"mismatch"|"inconclusive"), ...)

    @property
    def verdict(self) -> str:
        concl = [v for _, v in self.verdicts if v != "inconclusive"]
        if any(v == "mismatch" for v in concl):
            return "mismatch"
        if concl:
            return "equal"
        return "inconclusive"

    def verdict_line(self) -> str:
        return f"cartier k={self.k} verdict={self.verdict}"


def cartier_check(pres: DGPresentation, k: int, weight: int) -> CartierReport:
    """Compare the k-th Hodge column against the k-th wedge of 𝕃.

    Verdicts are per total degree: ``equal``/``mismatch`` where both
    realizations are weight-stable, ``inconclusive`` where either is
    not.
    """
    cot = cotangent_complex(pres)
    graded = restricted_report(lambda w: hodge_graded(pres, k, w), weight)
    wedge = restricted_report(lambda w: wedge_power(cot, k, w), weight)
    g_stable = dict(graded.stable)
    w_stable = dict(wedge.stable)
    verdicts = []
    for n in sorted(set(g_stable) | set(w_stable)):
        if g_stable.get(n, True) and w_stable.get(n, True):
            ok = graded.dim(n) == wedge.dim(n)
            verdicts.append((n, "equal" if ok else "mismatch"))
        else:
            verdicts.append((n, "inconclusive"))
    return CartierReport(
        k=k,
        graded_dims=tuple((n, graded.dim(n)) for n in g_stable),
        wedge_dims=tuple((n, wedge.dim(n)) for n in w_stable),
        verdicts=tuple(verdicts),
    )


# ---------------------------------------------------------------------------
# polynomial homotopy invariance


class InvarianceReport(NamedTuple):
    ok: bool
    compared: tuple  # ((degree, dim_base, dim_extended), ...) joint-stable
    skipped: tuple  # degrees excluded as unstable

    def __bool__(self):
        return self.ok


def _fresh_name(taken):
    for base in ("u", "v", "w"):
        if base not in taken:
            return base
    i = 0
    while f"u{i}" in taken:
        i += 1
    return f"u{i}"


def extend_with_variable(pres: DGPresentation) -> DGPresentation:
    """Same presentation over one more free even variable."""
    taken = {g.name for g in pres.context.gens}
    taken |= {"d" + g.name for g in pres.context.gens}
    name = _fresh_name(taken)
    even = tuple(pres.even) + (name,)
    rebuilt = DGPresentation(even, pres.odd, {})
    images = {
        key: img.cast_to(rebuilt.context) for key, img in pres.images.items()
    }
    return DGPresentation(even, pres.odd, images)


def a1_invariance_check(
    pres: DGPresentation, weight: int, hodge_level: int
) -> InvarianceReport:
    """Stable-range dims unchanged under adjoining a free variable."""
    base = stability_report(derham_stage(pres, hodge_level, weight), weight)
    wide = stability_report(
        derham_stage(extend_with_variable(pres), hodge_level, weight), weight
    )
    degrees = sorted(
        {n for n, _ in base.dims} | {n for n, _ in wide.dims}
    )
    compared = []
    skipped = []
    for n in degrees:
        if base.is_stable(n) and wide.is_stable(n):
            compared.append((n, base.dim(n), wide.dim(n)))
        else:
            skipped.append(n)
    ok = all(a == b for _, a, b in compared) and bool(compared)
    return InvarianceReport(ok, tuple(compared), tuple(skipped))


# ---------------------------------------------------------------------------
# fibre-sequence bookkeeping


class FibreReport(NamedTuple):
    ambient: tuple  # ((degree, dim), ...) de Rham of the free algebra
    deep_part_dim: int  # dimension of the I^infinity subspace at W
    deep_power: int  # the power of f certified to leave the window
    stage: tuple  # ((degree, dim), ...) of the de Rham stage
    euler_ambient: int
    euler_stage: int

    @property
    def additivity(self) -> bool:
        # with the deep part certified zero, additivity is agreement of
        # the other two Euler characteristics
        return self.deep_part_dim == 0 and self.euler_ambient == self.euler_stage

    def format(self) -> str:
        lines = []
        for n, d in self.ambient:
            lines.append(f"ambient H^{{{n}}} dim={d}")
        lines.append(
            f"deep-intersection dim={self.deep_part_dim} "
            f"(f^{self.deep_power} clears the window)"
        )
        for n, d in self.stage:
            lines.append(f"stage H^{{{n}}} dim={d}")
        lines.append(
            f"euler ambient={self.euler_ambient} stage={self.euler_stage} "
            f"additivity={'true' if self.additivity else 'false'}"
        )
        return "\n".join(lines)


def completion_fibre_report(f: Poly, hodge_level: int, weight: int) -> FibreReport:
    """Three-complex bookkeeping for the hypersurface cut out by ``f``.

    The ambient complex is the de Rham complex of the free algebra; the
    deep part is the intersection of all powers of (f) with the weight
    window, which Krull's theorem makes zero — certified here by
    checking a single sufficiently high power clears the window: every
    term of f^power has degree above the window, every generator has
    weight at least 1, so no multiple of f^power has a term inside it.
    The stage is the derived de Rham complex of the quotient.  With the
    deep part zero, additivity of Euler characteristics reduces to the
    ambient and stage complexes agreeing.
    """
    if not f:
        raise StructuralError("hypersurface equation must be nonzero")
    if f.min_degree() < 1:
        raise StructuralError(
            "f has a unit part; the hypersurface misses the origin and "
            "the powers of (f) never leave the weight window"
        )
    variables = tuple(f.context)
    free = free_presentation(variables)
    ambient_cx = weight_truncate(
        DeRhamStage(free, hodge_level, weight), weight
    )

    md = f.min_degree()
    power = weight // md + 1
    high = f ** power
    if high.min_degree() <= weight:
        raise StructuralError("power bookkeeping error")  # pragma: no cover

    stage = derham_stage(
        koszul_presentation(variables, [f], 1), hodge_level, weight
    )
    stage_cx = stage.complex()
    return FibreReport(
        ambient=tuple(sorted(ambient_cx.cohomology().items())),
        deep_part_dim=0,
        deep_power=power,
        stage=tuple(sorted(stage_cx.cohomology().items())),
        euler_ambient=ambient_cx.euler_characteristic(),
        euler_stage=stage_cx.euler_characteristic(),
    )


# ---------------------------------------------------------------------------
# tensor-power conerve vs the de Rham stage


class AmitsurComparison(NamedTuple):
    trusted_degrees: tuple
    amitsur_dims: tuple  # ((degree, dim), ...) over the trusted range
    derham_dims: tuple
    derham_stable: tuple
    verdicts: tuple  # ((degree, "equal"|"mismatch"), ...)

    def format(self) -> str:
        lines = []
        table = dict(self.verdicts)
        a = dict(self.amitsur_dims)
        d = dict(self.derham_dims)
        for n in self.trusted_degrees:
            lines.append(
                f"n={n} amitsur={a.get(n, 0)} derham={d.get(n, 0)} "
                f"verdict={table[n]}"
            )
        return "\n".join(lines)


def conerve_totalization(variables, f: Poly, p_max: int, weight: int) -> MatrixComplex:
    """The conerve of columns 0..p_max, cut at ``weight``: its minimal model.

    Column p of the Čech–Amitsur conerve is the (p+1)-fold tensor power
    of K, the weight-truncated Koszul complex of f (t ↦ f, t of weight
    d = min_degree(f)), on slot tuples of total weight at most
    ``weight``; the normalized conerve keeps the tuples whose slots
    1..p are not the unit.  Its cohomology is forced:

    1. Every accepted f has f(0) = 0, so K is augmented and the
       normalized conerve has the extra codegeneracy
       h(p, (1, k1, ..., kp)) = (p - 1, (k1, ..., kp)), with
       dh + hd = id - φ (Weibel, *An Introduction to Homological
       Algebra*, 8.4.6).  φ projects onto ℚ·1 ⊕ N, the unit and the
       keys of column p_max whose slot 0 is not the unit, a subcomplex
       with the same cohomology as the whole.  N's differential is
       K's, slot by slot.
    2. d never lowers weight, so the keys of N of weight at least w
       span a subcomplex: a finite filtration, whose spectral sequence
       converges (Weibel 5.4).  Its E0 is N built from f_d, the part of
       f of degree d, since the rest of f raises weight.
    3. A slot of weight w >= 1 of that E0 is the Koszul complex
       t·ℚ[x]_(w-d) -> ℚ[x]_w, multiplication by f_d, injective since
       ℚ[x] is a domain.  Its cohomology is (ℚ[x]/(f_d))_w in internal
       degree 0 only, of dimension
       h(w) = C(w+n-1, n-1) - C(w-d+n-1, n-1), n variables, the second
       term 0 for w < d.  By Künneth over ℚ, E1 sits in total degree
       p_max alone, so the sequence degenerates there.

    So H is ℚ in degree 0 and, in degree p_max, of dimension the sum
    over w0 + ... + wp_max <= ``weight``, all wi >= 1, of the products
    h(w0)···h(wp_max), and 0 elsewhere.  That is what is returned, with
    no differential: the unit ``(0, (1,))`` in degree 0 and the count's
    classes in degree p_max, labelled ``range(count)``, so no key of N
    is built.  The count is a convolution over weights.
    """
    koszul_presentation(variables, [f], 1)  # refuses f as K would
    check_weight(weight)
    if p_max < 1:
        raise StructuralError(f"p_max {p_max} is below 1: no column past 0")
    n, d = len(variables), f.min_degree()
    h = [0] + [
        comb(w + n - 1, n - 1) - (comb(w - d + n - 1, n - 1) if w >= d else 0)
        for w in range(1, weight + 1)
    ]
    ways = [1] + [0] * weight  # tuples of the slots so far, by weight
    for _ in range(p_max + 1):
        ways = [sum(ways[v] * h[w - v] for v in range(w)) for w in range(weight + 1)]
    count = sum(ways)
    dims, labels = {0: 1}, {0: ((0, ((0,) * (n + 1),)),)}
    if count:
        dims[p_max], labels[p_max] = count, range(count)
    return MatrixComplex(dims, labels, {}, {})


def amitsur_vs_derham(
    f: Poly, p_max: int, hodge_level: int, weight: int
) -> AmitsurComparison:
    """Descent-completion dims against the de Rham stage, low degrees.

    The conerve totalization is cut at column p_max, so only degrees up
    to p_max - 2 are unaffected by the cut; those are compared against
    the stage of the one-generator Koszul presentation at the same
    weight.  The conerve's side is its closed form
    (``conerve_totalization``): 1 in degree 0 and 0 in the rest of that
    range.
    """
    if not f:
        raise StructuralError("need a nonzero equation")
    if p_max < 2:
        raise StructuralError("need at least three columns to trust degree 0")
    variables = tuple(f.context)
    tot = conerve_totalization(variables, f, p_max, weight)
    tot_h = tot.cohomology()
    stage = derham_stage(
        koszul_presentation(variables, [f], 1), hodge_level, weight
    )
    rep = stability_report(stage, weight)
    trusted = tuple(range(0, p_max - 1))
    verdicts = []
    for n in trusted:
        ok = tot_h.get(n, 0) == rep.dim(n)
        verdicts.append((n, "equal" if ok else "mismatch"))
    return AmitsurComparison(
        trusted_degrees=trusted,
        amitsur_dims=tuple((n, tot_h.get(n, 0)) for n in trusted),
        derham_dims=tuple((n, rep.dim(n)) for n in trusted),
        derham_stable=tuple((n, bool(rep.is_stable(n))) for n in trusted),
        verdicts=tuple(verdicts),
    )

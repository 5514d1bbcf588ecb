"""Presentations of free graded-commutative dg algebras.

A presentation lists even variables (degree 0), odd generators in
negative degrees with assigned weights, and the differential on the
odd generators.  The differential raises degree by one; signs follow
the Koszul rule fixed in the algebra layer.

The ambient is always free: a quotient such as Q[x,y]/(xy) is
presented derivedly, by an odd generator s with d s = xy; the even
variables satisfy no equations of their own.

Koszul algebras and their tower transition maps are the two
constructors the rest of the package consumes; the conerve of a
principal quotient, the tensor powers of one Koszul algebra, is not
built: ``derham`` reads its cohomology off a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Derivation,
    GradedContext,
    GradedElement,
    Generator,
    multiply_terms,
    term_list,
)
from .errors import StructuralError
from .poly import Poly


@dataclass(frozen=True)
class OddGenerator:
    name: str
    degree: int
    weight: int


class DGPresentation:
    """Semifree model: even variables, odd generators, differential."""

    __slots__ = ("even", "odd", "context", "images")

    def __init__(self, even, odd, images):
        self.even = tuple(even)
        self.odd = tuple(odd)
        for g in self.odd:
            if g.degree >= 0:
                raise StructuralError(
                    f"odd generator {g.name!r} must sit in negative degree"
                )
        gens = [Generator(n, 0, 1, 0) for n in self.even]
        gens += [Generator(g.name, g.degree, g.weight, 0) for g in self.odd]
        self.context = GradedContext(gens)
        lifted = {}
        for name, value in images.items():
            if isinstance(value, Poly):
                value = value.cast_to(self.context)
            lifted[name] = value
        self.images = lifted

    def __eq__(self, other):
        return (
            isinstance(other, DGPresentation)
            and self.even == other.even
            and self.odd == other.odd
            and self.images == other.images
        )

    def boundary(self) -> Derivation:
        return Derivation(self.context, self.images)

    def truncation_data(self):
        return self.context, self.boundary(), None

    def generator(self, name) -> GradedElement:
        return GradedElement.generator(self.context, name)

    def __str__(self):
        lines = ["vars " + " ".join(self.even)]
        for g in self.odd:
            lines.append(f"odd {g.name} deg {g.degree} weight {g.weight}")
        for g in self.odd:
            image = self.images.get(g.name)
            lines.append(f"d {g.name} = {image if image else 0}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failures: tuple = ()

    def __bool__(self):
        return self.ok


def presentation_check(pres: DGPresentation) -> CheckReport:
    """d²=0 and weight monotonicity on the odd generators.

    Failures are collected and reported, never raised; the first entry
    names the first violated identity.  The Koszul sign rule is not
    checked here: it is the algebra kernel's (``algebra._mul_exps``),
    whatever the presentation.
    """
    failures = []
    try:
        d = pres.boundary()
    except StructuralError as exc:
        return CheckReport(False, (str(exc),))
    for g in pres.odd:
        image = pres.images.get(g.name)
        if image is None or not image:
            continue
        square = d(image)
        if square:
            failures.append(f"d^2 {g.name} = {square} != 0")
        light = image.min_weight()
        if light is not None and light < g.weight:
            failures.append(
                f"d lowers weight on {g.name}: {light} < {g.weight}"
            )
    return CheckReport(not failures, tuple(failures))


class DGMorphism:
    """Generator-image map between presentations.

    Generators without a listed image go to the same-named generator of
    the target.  The chain-map property is not enforced here — use
    ``commutes_on_generators`` or the matrix-level check; a broken map
    is representable on purpose so that checks have something to fail.
    """

    __slots__ = ("source", "target", "images", "_terms")

    def __init__(self, source: DGPresentation, target: DGPresentation, images=None):
        self.source = source
        self.target = target
        self.images = {}
        for g in source.context.gens:
            if images and g.name in images:
                value = images[g.name]
                if isinstance(value, Poly):
                    value = value.cast_to(target.context)
            else:
                value = GradedElement.generator(target.context, g.name)
            self.images[g.name] = value
        self._terms = tuple(
            term_list(self.images[g.name]) for g in source.context.gens
        )

    def apply(self, elem: GradedElement) -> GradedElement:
        """Image of ``elem`` in the target.

        Each monomial's image is the product of its generators' image
        term lists in source order, multiplied out on exponent tuples;
        all monomials land in one accumulator.
        """
        tgt = self.target.context
        one = (0,) * len(tgt)
        acc = {}
        for exps, coeff in term_list(elem):
            partial = ((one, coeff),)
            for e, image in zip(exps, self._terms):
                for _ in range(e):
                    partial = multiply_terms(tgt, partial, image).items()
            for m, c in partial:
                acc[m] = acc.get(m, 0) + c
        return GradedElement.from_accumulator(tgt, acc)

    def commutes_on_generators(self):
        """None if a chain map, else the name of the first bad generator."""
        d_src = self.source.boundary()
        d_tgt = self.target.boundary()
        for g in self.source.context.gens:
            lhs = self.apply(d_src(GradedElement.generator(self.source.context, g.name)))
            rhs = d_tgt(self.images[g.name])
            if lhs != rhs:
                return g.name
        return None


def _koszul_names(count):
    if count == 1:
        return ("t",)
    return tuple(f"t{i + 1}" for i in range(count))


def koszul_presentation(variables, polys, n) -> DGPresentation:
    """Koszul algebra with one odd generator per element of ``polys``.

    The ``n``-th stage bounds the ``n``-th powers: the generator for
    ``f`` satisfies ``d t = f^n`` and carries weight ``n`` times the
    least total degree of ``f``, which keeps the differential from
    lowering weight.  A polynomial with a unit part would give its
    generator weight 0, so it is refused by name.
    """
    if n < 1:
        raise StructuralError("stage must be a positive integer")
    if not polys:
        raise StructuralError("need at least one polynomial")
    variables = tuple(variables)
    names = _koszul_names(len(polys))
    for name in names:
        if name in variables:
            raise StructuralError(
                f"variable {name!r} clashes with a reserved Koszul generator "
                "name (t for one polynomial, t1, t2, ... for several)"
            )
    odd = []
    images = {}
    for name, f in zip(names, polys):
        if not f:
            raise StructuralError(
                "zero polynomial rejected: its Koszul generator would be "
                "a cycle generating unbounded homology"
            )
        md = f.min_degree()
        if md < 1:
            raise StructuralError(
                f"polynomial {f} has a unit part; the weighted Koszul "
                "complex needs every polynomial to vanish at the origin"
            )
        odd.append(OddGenerator(name, -1, n * md))
        images[name] = f ** n
    return DGPresentation(variables, odd, images)


def tower_map(variables, polys, big, small) -> DGMorphism:
    """Transition K_big -> K_small, t ↦ f^{big-small} t."""
    if big < small:
        raise StructuralError("tower maps go from higher stage to lower")
    src = koszul_presentation(variables, polys, big)
    tgt = koszul_presentation(variables, polys, small)
    names = _koszul_names(len(polys))
    images = {}
    for name, f in zip(names, polys):
        factor = (f ** (big - small)).cast_to(tgt.context)
        images[name] = factor * tgt.generator(name)
    phi = DGMorphism(src, tgt, images)
    bad = phi.commutes_on_generators()
    if bad is not None:
        raise StructuralError(f"tower map fails to commute on {bad!r}")
    return phi

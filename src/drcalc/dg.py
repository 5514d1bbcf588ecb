"""Presentations of free graded-commutative dg algebras.

A presentation lists even variables (degree 0), odd generators in
negative degrees with assigned weights, the differential on the odd
generators, and optionally a set of ambient relations among the even
variables.  The differential raises degree by one; signs follow the
Koszul rule fixed in the algebra layer.

Relations are handled by normal forms: a reduced Groebner basis of the
relation ideal singles out the standard monomials, and every
differential image is reduced before it is read off.  Only the even
part is ever rewritten.

Koszul algebras and their tower transition maps are the two
constructors the rest of the package consumes; the conerve of a
principal quotient is built in ``derham`` from tensor powers of one
Koszul algebra.
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
from .groebner import GroebnerBasis, MonomialOrder, buchberger
from .poly import Poly, map_even_parts


class RelationNormalForm:
    """Even-part reduction modulo a relation ideal, bound to a context."""

    __slots__ = ("gb", "_var_pos", "_leads")

    def __init__(self, gb: GroebnerBasis, context: GradedContext):
        self.gb = gb
        names = context.ring_variables()
        if gb.context != names:
            raise StructuralError(
                "relation ideal context does not match the even variables"
            )
        self._var_pos = tuple(context.index(n) for n in names)
        self._leads = gb.leading_exponents()

    def is_standard(self, exps) -> bool:
        pex = tuple(exps[i] for i in self._var_pos)
        for lead in self._leads:
            if all(p >= l for p, l in zip(pex, lead)):
                return False
        return True

    def reduce(self, elem: GradedElement) -> GradedElement:
        return map_even_parts(elem, self.gb.normal_form)


@dataclass(frozen=True)
class OddGenerator:
    name: str
    degree: int
    weight: int


class DGPresentation:
    """Semifree model: even variables, odd generators, differential."""

    __slots__ = ("even", "odd", "context", "images", "relations", "nf")

    def __init__(self, even, odd, images, relations=()):
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
        # a zero relation imposes nothing; with only zeros the
        # presentation is the free one
        self.relations = tuple(r for r in relations if r)
        if self.relations:
            order = MonomialOrder("grevlex")
            gb = buchberger(list(self.relations), order)
            self.nf = RelationNormalForm(gb, self.context)
        else:
            self.nf = None

    def __eq__(self, other):
        return (
            isinstance(other, DGPresentation)
            and self.even == other.even
            and self.odd == other.odd
            and self.images == other.images
            and self.relations == other.relations
        )

    def boundary(self) -> Derivation:
        return Derivation(self.context, self.images)

    def truncation_data(self):
        return self.context, self.boundary(), None, self.nf

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
        if pres.nf is not None:
            square = pres.nf.reduce(square)
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
        """Image of ``elem``, reduced by the target's normal form.

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
        out = GradedElement.from_accumulator(tgt, acc)
        if self.target.nf is not None:
            out = self.target.nf.reduce(out)
        return out

    def compose(self, inner: "DGMorphism") -> "DGMorphism":
        """self o inner (inner applied first)."""
        if inner.target is not self.source and inner.target != self.source:
            raise StructuralError("composition mismatch")
        images = {
            name: self.apply(img) for name, img in inner.images.items()
        }
        return DGMorphism(inner.source, self.target, images)

    def commutes_on_generators(self):
        """None if a chain map, else the name of the first bad generator."""
        d_src = self.source.boundary()
        d_tgt = self.target.boundary()
        for g in self.source.context.gens:
            lhs = self.apply(d_src(GradedElement.generator(self.source.context, g.name)))
            rhs = d_tgt(self.images[g.name])
            if self.target.nf is not None:
                lhs = self.target.nf.reduce(lhs)
                rhs = self.target.nf.reduce(rhs)
            if lhs != rhs:
                return g.name
        return None


def _koszul_names(count):
    if count == 1:
        return ("t",)
    return tuple(f"t{i + 1}" for i in range(count))


def koszul_presentation(variables, polys, n, relations=()) -> DGPresentation:
    """Koszul algebra with one odd generator per element of ``polys``.

    The ``n``-th stage bounds the ``n``-th powers: the generator for
    ``f`` satisfies ``d t = f^n`` and carries weight ``n`` times the
    least total degree of ``f``, which keeps the differential from
    lowering weight.
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
        odd.append(OddGenerator(name, -1, n * md))
        images[name] = f ** n
    return DGPresentation(variables, odd, images, relations)


def tower_map(variables, polys, big, small, relations=()) -> DGMorphism:
    """Transition K_big -> K_small, t ↦ f^{big-small} t."""
    if big < small:
        raise StructuralError("tower maps go from higher stage to lower")
    src = koszul_presentation(variables, polys, big, relations)
    tgt = koszul_presentation(variables, polys, small, relations)
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

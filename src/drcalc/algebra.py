"""Free graded-commutative algebras with weight and Hodge bookkeeping.

A ``GradedContext`` fixes an ordered tuple of generators.  Each
generator carries a cohomological degree (its parity decides whether it
commutes or anticommutes), a positive integral weight used for
truncation, and a Hodge column.  Monomials are dense exponent tuples in
generator order; odd generators square to zero, even ones are free.

Sign conventions follow the usual Koszul rule: reordering two odd
factors costs a sign, everything else commutes on the nose.  Normal
form keeps factors in context order, so the sign of a product is the
parity of the permutation that restores that order.

Derivations are determined by generator images and extended by the
graded Leibniz rule ``D(ab) = D(a) b + (-1)^|a| a D(b)``.  The sum of
two derivations of the same degree is again one, which is how total
differentials are assembled downstream.

Products and presentation morphisms expand on exponent tuples: an
image is kept as a list of ``(exps, coeff)`` terms, every term of a
product goes through ``_mul_exps`` into one accumulator dict, and zero
coefficients are dropped once at the end.  Derivations expand on
packed monomial codes instead (``MonomialCode``, Monagan & Pearce,
CASC 2007): one int per monomial, a field per generator, so a Leibniz
term's monomial is one int add and its Koszul sign a mask test and a
popcount (``leibniz``).  ``Derivation.expand`` encodes its tuple
input, runs that loop and decodes the result; truncated complexes are
assembled on the codes directly, from ``graded_monomials``, the one
enumeration walk.  While an expansion runs, integral coefficients
travel as ``int``; every coefficient stored in a ``GradedElement`` is
a ``Fraction``.

``multiply_terms`` is the package's one polynomial product loop:
``poly.Poly`` is a ``GradedElement`` over an all-even context, so its
sums and products are the ones below.  The dependency runs that way
only; this module does not know about ``Poly``.  Operations within a
context build their result as ``type(self)``, past the subclass's input
checks; ``cast_to`` changes the context and returns a plain
``GradedElement``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul
from typing import NamedTuple

from .errors import StructuralError


class Generator(NamedTuple):
    name: str
    degree: int
    weight: int = 1
    hodge: int = 0

    @property
    def odd(self) -> bool:
        return self.degree % 2 == 1


class GradedContext:
    """Ordered generator tuple; provides index lookup and grading sums.

    ``_odd_desc`` lists the positions of the odd generators, last first:
    the only positions the Koszul sign of a product depends on.
    """

    __slots__ = (
        "gens", "_index", "_odd_desc", "_degrees", "_weights", "_hodges"
    )

    def __init__(self, gens):
        self.gens = tuple(gens)
        self._odd_desc = tuple(
            i for i in reversed(range(len(self.gens))) if self.gens[i].odd
        )
        self._degrees = tuple(g.degree for g in self.gens)
        self._weights = tuple(g.weight for g in self.gens)
        self._hodges = tuple(g.hodge for g in self.gens)
        self._index = {}
        for i, g in enumerate(self.gens):
            if g.name in self._index:
                raise StructuralError(f"duplicate generator {g.name!r}")
            if g.weight < 1:
                raise StructuralError(
                    f"generator {g.name!r} has weight {g.weight}; weights "
                    "must be positive for truncations to be finite"
                )
            if g.hodge < 0:
                raise StructuralError(
                    f"generator {g.name!r} has Hodge level {g.hodge}; "
                    "levels must be nonnegative"
                )
            self._index[g.name] = i

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown generator {name!r}") from None

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        """The generator names, in order."""
        return iter(self._index)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedContext) and self.gens == other.gens
        )

    def __hash__(self):
        return hash(self.gens)

    def degree_of(self, exps) -> int:
        return sum(map(mul, exps, self._degrees))

    def weight_of(self, exps) -> int:
        return sum(map(mul, exps, self._weights))

    def hodge_of(self, exps) -> int:
        return sum(map(mul, exps, self._hodges))

    def monomial_str(self, exps) -> str:
        parts = []
        for e, g in zip(exps, self.gens):
            if e == 1:
                parts.append(g.name)
            elif e:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"


def _mul_exps(ctx: GradedContext, a, b):
    """Combine exponent tuples; returns (sign, exps) or None if zero.

    The sign is the parity of the pairs (odd factor of ``b``, odd factor
    of ``a`` at a later position) that the product has to swap.
    """
    parity = 0
    above = 0  # parity of the odd factors of `a` past the cursor
    for i in ctx._odd_desc:
        if b[i]:
            if a[i]:
                return None
            parity ^= above
        if a[i]:
            above ^= 1
    return (-1 if parity else 1), tuple(map(add, a, b))


def term_list(elem):
    """``(exps, coeff)`` pairs of ``elem``, integral coefficients as ``int``."""
    return tuple(
        (e, c.numerator if c.denominator == 1 else c)
        for e, c in elem.terms.items()
    )


def multiply_terms(ctx: GradedContext, left, right):
    """Product of two term lists as an accumulator dict.

    Coefficients are summed as they come; zeros are left for
    ``GradedElement.from_accumulator`` to drop.
    """
    acc = {}
    for ea, ca in left:
        for eb, cb in right:
            hit = _mul_exps(ctx, ea, eb)
            if hit is not None:
                sign, exps = hit
                acc[exps] = acc.get(exps, 0) + sign * ca * cb
    return acc


class GradedElement:
    """Finite rational combination of monomials over a ``GradedContext``."""

    __slots__ = ("context", "terms")

    def __init__(self, context: GradedContext, terms=None):
        self.context = context
        self.terms = terms or {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, context):
        return cls(context)

    @classmethod
    def const(cls, context, value):
        value = Fraction(value)
        if not value:
            return cls(context)
        return cls(context, {(0,) * len(context): value})

    @classmethod
    def generator(cls, context, name):
        exps = [0] * len(context)
        exps[context.index(name)] = 1
        return cls(context, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, context, exps, coeff=1):
        coeff = Fraction(coeff)
        if not coeff:
            return cls(context)
        return cls(context, {tuple(exps): coeff})

    @classmethod
    def from_accumulator(cls, context, acc):
        """Element of an expansion dict: zeros dropped, Fraction coefficients."""
        return cls._of(context, {e: Fraction(c) for e, c in acc.items() if c})

    @classmethod
    def _of(cls, context, terms):
        """An element of ``cls`` on tidy terms, past any input checks.

        Tidy terms have ``Fraction`` coefficients and no zeros.  Every
        operation below builds its result this way, so a subclass gets
        its own type back without tidying again.
        """
        out = object.__new__(cls)
        out.context = context
        out.terms = terms
        return out

    # -- ring structure -----------------------------------------------

    def _check(self, other):
        if self.context != other.context:
            raise StructuralError("mixed graded contexts")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return self._of(self.context, terms)

    def __neg__(self):
        return self._of(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        value = Fraction(value)
        if not value:
            return self._of(self.context, {})
        return self._of(
            self.context, {e: c * value for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        acc = multiply_terms(self.context, term_list(self), term_list(other))
        return self.from_accumulator(self.context, acc)

    __rmul__ = __mul__

    # -- grading ------------------------------------------------------

    def min_weight(self):
        ctx = self.context
        return min((ctx.weight_of(e) for e in self.terms), default=None)

    def weight_filter(self, max_weight):
        """Drop monomials of weight above the cap."""
        ctx = self.context
        return self._of(
            ctx,
            {
                e: c
                for e, c in self.terms.items()
                if ctx.weight_of(e) <= max_weight
            },
        )

    def cast_to(self, new_context: "GradedContext"):
        """Move to another context, matching generators by name.

        Every generator of the old context must exist in the new one;
        unused new generators get exponent zero.  The result is a plain
        ``GradedElement``; this is how a polynomial enters a larger
        graded context.
        """
        old = self.context
        positions = [new_context.index(g.name) for g in old.gens]
        terms = {}
        for exps, coeff in self.terms.items():
            out = [0] * len(new_context)
            odd_targets = []
            for i, (pos, e) in enumerate(zip(positions, exps)):
                out[pos] += e
                if e and old.gens[i].odd:
                    odd_targets.append(pos)
            # re-sorting odd factors into the new order costs a sign per
            # inversion
            inversions = sum(
                1
                for i in range(len(odd_targets))
                for j in range(i + 1, len(odd_targets))
                if odd_targets[i] > odd_targets[j]
            )
            sign = -1 if inversions % 2 else 1
            terms[tuple(out)] = coeff * sign
        return GradedElement(new_context, terms)

    # -- display ------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = self.context.monomial_str(exps)
            if mono == "1":
                body = str(coeff)
            elif coeff == 1:
                body = mono
            elif coeff == -1:
                body = f"-{mono}"
            else:
                body = f"{coeff}*{mono}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<GradedElement {self}>"


class MonomialCode:
    """Exponent tuples of one context packed into ints.

    Field ``j`` of a code holds the exponent of generator ``j``, lowest
    bits first, wide enough for ``bounds[j]`` (Monagan & Pearce, CASC
    2007).  While every field stays in range no field carries, so the
    code of a product is the sum of the codes, and ``code & odd_bits``
    (the lowest bit of each odd generator's field) is the monomial's
    odd-factor mask, the only part its Koszul signs depend on.
    """

    __slots__ = ("units", "odd_bits", "_offsets", "_masks")

    def __init__(self, context: GradedContext, bounds):
        offsets, top = [], 0
        for bound in bounds:
            offsets.append(top)
            top += max(bound, 1).bit_length()
        self._offsets = tuple(offsets)
        self._masks = tuple(
            (1 << (b - a)) - 1 for a, b in zip(offsets, offsets[1:] + [top])
        )
        self.units = tuple(1 << a for a in offsets)
        self.odd_bits = sum(
            u for u, g in zip(self.units, context.gens) if g.odd
        )

    def encode(self, exps) -> int:
        return sum(map(mul, exps, self.units))

    def decode(self, code):
        return tuple(
            (code >> a) & m for a, m in zip(self._offsets, self._masks)
        )


class Derivation:
    """Degree ``+1`` derivation given by generator images.

    ``images`` maps generator names to elements; omitted generators map
    to zero.  Application follows the graded Leibniz rule, so the sign
    in front of the ``i``-th factor of a monomial is the parity of the
    degree of everything to its left.  With ``base`` the monomial less
    one factor of the ``i``-th generator, split as prefix·rest around
    position ``i``, the term prefix·t·rest of an image term ``t`` is
    ``(-1)^(|t|·|rest|) · base·t``; prefix and rest sit at disjoint,
    ordered positions, so prefix·rest is ``base`` with sign +1.

    Every Leibniz term is formed on codes (``MonomialCode``) by
    ``leibniz``, from the per-term data ``coded_table`` works out once
    per code, with each image coefficient times ``den``, the least
    common denominator of them all, so integral input stays on ints:
    base·t has code ``code(m) + (code(t) - code(1_i))``, it
    vanishes when t's odd mask meets base's, and its Koszul sign is the
    parity of the odd factors of base past each odd factor of t, one
    popcount against a mask of t's.
    """

    __slots__ = ("context", "images", "den", "_terms", "_reach")

    def __init__(self, context: GradedContext, images):
        self.context = context
        self.images = {}
        for name, elem in images.items():
            i = context.index(name)
            if elem.context != context:
                raise StructuralError("derivation image in wrong context")
            if elem:
                expect = context.gens[i].degree + 1
                for exps in elem.terms:
                    if context.degree_of(exps) != expect:
                        raise StructuralError(
                            f"image of {name!r} is not homogeneous of "
                            f"degree {expect}"
                        )
                self.images[i] = elem
        # every image coefficient times den is an int: the coded loop
        # runs on ints and forms den times the image
        self.den = lcm(*(
            c.denominator
            for elem in self.images.values()
            for c in elem.terms.values()
        ))
        self._terms = {
            i: tuple(
                (e, c.numerator * (self.den // c.denominator))
                for e, c in elem.terms.items()
            )
            for i, elem in self.images.items()
        }
        # the largest exponent per position over every image term
        self._reach = [0] * len(context)
        for elem in self.images.values():
            for exps in elem.terms:
                self._reach = list(map(max, self._reach, exps))

    def __add__(self, other):
        if self.context != other.context:
            raise StructuralError("mixed graded contexts")
        merged = {}
        for src in (self, other):
            for i, elem in src.images.items():
                name = self.context.gens[i].name
                if name in merged:
                    merged[name] = merged[name] + elem
                else:
                    merged[name] = elem
        return Derivation(self.context, merged)

    def __call__(self, elem: GradedElement) -> GradedElement:
        if elem.context != self.context:
            raise StructuralError("mixed graded contexts")
        acc = self.expand(term_list(elem))
        return GradedElement.from_accumulator(self.context, acc)

    def code_for(self, bounds) -> MonomialCode:
        """Codes for images of monomials with exponents up to ``bounds``.

        Each field is wide enough for the exponent a Leibniz term can
        reach there: the bound plus the largest image exponent.
        """
        return MonomialCode(self.context, map(add, bounds, self._reach))

    def coded_table(self, code: MonomialCode, keep=None):
        """``leibniz``'s data: ``(i, unit, below, terms)`` per generator.

        ``terms`` lists ``(shift, coeff, clash, flip)`` per image term
        ``t`` of generator ``i``, in image order: ``shift`` is
        ``code(t) - code(1_i)``, ``clash`` is t's odd mask and ``flip``
        the XOR, over t's odd factors, of the odd bits past each.
        ``below`` is None for an even generator, else the odd bits
        before position ``i``.  Generators go by position, as the
        factors of a monomial do.  ``keep(i, t)``, if given, selects the
        image terms; generators left without one are not listed.
        """
        odd_bits = code.odd_bits
        table = []
        for i, image in sorted(self._terms.items()):
            unit = code.units[i]
            terms = []
            for t, c in image:
                if keep is not None and not keep(i, t):
                    continue
                k = code.encode(t)
                clash = k & odd_bits
                flip = 0
                for u in code.units:
                    if clash & u:  # the odd bits past u
                        flip ^= odd_bits & -(u << 1)
                terms.append((k - unit, c, clash, flip))
            if terms:
                below = odd_bits & (unit - 1) if unit & odd_bits else None
                table.append((i, unit, below, tuple(terms)))
        return tuple(table)

    def expand(self, terms):
        """Image of a term list as an accumulator dict ``{exps: coeff}``.

        ``terms`` are ``(exps, coeff)`` pairs as ``term_list`` gives
        them.  They are encoded with fields as wide as their exponents
        need (``code_for``), expanded by ``leibniz``, decoded and divided
        by ``den``.  Coefficients stay ``int`` while every input is
        integral; zeros are left in, as in ``multiply_terms``.
        """
        terms = tuple(terms)
        inputs = [exps for exps, _ in terms] or [(0,) * len(self.context)]
        code = self.code_for(map(max, zip(*inputs)))
        table = self.coded_table(code)
        acc = {}
        for exps, coeff in terms:
            leibniz(table, code.odd_bits, exps, code.encode(exps), coeff, acc)
        den = self.den
        return {
            code.decode(m): c if den == 1 else Fraction(c, den)
            for m, c in acc.items()
        }


def leibniz(table, odd_bits, exps, code, coeff, acc):
    """Add ``coeff`` times ``den`` times the image of one monomial to ``acc``.

    The monomial is ``exps`` with code ``code``; ``table`` is the
    derivation's ``coded_table`` for that code's ``MonomialCode``, and
    ``acc`` is keyed by code.  The sign in front of the ``i``-th factor
    is the parity of the odd factors before it for an odd generator and
    of all of them for an even one, ``(-1)^(|prefix| + |t|·|rest|)``
    with ``|t| = |x_i| + 1``.
    """
    odd = code & odd_bits
    total = odd.bit_count() & 1
    for i, unit, below, terms in table:
        e = exps[i]
        if not e:
            continue
        if below is None:
            base, scale = odd, -coeff * e if total else coeff * e
        else:
            base = odd ^ unit
            scale = -coeff if (odd & below).bit_count() & 1 else coeff
        for shift, c, clash, flip in terms:
            if base & clash:
                continue
            m = code + shift
            if (base & flip).bit_count() & 1:
                acc[m] = acc.get(m, 0) - scale * c
            else:
                acc[m] = acc.get(m, 0) + scale * c


def check_weight(weight):
    """Raise unless ``weight`` is a usable weight window (at least 0)."""
    if weight < 0:
        raise StructuralError(f"weight {weight} is negative; windows start at 0")


def exponent_caps(context: GradedContext, max_weight):
    """The largest exponent per generator within a weight cap."""
    return [1 if g.odd else max_weight // g.weight for g in context.gens]


def graded_monomials(context: GradedContext, max_weight, max_hodge, code):
    """``(exps, weight, hodge, degree, code)`` within the caps, by weight.

    A breadth-first walk, one generator position per step: each prefix
    is extended by every exponent its weight and Hodge budgets allow,
    so each step lists the prefixes in lex order, and a stable sort on
    weight at the end gives ascending weight, ties in lex order.  The
    gradings and the code are summed along the walk.  ``max_hodge`` is
    None for no Hodge cap.
    """
    check_weight(max_weight)
    if max_hodge is None:  # no monomial within the weight cap goes past it
        max_hodge = max_weight * max(context._hodges, default=0)
    if max_hodge < 0:
        return []
    states = [((), 0, 0, 0, 0)]
    for g, unit in zip(context.gens, code.units):
        w, h, d = g.weight, g.hodge, g.degree
        top = 1 if g.odd else max_weight // w
        steps = [((e,), e * w, e * h, e * d, e * unit) for e in range(top + 1)]
        if h:
            states = [
                (p + q, a + da, b + db, c + dc, k + dk)
                for p, a, b, c, k in states
                for q, da, db, dc, dk in steps[
                    : min((max_weight - a) // w, (max_hodge - b) // h) + 1
                ]
            ]
        else:
            states = [
                (p + q, a + da, b, c + dc, k + dk)
                for p, a, b, c, k in states
                for q, da, _, dc, dk in steps[: (max_weight - a) // w + 1]
            ]
    states.sort(key=itemgetter(1))
    return states


def enumerate_monomials(context: GradedContext, max_weight):
    """All exponent tuples within the weight cap, by weight, ties in lex order.

    Together with the positive generator weights the cap is what keeps
    the answer finite.  A negative cap is refused rather than read as an
    empty window.  The cap prunes the walk (``graded_monomials``).
    """
    code = MonomialCode(context, exponent_caps(context, max_weight))
    return [m[0] for m in graded_monomials(context, max_weight, None, code)]

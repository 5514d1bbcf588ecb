"""Sparse multivariate polynomials over the rationals.

Representation notes:

* A polynomial is a ``GradedElement`` over a *ring context*: one even
  generator ``Generator(name, 0)`` per variable, built once per tuple
  of names by ``ring_context``.  Sums, products, scaling and equality
  are the graded algebra's own, so a ``Poly`` product runs through
  ``algebra.multiply_terms`` like every other product in the package.
* ``Poly(context, terms)`` accepts the names as any iterable, a ring
  context included (a ``GradedContext`` iterates over its names), and
  tidies its input: exponents become int tuples aligned with the
  names, coefficients ``fractions.Fraction``, zeros are dropped.
* Polynomials over different contexts do not mix; combining them
  raises ``StructuralError``.

Term order used for *printing* follows the canonical interchange form of
this package: terms are sorted lexicographically descending (context
order ranks the variables), and inside a monomial the factors are
printed with the larger exponent first, so the Reiffen polynomial prints
as ``x^4 + y^4*x + y^5``.  Graded orders for Groebner bases live in
:mod:`drcalc.groebner`.

A differential image enters a dg presentation by ``cast_to`` into the
presentation's context, which lists the even variables first;
``presfile.serialize_presentation`` reads a polynomial image back by
cutting its exponent tuples there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .algebra import GradedContext, GradedElement, Generator

@lru_cache(maxsize=None)
def ring_context(names: tuple) -> GradedContext:
    """The all-even context of the polynomial ring on ``names``.

    Cached, so polynomials over the same names share one context and
    the context check of every sum and product is an identity test.
    """
    return GradedContext(Generator(name, 0) for name in names)


class Poly(GradedElement):
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ()

    def __init__(self, context, terms: Mapping | None = None):
        self.context = ring_context(tuple(context))
        tidy = {}
        if terms:
            n = len(self.context)
            for exps, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(
                        f"bad exponent tuple {exps!r} for context "
                        f"{tuple(self.context)!r}"
                    )
                if exps in tidy:  # another key names the same monomial
                    c += tidy[exps]
                    if not c:
                        del tidy[exps]
                        continue
                tidy[exps] = c
        self.terms = tidy

    @classmethod
    def var(cls, context, name: str) -> "Poly":
        return cls.generator(context, name)

    # ---- scalars on either side (a - b is a + (-b)) -----------------

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = self.const(self.context, other)
        return super().__add__(other)

    __radd__ = __add__

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.terms) == 1:  # (c*x^e)^n = c^n * x^(n*e)
            ((exps, c),) = self.terms.items()
            return self._of(self.context, {tuple(e * n for e in exps): c ** n})
        result = self.const(self.context, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.const(self.context, other)
        return super().__eq__(other)

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    # ---- queries ------------------------------------------------------

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return max(sum(e) for e in self.terms)

    def min_degree(self):
        """Smallest total degree of a term; +inf for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(sum(e) for e in self.terms)

    # ---- calculus -----------------------------------------------------

    def partial(self, var: Union[int, str]) -> "Poly":
        """Formal partial derivative with respect to one context variable."""
        i = var if isinstance(var, int) else self.context.index(var)
        # lowering e[i] by one is injective on the terms it keeps
        return self._of(self.context, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.terms.items()
            if e[i]
        })

    # ---- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = tuple(self.context)
        parts = []
        for exps, c in self.sorted_terms():
            # larger exponents first, context order breaking ties
            factors = sorted((i for i, e in enumerate(exps) if e), key=lambda i: -exps[i])
            body = "*".join(
                names[i] if exps[i] == 1 else f"{names[i]}^{exps[i]}" for i in factors
            )
            mag = abs(c)
            if not body:
                text = _fmt_coeff(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{_fmt_coeff(mag)}*{body}"
            parts.append(("-" if c < 0 else "+", text))
        sign0, text0 = parts[0]
        out = ("-" if sign0 == "-" else "") + text0
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"Poly({str(self)!r} over {tuple(self.context)!r})"


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

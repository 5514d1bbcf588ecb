"""Sparse multivariate polynomials over the rationals.

Representation notes:

* A *context* is an ordered tuple of variable names, e.g. ``("x", "y")``.
  All polynomials carry their context; mixing contexts raises ValueError.
* A monomial is an exponent tuple aligned with the context.
* A polynomial is a dict ``{exponents: Fraction}`` with no zero values
  stored.  Coefficients are ``fractions.Fraction`` (arbitrary precision,
  always in lowest terms with positive denominator).

Term order used for *printing* follows the canonical interchange form of
this package: terms are sorted lexicographically descending (context
order ranks the variables), and inside a monomial the factors are
printed with the larger exponent first, so the Reiffen polynomial prints
as ``x^4 + y^4*x + y^5``.  Graded orders for Groebner bases live in
:mod:`drcalc.groebner`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

Exponents = tuple  # tuple[int, ...]
Scalar = Union[int, Fraction]


class ContextError(ValueError):
    """Raised when polynomials from different contexts are combined."""


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("context", "terms")

    def __init__(self, context: tuple, terms: Mapping | None = None):
        self.context = tuple(context)
        tidy = {}
        if terms:
            n = len(self.context)
            for exps, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r} for context {self.context!r}")
                tidy[exps] = tidy.get(exps, Fraction(0)) + c
                if tidy[exps] == 0:
                    del tidy[exps]
        self.terms = tidy

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, context) -> "Poly":
        return cls(context)

    @classmethod
    def const(cls, context, c: Scalar) -> "Poly":
        context = tuple(context)
        return cls(context, {(0,) * len(context): Fraction(c)})

    @classmethod
    def var(cls, context, name: str) -> "Poly":
        context = tuple(context)
        i = context.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(context)))
        return cls(context, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, context, exps, c: Scalar = 1) -> "Poly":
        return cls(context, {tuple(exps): Fraction(c)})

    # ---- ring structure ----------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.context != other.context:
            raise ContextError(f"context mismatch: {self.context!r} vs {other.context!r}")

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.context, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        p = Poly.__new__(Poly)
        p.context = self.context
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.context = self.context
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.context, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Poly.zero(self.context)
            p = Poly.__new__(Poly)
            p.context = self.context
            p.terms = {e: cc * c for e, cc in self.terms.items()}
            return p
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        p = Poly.__new__(Poly)
        p.context = self.context
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.context, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.context, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        out: dict = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return Poly(self.context, out)

    # ---- context surgery ---------------------------------------------

    def cast(self, new_context, mapping: Mapping[str, str] | None = None) -> "Poly":
        """Re-express in a larger context, optionally mapping variable names.

        ``mapping`` sends old names to new names; unmapped names map to
        themselves.  Every (mapped) variable must exist in the new
        context.
        """
        new_context = tuple(new_context)
        mapping = mapping or {}
        pos = []
        for name in self.context:
            target = mapping.get(name, name)
            pos.append(new_context.index(target))
        n = len(new_context)
        out: dict = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for j, ej in enumerate(e):
                ne[pos[j]] += ej
            key = tuple(ne)
            out[key] = out.get(key, Fraction(0)) + c
        return Poly(new_context, out)

    # ---- printing -----------------------------------------------------

    def sorted_terms(self):
        """Terms in the canonical (lex-descending) print order."""
        return sorted(self.terms.items(), key=lambda ec: ec[0], reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [
                (e, self.context[i]) for i, e in enumerate(exps) if e > 0
            ]
            # larger exponents first, context order breaking ties
            factors.sort(key=lambda t: (-t[0], self.context.index(t[1])))
            body = "*".join(
                name if e == 1 else f"{name}^{e}" for e, name in factors
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
        return f"Poly({str(self)!r} over {self.context!r})"


def _fmt_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---- module-level helpers --------------------------------------------


def grevlex_key(exps: Exponents) -> tuple:
    """Sort key: graded reverse lexicographic, larger key = larger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def lex_key(exps: Exponents) -> tuple:
    return tuple(exps)


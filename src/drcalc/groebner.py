"""Groebner bases over the rationals: Buchberger, normal forms, colon ideals.

Everything is deterministic: bases are reduced (monic, auto-reduced,
sorted by leading monomial), pair selection follows the normal strategy
(smallest lcm degree, ties broken by the monomial order, then by pair
index).  A pair budget guards against runaway computations.

Colon ideals (I : f) are computed through the single elimination trick:
intersect I with the principal ideal (f) using one auxiliary variable,
then divide the intersection generators by f exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ResourceLimitError, StructuralError
from .poly import Poly, grevlex_key, lex_key

DEFAULT_PAIR_BUDGET = 100_000


class PairBudgetExceeded(ResourceLimitError):
    pass


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on exponent tuples: 'grevlex' or 'lex'."""

    kind: str = "grevlex"

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise StructuralError(f"unknown order kind {self.kind!r}")

    def key(self, exps):
        return grevlex_key(exps) if self.kind == "grevlex" else lex_key(exps)


class _ElimOrder:
    """Block order making one variable index dominate a base order."""

    def __init__(self, elim_index: int, base: MonomialOrder):
        self.elim_index = elim_index
        self.base = base

    def key(self, exps):
        rest = exps[: self.elim_index] + exps[self.elim_index + 1 :]
        return (exps[self.elim_index], self.base.key(rest))


def _lead(p: Poly, order) -> tuple:
    return max(p.terms, key=order.key)


def _monic(p: Poly, order) -> Poly:
    lc = p.terms[_lead(p, order)]
    return p * (Fraction(1) / lc)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(g: Poly, basis: Sequence[Poly], order=None) -> Poly:
    """Full remainder of g on division by the (nonzero) polynomials in basis."""
    order = order or MonomialOrder()
    basis = [b for b in basis if b]
    if not basis:
        return g
    leads = [(_lead(b, order), b) for b in basis]
    remainder = Poly.zero(g.context)
    work = g
    while work.terms:
        e = max(work.terms, key=order.key)
        c = work.terms[e]
        for le, b in leads:
            if _divides(le, e):
                shift = tuple(x - y for x, y in zip(e, le))
                factor = Poly.monomial(g.context, shift, c / b.terms[le])
                work = work - factor * b
                break
        else:
            remainder = remainder + Poly.monomial(g.context, e, c)
            work = work - Poly.monomial(g.context, e, c)
    return remainder


def div_exact(g: Poly, f: Poly, order=None) -> Poly:
    """Quotient g/f when f divides g exactly; ValueError otherwise."""
    order = order or MonomialOrder()
    if not f:
        raise StructuralError("division by the zero polynomial")
    quotient = Poly.zero(g.context)
    work = g
    le = _lead(f, order)
    lc = f.terms[le]
    while work.terms:
        e = max(work.terms, key=order.key)
        if not _divides(le, e):
            raise ValueError("inexact division")
        shift = tuple(x - y for x, y in zip(e, le))
        mono = Poly.monomial(g.context, shift, work.terms[e] / lc)
        quotient = quotient + mono
        work = work - mono * f
    return quotient


def _spoly(f: Poly, g: Poly, order) -> Poly:
    ef, eg = _lead(f, order), _lead(g, order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = Poly.monomial(f.context, tuple(a - b for a, b in zip(lcm, ef)),
                       Fraction(1) / f.terms[ef])
    mg = Poly.monomial(g.context, tuple(a - b for a, b in zip(lcm, eg)),
                       Fraction(1) / g.terms[eg])
    return mf * f - mg * g


def _interreduce(basis, order):
    basis = [b for b in basis if b]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            r = normal_form(basis[i], others, order)
            if r != basis[i]:
                changed = True
            if r:
                basis[i] = r
            else:
                basis.pop(i)
                break
    basis = [_monic(b, order) for b in basis]
    basis.sort(key=lambda b: order.key(_lead(b, order)))
    return basis


def _buchberger_core(seeds, order, pair_budget):
    """Completion loop shared by buchberger() and the elimination path."""
    basis = [_monic(g, order) for g in seeds]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    processed = 0

    def pair_rank(p):
        i, j = p
        ei, ej = _lead(basis[i], order), _lead(basis[j], order)
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        return (sum(lcm), order.key(lcm), i, j)

    while pairs:
        processed += 1
        if processed > pair_budget:
            raise PairBudgetExceeded(
                f"S-pair budget of {pair_budget} exceeded")
        i, j = min(pairs, key=pair_rank)
        pairs.discard((i, j))
        ei, ej = _lead(basis[i], order), _lead(basis[j], order)
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        if lcm == tuple(a + b for a, b in zip(ei, ej)):
            continue  # product criterion: disjoint leading supports
        r = normal_form(_spoly(basis[i], basis[j], order), basis, order)
        if r:
            basis.append(_monic(r, order))
            k = len(basis) - 1
            pairs.update((k, m) for m in range(k))
    return _interreduce(basis, order)


def buchberger(gens: Iterable[Poly], order=None,
               pair_budget: int = DEFAULT_PAIR_BUDGET) -> "GroebnerBasis":
    """Reduced Groebner basis of the ideal generated by gens."""
    order = order or MonomialOrder()
    gens = [g for g in gens if g]
    if not gens:
        return GroebnerBasis(context=(), order=order, gens=())
    ctx = gens[0].context
    for g in gens:
        if g.context != ctx:
            raise StructuralError("mixed contexts in ideal generators")
    return GroebnerBasis(context=tuple(ctx), order=order,
                         gens=tuple(_buchberger_core(gens, order, pair_budget)))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis (canonical for the ideal and order)."""

    context: tuple
    order: MonomialOrder
    gens: tuple

    def normal_form(self, p: Poly) -> Poly:
        return normal_form(p, self.gens, self.order)

    def leading_exponents(self):
        return [_lead(g, self.order) for g in self.gens]

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.gens) + "}"


def intersect_principal(gens: Sequence[Poly], f: Poly, order=None,
                        pair_budget: int = DEFAULT_PAIR_BUDGET):
    """Generators of I  intersect  (f), by one-variable elimination."""
    order = order or MonomialOrder()
    if not f:
        raise StructuralError("principal generator must be nonzero")
    ctx = tuple(f.context)
    aux = "t_elim"
    while aux in ctx:
        aux = aux + "_"
    big = (aux,) + ctx
    t = Poly.var(big, aux)
    lifted = [t * g.cast(big) for g in gens if g]
    lifted.append((Poly.const(big, 1) - t) * f.cast(big))
    elim = _ElimOrder(0, order)
    out = []
    for b in _buchberger_core(lifted, elim, pair_budget):
        if all(e[0] == 0 for e in b.terms):  # free of the auxiliary variable
            out.append(Poly(ctx, {e[1:]: c for e, c in b.terms.items()}))
    return out


def colon_principal(gens: Sequence[Poly], f: Poly, order=None,
                    pair_budget: int = DEFAULT_PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the colon ideal (I : f), f nonzero."""
    order = order or MonomialOrder()
    if not f:
        raise StructuralError("colon by the zero polynomial")
    inter = intersect_principal(gens, f, order, pair_budget)
    quotients = [div_exact(g, f, order) for g in inter]
    if not quotients:
        return GroebnerBasis(context=tuple(f.context), order=order, gens=())
    return buchberger(quotients, order, pair_budget)


@dataclass
class AnnChain:
    """The annihilator chain (I : f), (I : f^2), ... with stabilization info."""

    colon_bases: list          # list[GroebnerBasis], index n-1 holds (I : f^n)
    stabilized_at: int | None  # smallest n with (I:f^n) == (I:f^(n+1)); None if not seen

    def __len__(self):
        return len(self.colon_bases)


def annihilator_chain(gens: Sequence[Poly], f: Poly, n_max: int = 10,
                      order=None,
                      pair_budget: int = DEFAULT_PAIR_BUDGET) -> AnnChain:
    """Colon ideals by successive powers of f, with syntactic stabilization."""
    order = order or MonomialOrder()
    if not f:
        raise StructuralError("annihilator chain of the zero polynomial")
    if n_max < 1:
        raise StructuralError(
            f"annihilator chain needs at least 1 level, got {n_max}")
    chain = []
    power = f
    for n in range(1, n_max + 1):
        chain.append(colon_principal(gens, power, order, pair_budget))
        power = power * f
    stab = None
    for n in range(1, len(chain)):
        if chain[n - 1].gens == chain[n].gens:
            stab = n
            break
    return AnnChain(colon_bases=chain, stabilized_at=stab)


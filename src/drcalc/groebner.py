"""Groebner bases over the rationals: Buchberger, normal forms, colon ideals.

Everything is deterministic: bases are reduced (monic, auto-reduced,
sorted by leading monomial), pair selection follows the normal strategy
(smallest lcm degree, ties broken by the monomial order, then by pair
index).  A pair budget guards against runaway computations.

The work is done on term dicts ``{exps: Fraction}``, not on ``Poly``
objects; a ``Poly`` is built only for what is returned.  A monomial
order is a key function on exponent tuples, larger key for the larger
monomial: ``grevlex_key``, ``lex_key`` and, for elimination, ``_elim_key``.
There is one division routine, ``_divide`` (Cox, Little & O'Shea,
*Ideals, Varieties, and Algorithms*, §2.3): it reduces a working dict
in place by monic divisors, each carried as ``(lead, terms)`` so its
lead is found once, and returns the quotients and the remainder.
``normal_form``, ``div_exact`` and the S-polynomial reduction in
Buchberger's loop all call it.  Each product of a monomial and a
divisor is ``algebra.multiply_terms``.

The reduced basis is formed in one pass (§2.7): the elements whose
lead another lead divides are dropped, and each survivor's tail is
reduced modulo the others.  Reduced bases are unique, so the result
does not depend on the order the completion found its elements in.

Colon ideals (I : f) are computed through the single elimination trick:
intersect I with the principal ideal (f) using one auxiliary variable,
then divide the intersection generators by f exactly.

Only the ``ideal`` commands use this module: dg presentations are free
(``drcalc.dg``), so no de Rham computation reduces modulo a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, le, sub
from typing import Iterable, Sequence

from .algebra import multiply_terms
from .errors import ResourceLimitError, StructuralError
from .poly import Poly, ring_context

DEFAULT_PAIR_BUDGET = 100_000


class PairBudgetExceeded(ResourceLimitError):
    pass


def grevlex_key(exps) -> tuple:
    """Sort key: graded reverse lexicographic, larger key = larger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def lex_key(exps) -> tuple:
    return tuple(exps)


def _elim_key(exps, base):
    """Block order: the first exponent dominates, ``base`` orders the rest."""
    return (exps[0], base(exps[1:]))


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on exponent tuples: 'grevlex' or 'lex'."""

    kind: str = "grevlex"

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise StructuralError(f"unknown order kind {self.kind!r}")

    def key(self, exps):
        return grevlex_key(exps) if self.kind == "grevlex" else lex_key(exps)


def _monic(terms, key):
    """``(lead, terms)`` of a nonzero term dict, scaled to lead coefficient 1."""
    lead = max(terms, key=key)
    lc = terms[lead]
    if lc != 1:
        terms = {e: c / lc for e, c in terms.items()}
    return lead, terms


def _subtract(ctx, work, mono, terms):
    """``work -= mono * terms`` in place, ``mono`` one ``(exps, coeff)`` term."""
    for e, c in multiply_terms(ctx, (mono,), terms.items()).items():
        v = work.get(e, 0) - c
        if v:
            work[e] = v
        else:
            del work[e]


def _divide(ctx, work, divisors, key):
    """``(quotients, remainder)`` of the term dict ``work`` by ``divisors``.

    ``divisors`` are monic ``(lead, terms)`` pairs.  ``work`` is consumed:
    its lead is cancelled by the first divisor whose lead divides it, or
    moved to the remainder.  ``quotients[k]`` is the term dict of the
    multiplier of ``divisors[k]``.
    """
    quotients = [{} for _ in divisors]
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work[e]
        for quotient, (lead, terms) in zip(quotients, divisors):
            if all(map(le, lead, e)):
                shift = tuple(map(sub, e, lead))
                quotient[shift] = c
                _subtract(ctx, work, (shift, c), terms)
                break
        else:
            remainder[e] = work.pop(e)
    return quotients, remainder


def normal_form(g: Poly, basis: Sequence[Poly], order=None) -> Poly:
    """Full remainder of g on division by the (nonzero) polynomials in basis."""
    key = (order or MonomialOrder()).key
    divisors = [_monic(b.terms, key) for b in basis if b]
    if not divisors:
        return g
    return Poly._of(g.context, _divide(g.context, dict(g.terms), divisors, key)[1])


def div_exact(g: Poly, f: Poly, order=None) -> Poly:
    """Quotient g/f when f divides g exactly; ValueError otherwise."""
    key = (order or MonomialOrder()).key
    if not f:
        raise StructuralError("division by the zero polynomial")
    lead, terms = _monic(f.terms, key)
    (quotient,), remainder = _divide(g.context, dict(g.terms), [(lead, terms)], key)
    if remainder:
        raise ValueError("inexact division")
    lc = f.terms[lead]
    return Poly._of(g.context, {e: c / lc for e, c in quotient.items()})


def _reduced_basis(ctx, seeds, key):
    """Reduced Groebner basis of nonzero term dicts.

    Returned as ``(lead, terms)`` pairs in ascending order of their
    leads.  Pairs wait in a heap under their rank, computed once from the stored
    leads.  Every pair popped counts against ``DEFAULT_PAIR_BUDGET``,
    including those the product criterion skips.
    """
    basis = []
    pairs = []

    def enter(terms):
        lead, terms = _monic(terms, key)
        k = len(basis)
        for m, (other, _) in enumerate(basis):
            lcm = tuple(map(max, lead, other))
            heappush(pairs, (sum(lcm), key(lcm), k, m, lcm))
        basis.append((lead, terms))

    for terms in seeds:
        enter(terms)
    processed = 0
    while pairs:
        processed += 1
        if processed > DEFAULT_PAIR_BUDGET:
            raise PairBudgetExceeded(
                f"S-pair budget of {DEFAULT_PAIR_BUDGET} exceeded")
        *_, i, j, lcm = heappop(pairs)
        (ei, ti), (ej, tj) = basis[i], basis[j]
        if lcm == tuple(map(add, ei, ej)):
            continue  # product criterion: disjoint leading supports
        work = {}  # the S-polynomial: (lcm/ei) fi - (lcm/ej) fj
        _subtract(ctx, work, (tuple(map(sub, lcm, ej)), 1), tj)
        _subtract(ctx, work, (tuple(map(sub, lcm, ei)), -1), ti)
        remainder = _divide(ctx, work, basis, key)[1]
        if remainder:
            enter(remainder)
    # a lead divides only larger leads, so ascending order meets divisors first
    minimal = []
    for lead, terms in sorted(basis, key=lambda b: key(b[0])):
        if not any(all(map(le, other, lead)) for other, _ in minimal):
            minimal.append((lead, terms))
    return [
        (lead, _divide(ctx, dict(terms), minimal[:k] + minimal[k + 1:], key)[1])
        for k, (lead, terms) in enumerate(minimal)
    ]


def _context(polys):
    """The one context of ``polys``; StructuralError if they mix contexts."""
    ctx = polys[0].context
    if any(p.context != ctx for p in polys):
        raise StructuralError("mixed contexts in ideal generators")
    return ctx


def buchberger(gens: Iterable[Poly], order=None) -> "GroebnerBasis":
    """Reduced Groebner basis of the ideal generated by gens."""
    order = order or MonomialOrder()
    gens = [g for g in gens if g]
    if not gens:
        return GroebnerBasis(order=order, gens=())
    ctx = _context(gens)
    basis = _reduced_basis(ctx, [g.terms for g in gens], order.key)
    return GroebnerBasis(order=order,
                         gens=tuple(Poly._of(ctx, terms) for _, terms in basis))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis (canonical for the ideal and order).

    Reduce modulo it with ``normal_form(p, basis.gens, basis.order)``.
    """

    order: MonomialOrder
    gens: tuple

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.gens) + "}"


def intersect_principal(gens: Sequence[Poly], f: Poly, order=None):
    """Generators of I  intersect  (f), by one-variable elimination.

    The seeds t·g and (1 − t)·f are written as term dicts over the
    context with an auxiliary variable t put first; the elimination
    order makes t dominate, so a basis element is free of t exactly
    when its lead is.
    """
    order = order or MonomialOrder()
    if not f:
        raise StructuralError("principal generator must be nonzero")
    ctx = _context([f, *gens])
    aux = "t_elim"
    while aux in ctx:
        aux = aux + "_"
    seeds = [{(1,) + e: c for e, c in g.terms.items()} for g in gens if g]
    seeds.append({(i,) + e: -c if i else c
                  for e, c in f.terms.items() for i in (0, 1)})
    big = ring_context((aux, *ctx))
    basis = _reduced_basis(
        big, seeds, lambda exps: _elim_key(exps, order.key))
    return [
        Poly._of(ctx, {e[1:]: c for e, c in terms.items()})
        for lead, terms in basis
        if not lead[0]
    ]


def colon_principal(gens: Sequence[Poly], f: Poly,
                    order=None) -> GroebnerBasis:
    """Reduced Groebner basis of the colon ideal (I : f), f nonzero."""
    order = order or MonomialOrder()
    if not f:
        raise StructuralError("colon by the zero polynomial")
    inter = intersect_principal(gens, f, order)
    quotients = [div_exact(g, f, order) for g in inter]
    if not quotients:
        return GroebnerBasis(order=order, gens=())
    return buchberger(quotients, order)


@dataclass
class AnnChain:
    """The annihilator chain (I : f), (I : f^2), ... with stabilization info."""

    colon_bases: list          # list[GroebnerBasis], index n-1 holds (I : f^n)
    stabilized_at: int | None  # smallest n with (I:f^n) == (I:f^(n+1)); None if not seen

    def __len__(self):
        return len(self.colon_bases)


def annihilator_chain(gens: Sequence[Poly], f: Poly, n_max: int,
                      order=None) -> AnnChain:
    """Colon ideals by successive powers of f, with syntactic stabilization.

    Level n is (I : f^n) = ((I : f^(n-1)) : f) (Cox, Little & O'Shea,
    §4.4): one colon by f of the level before, so f^n is never formed.
    The first level that repeats the one before is the last computed:
    a colon of the same reduced basis by the same f is the same basis,
    so it is copied to the levels after it.
    """
    order = order or MonomialOrder()
    if not f:
        raise StructuralError("annihilator chain of the zero polynomial")
    if n_max < 1:
        raise StructuralError(
            f"annihilator chain needs at least 1 level, got {n_max}")
    chain = [colon_principal(list(gens), f, order)]
    stab = None
    while stab is None and len(chain) < n_max:
        chain.append(colon_principal(list(chain[-1].gens), f, order))
        if chain[-1].gens == chain[-2].gens:
            stab = len(chain) - 1
    chain += chain[-1:] * (n_max - len(chain))
    return AnnChain(colon_bases=chain, stabilized_at=stab)

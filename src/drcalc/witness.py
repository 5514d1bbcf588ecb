"""A proof by interval enclosure that a flat 1-form has no flat antiderivative.

The function phi(x) = sin^2(1/x) e^{-1/x^2} vanishes to infinite order
at 0 and on the null sequence 1/(k*pi).  Any antiderivative T of
tau = e^{-1/phi} with T(0) = 0 that lived in the ideal of functions
flat on the zero set would vanish at every 1/n; but tau > 0 off the
zeros, so T(1/n) is a strictly positive integral.  This module
computes certified lower bounds for those integrals.

Near 1/3 the integrand is of order e^{-400000}: no fixed-exponent
binary format can represent it, which is why everything here is a
(sign, log magnitude) pair at 200-bit-or-better precision.  The bounds
are proofs, not estimates: on each grid cell, interval arithmetic
(Moore 1966; Tucker 2011, *Validated Numerics*) encloses phi over the
whole cell with every operation rounded outward, and the cells are
summed in the log domain with the result rounded downward.  The
arithmetic is mpmath.libmp's on raw (lo, hi) endpoint pairs: the mpi_*
interval primitives where both ends of a value are read, and a single
mpf_* call rounded toward floor or ceiling where only one end is.  Of
sin^2 only the lower end is read: sin is monotone in each quadrant, so
the quadrants of the cell's ends name the one end where |sin| is
least, and one sine there gives, bit for bit, the lower end of the
squared interval sine.

Only the cells that can reach that sum are enclosed.  Dropping positive
terms can only lower a sum, so any subset of the cells still gives a
proof; a binary64 estimate at each cell's midpoint therefore picks the
cells, with no rigor needed, and the enclosure runs on those alone.
Past n = 2 a single cell of the window decides the bound.

The mpmath arithmetic lives in ``drcalc._enclosure``, which the
functions here import when they compute, once per call: loading this
module, as ``drcalc.cli`` does at start, does not load mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import StructuralError

DEFAULT_PRECISION = 200
DEFAULT_GRID = 1024


@dataclass(frozen=True)
class LogValue:
    """A nonnegative real held as a sign and a log magnitude."""

    sign: str  # "zero" | "positive"
    log: object = None  # mpf when positive

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(sign="zero")

    @classmethod
    def from_log(cls, log) -> "LogValue":
        return cls(sign="positive", log=log)


def tau_log_eval(x, precision_bits: int = DEFAULT_PRECISION) -> LogValue:
    """tau = e^{-1/phi} as a log-domain value; zero where phi vanishes."""
    from ._enclosure import phi_eval, workprec

    with workprec(precision_bits):
        p = phi_eval(x, precision_bits)
        if p == 0:
            return LogValue.zero()
        return LogValue.from_log(-1 / p)


def _log_inverse_phi(x: float) -> float:
    """log(1/phi(x)) = u^2 - 2 log|sin u| at u = 1/x, in binary64.

    An estimate, not a bound: inf where u, u^2 or 1/sin(u)^2 leaves
    the binary64 range, so such a point only ever ranks last.
    """
    u = 1.0 / x
    if math.isinf(u):
        return math.inf
    s = abs(math.sin(u))
    if s == 0.0:
        return math.inf
    return u * u - 2.0 * math.log(s)


def log_integral_lower_bound(
    a, b, grid: int = DEFAULT_GRID, precision_bits: int = DEFAULT_PRECISION
) -> LogValue:
    """A certified lower bound for the integral of tau over [a, b].

    A cell of width w adds at least w e^{-1/phi_lo}, phi_lo being the
    lower end of an interval enclosure of phi over it; a cell whose
    enclosure reaches 0 is void.  Cell edges enclose a + (b - a) i/grid,
    the same intervals wherever i/grid is, so halved cells nest in their
    parents and, by inclusion isotonicity, the per-cell bounds nest: the
    two halves of a cell, summed exactly, bound at least what the cell
    bounds.  The summed bound can still lose ground when the grid is
    refined, because every exponential and partial sum of the log-sum
    is rounded toward floor: the loss is up to a rounding per kept cell
    and grows with their number.  At 7 bits the n = 1 window reads
    -6.5625 at grid 64, -6.6875 at 256 and -7.375 at 1024, while at 16
    and 53 bits it rises from grid 64 to 1024.  Every value is a lower
    bound all the same.  A zero result says nothing.  ``a`` and ``b``
    are ints or floats.

    The span b - a, the width w = span/grid, log w and u = 1/cell are
    full intervals, both ends rounded outward.  Elsewhere only one end
    is read, so only that end is computed: of a cell's left edge the
    lower end, lo_a + span_lo i/grid_hi rounded toward floor at every
    step, and of its right edge the matching upper end rounded toward
    ceiling (every operand is nonnegative, so these are the ends the
    interval product, quotient and sum give); then the upper end of u^2,
    the lower end of e^(-u^2) from it, the lower end of sin^2 u from one
    sine at the end of u where |sin| is least (none when u holds a zero
    of sin, and the cell is void), phi_lo from the lower ends of sin^2 u
    and e^(-u^2), the upper end of 1/phi_lo, and the cell's certified
    log, log w - 1/phi_lo, rounded toward floor.  Each is the very
    endpoint the full interval sine, product, quotient or difference
    would give.

    Only the cells that can reach the sum are enclosed.  A binary64
    pre-pass estimates each cell's log as log w - 1/phi at its
    midpoint; phi_lo <= phi(mid), so up to float rounding that is an
    upper estimate of the cell's certified log.  Cells are enclosed in
    decreasing order of estimate until one estimate falls below
    best - margin, best being the largest certified cell log so far,
    and the certified logs within the margin of the final best are
    summed in cell order.  The estimates are compared as log(1/phi),
    which stays in range where 1/phi overflows binary64 (past n = 26).

    The margin is precision_bits ln 2 + ln grid + 64 nats, and the
    estimate is discounted by a relative 2^-20 for float rounding, so
    the at most ``grid`` cells left out sum to under
    2^-precision_bits e^-64 of the largest term: below the last bit of
    the sum.  Leaving cells out never makes the bound unsound — any
    subset of the cells is a lower bound, and outward rounding is
    monotone, so it can only lower the result.  The pre-pass decides
    what is computed, never what is claimed.  Summing only cells within
    the margin also keeps each exponential of the log-sum small: a term
    10^5 nats below the top would make mpmath compute ln 2 to some
    hundred thousand bits.
    """
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    if grid < 1:
        raise StructuralError(f"grid must be at least 1, got {grid}")
    if precision_bits < 1:
        raise StructuralError(f"need precision >= 1 bit, got {precision_bits}")
    from . import _enclosure

    cells = _enclosure.Cells(a, b, grid, precision_bits)
    if cells.empty:  # too coarse to bound any cell's width
        return LogValue.zero()

    step = (float(b) - float(a)) / grid
    ranked = sorted(
        (_log_inverse_phi(float(a) + (i - 0.5) * step), i)
        for i in range(1, grid + 1)
    )
    margin = precision_bits * math.log(2) + math.log(grid) + 64
    slack = 1 - 2.0**-20
    best = None
    cutoff = math.inf  # log(1/phi) past which a cell cannot reach the sum
    logs = {}
    for estimate, i in ranked:
        if estimate * slack > cutoff:
            break
        log = cells.log(i)
        if log is None:
            continue
        logs[i] = log
        if best is None or log > best:
            best = log
            cutoff = cells.cutoff(best, margin)
    kept = [logs[i] for i in sorted(logs) if logs[i] - best >= -margin]
    return _enclosure.log_sum_lower_bound(kept, precision_bits)


def zero_free_window(n: int):
    """A window up to binary64 1/n, bounded away from the zeros of tau.

    The window runs from the largest null point 1/(k*pi) below 1/n up
    to 1/n (which binary64 may round up), stepping a tenth of its
    length off the null end; 1/n is never a null point.
    """
    k = 1
    while 1.0 / (k * math.pi) >= 1.0 / n:
        k += 1
    lo = 1.0 / (k * math.pi)
    hi = 1.0 / n
    return lo + (hi - lo) / 10, hi


@dataclass(frozen=True)
class WitnessEntry:
    n: int
    bound: LogValue
    verdict: str  # "positive" | "indeterminate"

    def format(self) -> str:
        if self.bound.sign == "positive":
            from ._enclosure import nstr

            value = nstr(self.bound.log, 10)
        else:
            value = "-inf"
        return f"n={self.n} logT_lower={value} verdict={self.verdict}"


@dataclass(frozen=True)
class WitnessReport:
    entries: tuple

    def format(self) -> str:
        return "\n".join(e.format() for e in self.entries)


def nonexactness_witness(
    n_max: int,
    grid: int = DEFAULT_GRID,
    precision_bits: int = DEFAULT_PRECISION,
) -> WitnessReport:
    """Certified lower bounds for T(1/n) = integral of tau over (0, 1/n].

    The verdict is positive exactly when the bound is nonzero: the
    bound is an outward-rounded enclosure, so it is a proof.
    """
    if n_max < 1:
        raise StructuralError(f"nmax must be at least 1, got {n_max}")
    entries = []
    for n in range(1, n_max + 1):
        a, b = zero_free_window(n)
        if Fraction(b) > Fraction(1, n):  # binary64 rounded 1/n upward
            b = math.nextafter(b, 0.0)
        bound = log_integral_lower_bound(a, b, grid, precision_bits)
        verdict = "positive" if bound.sign == "positive" else "indeterminate"
        entries.append(WitnessEntry(n=n, bound=bound, verdict=verdict))
    return WitnessReport(entries=tuple(entries))


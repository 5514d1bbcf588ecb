"""The mpmath side of the positivity witness: libmp endpoint arithmetic.

Everything in ``drcalc.witness`` that computes with mpmath lives here,
so that importing the package, and every command but ``witness``, never
loads mpmath; ``witness`` imports this module inside the functions that
compute, once per call.  Intervals are raw (lo, hi) pairs of libmp
values: the mpi_* primitives where both ends of a value are read, and a
single mpf_* call rounded toward floor or ceiling where only one is.
"""

from __future__ import annotations

from mpmath import mp, nstr, workprec  # noqa: F401  (nstr: for witness)
from mpmath.libmp import (
    MPZ_ONE,
    fone,
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos_sin,
    mpf_div,
    mpf_exp,
    mpf_le,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_sign,
    mpf_sub,
    mpi_div,
    mpi_log,
    mpi_sub,
    round_ceiling,
    round_floor,
)
from mpmath.libmp.libelefun import mod_pi2

from .errors import StructuralError
from .witness import DEFAULT_PRECISION, LogValue


def _enclose(x, prec: int):
    """An int or float as an interval of prec-bit endpoints, rounded outward."""
    p, q = x.as_integer_ratio()
    return (
        from_rational(p, q, prec, round_floor),
        from_rational(p, q, prec, round_ceiling),
    )


def _quadrant(x) -> int:
    """n with n pi/2 <= x < (n + 1) pi/2, read as mpmath reads it.

    This is the quadrant of mpmath.libmp.libmpi.cos_sin_quadrant, which
    mpi_sin orders its endpoints by.
    """
    sign, man, exp, bc = x
    if not man:
        return 0
    n = mod_pi2(man, exp, exp + bc, 15)[1]
    return -1 - n if sign else n


def _sin_square_lo(u, prec: int):
    """The lower end of sin(u)^2 over a finite interval u, from one sine.

    Bit for bit ``mpi_mul(s, s, prec)[0]`` with ``s = mpi_sin(u, prec)``,
    which computes cos and sin at both ends.  sin is monotone in each
    quadrant, so the quadrants of the ends say where |sin| is least: at
    the lower end in quadrants 0 and 2 (mod 4), where |sin| rises, at
    the upper end in 1 and 3, where it falls, and at the smaller of the
    two across a maximum of |sin| (quadrant 0 to 1 or 2 to 3).  Across
    a zero of sin the lower end is at most 0: that returns fzero, with
    no sine computed.  The chosen sine, computed at prec + 20 bits,
    gets mpi_sin's outward rounding: scaled by 1 - 2^(10 - prec - 20)
    toward zero (floor on the positive side, ceiling on the negative)
    and clamped at |sin| = 1.  Its square is rounded toward floor.
    """
    a, b = u
    na, nb = _quadrant(a), _quadrant(b)
    wp = prec + 20
    if na == nb:
        s = mpf_abs(mpf_cos_sin(b if na % 2 else a, wp, which=2))
    elif nb == na + 1 and na % 2 == 0:
        sa = mpf_abs(mpf_cos_sin(a, wp, which=2))
        sb = mpf_abs(mpf_cos_sin(b, wp, which=2))
        s = sa if mpf_le(sa, sb) else sb
    else:
        return fzero
    less = from_man_exp((MPZ_ONE << wp) - (MPZ_ONE << 10), -wp)
    s = mpf_mul(s, less, prec, round_floor)
    if s[2] + s[3] >= 1:
        s = fone
    return mpf_mul(s, s, prec, round_floor)


def phi_eval(x, precision_bits: int = DEFAULT_PRECISION):
    """sin^2(1/x) e^{-1/x^2}, extended by zero at x = 0.

    An input indistinguishable from a null point 1/(k*pi) — closer
    than half the coarser of the calling and working precisions —
    returns exactly zero; this only ever lowers the computed integral
    bounds.
    """
    tol_bits = min(precision_bits, mp.prec) // 2
    with workprec(precision_bits):
        x = mp.mpf(x)
        if x == 0:
            return mp.mpf(0)
        u = 1 / (mp.pi * abs(x))
        k = mp.nint(u)
        if k >= 1 and abs(u - k) < mp.mpf(2) ** (-tol_bits):
            return mp.mpf(0)
        s = mp.sin(1 / x)
        return s * s * mp.exp(-1 / (x * x))


def log_sum_lower_bound(
    logs, precision_bits: int = DEFAULT_PRECISION
) -> LogValue:
    """A lower bound for log(sum of e^l over logs), rounded downward.

    ``logs`` are mpf values, each taken with all its bits.  Evaluated
    as top + log sum e^(l - top), top the largest log, on lower ends
    only: every difference, exponential, partial sum and the final log
    and add are rounded toward floor, so the result is certified.  An
    empty sum is zero.
    """
    if precision_bits < 1:
        raise StructuralError(f"need precision >= 1 bit, got {precision_bits}")
    if not logs:
        return LogValue.zero()
    prec = precision_bits
    top = max(logs)._mpf_
    total = fzero
    for log in logs:
        shifted = mpf_sub(log._mpf_, top, prec, round_floor)
        total = mpf_add(total, mpf_exp(shifted, prec, round_floor), prec, round_floor)
    log = mpf_add(mpf_log(total, prec, round_floor), top, prec, round_floor)
    return LogValue.from_log(mp.make_mpf(log))


def _edge_end(lo, span, g, i, end, prec: int):
    """End ``end`` (0 lower, 1 upper) of the interval lo + span i / g.

    ``lo``, ``span`` and ``g`` are intervals with nonnegative ends and
    ``g`` positive, so the interval product, quotient and sum take this
    end from one chain rounded toward floor (end 0) or ceiling (end 1):
    the same end of lo, span and i, and the other end of g.
    """
    rounding = (round_floor, round_ceiling)[end]
    offset = mpf_mul(span[end], from_int(i, prec, rounding), prec, rounding)
    offset = mpf_div(offset, g[1 - end], prec, rounding)
    return mpf_add(lo[end], offset, prec, rounding)


class Cells:
    """[a, b] cut into ``grid`` cells, each enclosed at ``prec`` bits.

    The span b - a, the width w = span/grid and log w are full
    intervals, both ends rounded outward.  ``empty`` says prec is too
    coarse to bound any cell's width above 0.
    """

    def __init__(self, a, b, grid: int, prec: int):
        self.prec = prec
        self.lo = _enclose(a, prec)
        self.span = mpi_sub(_enclose(b, prec), self.lo, prec)
        self.g = _enclose(grid, prec)
        width = mpi_div(self.span, self.g, prec)
        self.empty = mpf_sign(width[0]) <= 0
        if not self.empty:
            self.log_width = mpi_log(width, prec)

    def log(self, i: int):
        """Cell i's certified log, log w - 1/phi_lo rounded toward floor.

        None for a void cell: one whose enclosure of phi reaches 0.  Of
        the cell's edges, of u = 1/cell squared, of e^(-u^2), of sin^2 u
        and of 1/phi_lo only the end that is read is computed (see
        ``witness.log_integral_lower_bound``).
        """
        prec = self.prec
        cell = (
            _edge_end(self.lo, self.span, self.g, i - 1, 0, prec),
            _edge_end(self.lo, self.span, self.g, i, 1, prec),
        )
        if mpf_sign(cell[0]) <= 0:
            return None
        u = mpi_div((fone, fone), cell, prec)
        uu_hi = mpf_mul(u[1], u[1], prec, round_ceiling)
        e_lo = mpf_exp(mpf_neg(uu_hi), prec, round_floor)
        phi_lo = mpf_mul(_sin_square_lo(u, prec), e_lo, prec, round_floor)
        if mpf_sign(phi_lo) <= 0:
            return None
        inverse_hi = mpf_div(fone, phi_lo, prec, round_ceiling)
        return mp.make_mpf(mpf_sub(self.log_width[0], inverse_hi, prec, round_floor))

    def cutoff(self, best, margin: float) -> float:
        """log(1/phi) past which a cell cannot come within margin of best."""
        return float(mp.log(mp.mpf(self.log_width[1]) - best + margin))

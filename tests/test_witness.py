import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (
    from_float,
    mpf_pos,
    mpf_sign,
    mpi_add,
    mpi_div,
    mpi_mul,
    mpi_sin,
    mpi_sub,
    round_ceiling,
    round_floor,
)

from drcalc import _enclosure, witness
from drcalc._enclosure import log_sum_lower_bound, phi_eval
from drcalc.cli import main
from drcalc.errors import StructuralError
from drcalc.witness import (
    LogValue,
    log_integral_lower_bound,
    nonexactness_witness,
    tau_log_eval,
    zero_free_window,
)

from oracles import float64_lower_bound


def close(a, b, tol="1e-8"):
    return abs(mpmath.mpf(a) - mpmath.mpf(b)) < mpmath.mpf(tol)


def test_phi_pinned_values():
    assert close(phi_eval(0.5), "0.0151437697052")
    assert phi_eval(0) == 0
    # off the null sequence phi stays positive all the way down, just
    # far beyond any fixed-exponent format
    deep = phi_eval(mpmath.mpf("1e-9"))
    assert deep > 0
    assert mpmath.log(deep) < -(10 ** 17)


def test_phi_vanishes_on_null_sequence():
    with mpmath.workprec(200):
        for k in range(1, 101):
            x = 1 / (k * mpmath.pi)
            assert phi_eval(x) == 0, k


def test_phi_null_snap_at_caller_precision():
    # a 53-bit representation of 1/pi is off by ~2^-54 but must still
    # count as the null point
    x = 1 / math.pi
    assert phi_eval(x) == 0


def test_phi_positive_off_nulls():
    for x in (0.5, 0.9, 0.45, 0.35):
        assert phi_eval(x) > 0


def test_tau_pinned_values():
    assert close(tau_log_eval(0.5).log, "-66.0337564204")
    assert close(tau_log_eval(0.9).log, "-4.27921105261")
    with mpmath.workprec(200):
        null = 1 / mpmath.pi
    assert tau_log_eval(null).sign == "zero"


def test_logvalue_arithmetic_matches_exact():
    # the outward-rounded log-sum against exact log(a + b); at 400 bits
    # the exact log-sum of its inputs also shows it never lies above
    total = log_sum_lower_bound([mpmath.log(2), mpmath.log(3)])
    assert close(total.log, mpmath.log(5))
    assert log_sum_lower_bound([]).sign == "zero"
    two = log_sum_lower_bound([mpmath.log(2)])
    assert close(two.log, mpmath.log(2))
    rng = random.Random(5)
    for _ in range(50):
        a = rng.uniform(0.1, 100.0)
        b = rng.uniform(0.1, 100.0)
        logs = [mpmath.log(a), mpmath.log(b)]
        s = log_sum_lower_bound(logs)
        assert close(s.log, mpmath.log(a + b), "1e-12")
        with mpmath.workprec(400):
            assert s.log <= mpmath.log(mpmath.exp(logs[0]) + mpmath.exp(logs[1]))


def _log_sum_reference(logs, bits):
    """top + ln sum e^(l - top), the lower end in mpmath's interval context.

    Built here, independently of the module under test.
    """
    ctx = MPIntervalContext()
    ctx.prec = bits
    top = max(logs)
    total = ctx.mpf(0)
    for log in logs:
        total += ctx.exp(ctx.mpf(log) - top)
    with mpmath.workprec(bits):
        return mpmath.mpf((ctx.ln(total) + top).a)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(100, 300),
    st.lists(st.floats(-200.0, 20.0), min_size=1, max_size=8),
    st.sampled_from([53, 100, 200]),
)
def test_log_sum_matches_interval_reference(made_bits, values, bits):
    # logs carrying more bits than mp.prec enter with every bit
    with mpmath.workprec(made_bits):
        logs = [mpmath.mpf(v) + mpmath.mpf(1) / 7 for v in values]
    assert all(log._mpf_[3] > mpmath.mp.prec for log in logs)
    bound = log_sum_lower_bound(logs, bits)
    assert bound.sign == "positive"
    assert bound.log == _log_sum_reference(logs, bits)  # bit for bit


def test_log_sum_rejects_zero_precision():
    # test_integral_input_validation holds the same case for the integral
    for logs in ([mpmath.mpf(0)], []):
        with pytest.raises(StructuralError):
            log_sum_lower_bound(logs, precision_bits=0)


def test_integral_bound_high_interval():
    b = log_integral_lower_bound(0.8, 1.0, grid=64)
    assert b.sign == "positive"
    assert b.log > -10
    assert close(b.log, "-5.930520363", "1e-6")


def test_integral_bound_is_a_lower_bound():
    # tau increases on [0.8, 1], so sup * width caps the true integral
    b = log_integral_lower_bound(0.8, 1.0, grid=64)
    cap = tau_log_eval(1.0).log + mpmath.log(mpmath.mpf("0.2"))
    assert b.log < cap


def test_integral_bound_mid_interval():
    b = log_integral_lower_bound(0.45, 0.5, grid=64)
    assert close(b.log, "-73.7877943", "1e-5")


def _log_quad_tau(a, b):
    """log of the integral of tau by mpmath.quad, split at null points.

    tau is written out here, independently of the module under test.
    """

    def tau(x):
        return mpmath.exp(-1 / (mpmath.sin(1 / x) ** 2 * mpmath.exp(-1 / x**2)))

    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        nulls = [1 / (k * mpmath.pi) for k in range(1, 8)]
        points = [a] + sorted(x for x in nulls if a < x < b) + [b]
        return mpmath.log(mpmath.quad(tau, points))


@pytest.mark.parametrize(
    "window",
    [(0.8, 1.0), (0.45, 0.5), zero_free_window(1), zero_free_window(2)],
)
def test_integral_bound_is_below_quadrature(window):
    oracle = _log_quad_tau(*window)
    for grid in (1, 8, 64):
        b = log_integral_lower_bound(*window, grid=grid)
        assert b.sign == "positive"
        assert b.log < oracle


def test_low_precision_bound_stays_below_quadrature():
    # at 7 bits a finer grid can give a lower bound (the log-sum rounds
    # once per kept cell), but never one above the integral
    window = zero_free_window(1)
    oracle = _log_quad_tau(*window)
    for grid in (64, 128, 256, 512, 1024):
        b = log_integral_lower_bound(*window, grid=grid, precision_bits=7)
        assert b.sign == "positive", grid
        assert b.log <= oracle, grid


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.3, 0.99),
    st.floats(0.001, 0.2),
    st.integers(1, 64),
)
def test_enclosure_property(lo, width, grid):
    hi = min(lo + width, 1.0)
    coarse = log_integral_lower_bound(lo, hi, grid=grid)
    fine = log_integral_lower_bound(lo, hi, grid=2 * grid)
    if coarse.sign == "zero":
        return
    assert coarse.log <= _log_quad_tau(lo, hi)
    # halving every cell never lowers the bound
    assert fine.sign == "positive"
    assert fine.log >= coarse.log


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(1e-3, 10.0),
    st.integers(1, 4096),
    st.one_of(st.just(7), st.integers(1, 200)),
    st.floats(0.0, 1.0),
)
@example(a=0.1, length=0.3, grid=1000, prec=7, at=0.37)
@example(a=0.1, length=0.3, grid=1000, prec=7, at=0.0)
def test_edge_end_matches_the_interval_edge(a, length, grid, prec, at):
    # the cell edge lo + span i / g as the interval primitives give it;
    # at 7 bits _enclose(i) is not exact for i = 370
    i = round(at * grid)
    lo = _enclosure._enclose(a, prec)
    span = mpi_sub(_enclosure._enclose(a + length, prec), lo, prec)
    g = _enclosure._enclose(grid, prec)
    assume(mpf_sign(mpi_div(span, g, prec)[0]) > 0)  # as the bound requires
    offset = mpi_div(mpi_mul(span, _enclosure._enclose(i, prec), prec), g, prec)
    want = mpi_add(lo, offset, prec) if i else lo
    ends = tuple(_enclosure._edge_end(lo, span, g, i, end, prec) for end in (0, 1))
    assert ends == want


def test_integral_across_a_null_point_collapses():
    # 1/pi lies inside [0.3, 0.32]; cells touching it are voided and
    # what survives is astronomically small
    b = log_integral_lower_bound(0.3, 0.32, grid=64)
    assert b.sign == "zero" or b.log < -(10 ** 6)


def test_integral_input_validation():
    with pytest.raises(ValueError):
        log_integral_lower_bound(-0.1, 0.5)
    with pytest.raises(ValueError):
        log_integral_lower_bound(0.5, 0.5)
    for grid in (0, -5):
        with pytest.raises(StructuralError):
            log_integral_lower_bound(0.5, 0.6, grid=grid)
    with pytest.raises(StructuralError):
        log_integral_lower_bound(0.5, 0.6, precision_bits=0)


@pytest.mark.parametrize("bits", [1, 2, 7])
@pytest.mark.parametrize("grid", [1, 3, 64, 1024])
def test_tiny_precision_never_crashes(capsys, bits, grid):
    # at a bit or two the cell width's enclosure can reach 0; that bounds
    # nothing, so the line is indeterminate instead of a log of a negative
    argv = ["witness", "--nmax", "5", "--grid", str(grid),
            "--precision-bits", str(bits)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    assert [line.split()[0] for line in lines] == [f"n={n}" for n in range(1, 6)]
    for line in lines:
        assert line.endswith(
            ("verdict=positive", "logT_lower=-inf verdict=indeterminate")
        )
    # the n = 3 window: at 1 or 2 bits its ends round to the same value
    a, b = zero_free_window(3)
    b = math.nextafter(b, 0.0)
    if bits < 7:
        assert log_integral_lower_bound(a, b, grid, bits) == LogValue.zero()


def test_refining_the_grid_never_loses_ground():
    rng = random.Random(11)
    for _ in range(20):
        a = rng.uniform(0.05, 0.9)
        b = a + rng.uniform(0.01, 0.1)
        coarse = log_integral_lower_bound(a, b, grid=8)
        fine = log_integral_lower_bound(a, b, grid=16)
        if coarse.sign == "zero":
            continue
        assert fine.sign == "positive"
        assert fine.log >= coarse.log


def test_zero_free_windows():
    for n in range(1, 101):
        lo, hi = zero_free_window(n)
        assert 0 < lo < hi
        assert hi == 1.0 / n
        for k in range(1, 4 * n + 8):
            assert not lo <= 1.0 / (k * math.pi) <= hi, (n, k)


def test_witness_report():
    rep = nonexactness_witness(3, grid=256)
    assert all(e.verdict == "positive" for e in rep.entries)
    logs = [e.bound.log for e in rep.entries]
    assert close(logs[0], "-5.846714360", "1e-6")
    assert close(logs[1], "-73.67770319", "1e-5")
    assert close(logs[2], "-410794.2953", "1e-2")
    # deeper points have much smaller mass, in order
    assert logs[0] > logs[1] > logs[2]
    assert [e.n for e in rep.entries] == [1, 2, 3]
    assert rep.entries[0].format().startswith("n=1 logT_lower=-5.84671436 ")


def test_witness_windows_stay_inside_one_over_n(monkeypatch):
    # binary64 1/5 lies above 1/5; no window may pass 1/n
    seen = []

    def record(a, b, *rest):
        seen.append(b)
        return LogValue.zero()

    monkeypatch.setattr(witness, "log_integral_lower_bound", record)
    nonexactness_witness(20)
    assert all(Fraction(b) <= Fraction(1, n) for n, b in enumerate(seen, 1))
    assert Fraction(1.0 / 5) > Fraction(1, 5)


def test_witness_rejects_bad_count():
    with pytest.raises(ValueError):
        nonexactness_witness(0)


def test_binary64_contrast():
    lo, hi = zero_free_window(1)
    assert float64_lower_bound(lo, hi) > 0.0
    lo, hi = zero_free_window(3)
    assert float64_lower_bound(lo, hi) == 0.0


def _full_grid_log_bound(a, b, grid, bits):
    """Every cell enclosed and summed: the bound with nothing left out.

    Rebuilt here from mpmath's interval context, independently of the
    module under test; None when every cell is void.  Only a term more
    than 2^16 nats below the largest is skipped: it is under
    2^-90000 of the sum and moves no bit of it, but its exponential
    would make mpmath compute ln 2 to as many bits as the term's
    exponent has digits (minutes for one window).
    """
    ctx = MPIntervalContext()
    ctx.prec = bits
    lo = ctx.mpf(a)
    span = ctx.mpf(b) - lo
    log_width = ctx.ln(span / grid)
    logs = []
    right = lo
    for i in range(1, grid + 1):
        left, right = right, lo + span * i / grid
        cell = ctx.mpf([left.a, right.b])
        if cell.a <= 0:
            continue
        u = 1 / cell
        s = ctx.sin(u)
        phi_lo = (s * s * ctx.exp(-u * u)).a
        if phi_lo > 0:
            logs.append((log_width - 1 / phi_lo).a)
    if not logs:
        return None
    top = max(logs)
    total = ctx.mpf(0)
    for log in logs:
        if log - top > -(2**16):
            total += ctx.exp(ctx.mpf(log) - top)
    with mpmath.workprec(bits):
        return mpmath.mpf((ctx.ln(total) + top).a)


def _assert_matches_full_grid(bound, a, b, grid, bits):
    reference = _full_grid_log_bound(a, b, grid, bits)
    if reference is None:
        assert bound.sign == "zero"
        return
    assert bound.sign == "positive"
    assert bound.log <= reference
    assert bound.log == reference  # bit for bit


def _windows():
    """Windows in (0, 1]: deep ones (n up to 60), ones from 0, any."""
    deep = st.integers(1, 60).map(zero_free_window)
    from_zero = st.floats(0.001, 1.0).map(lambda b: (0.0, b))
    anywhere = st.tuples(st.floats(0.0, 0.99), st.floats(0.001, 0.5)).map(
        lambda t: (t[0], min(t[0] + t[1], 1.0))
    )
    return st.one_of(deep, from_zero, anywhere)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_windows(), st.integers(1, 256), st.sampled_from([53, 100, 200]))
def test_pruned_bound_equals_the_full_grid(window, grid, bits):
    # enclosing only the cells that can reach the sum loses no bit
    a, b = window
    bound = log_integral_lower_bound(a, b, grid, bits)
    _assert_matches_full_grid(bound, a, b, grid, bits)


def test_deep_windows_prune_without_overflow(monkeypatch, capsys):
    # past n = 26, 1/phi overflows binary64; the pre-pass must still
    # rank in the log domain and enclose fewer than grid cells
    sins = []
    calls = []
    real_sin = _enclosure._sin_square_lo
    real_bound = witness.log_integral_lower_bound

    def counting_sin(x, prec):
        # one sine-square lower end per enclosed cell
        sins.append(x)
        return real_sin(x, prec)

    def recording_bound(a, b, grid, bits):
        before = len(sins)
        bound = real_bound(a, b, grid, bits)
        calls.append((a, b, grid, bits, bound, len(sins) - before))
        return bound

    monkeypatch.setattr(_enclosure, "_sin_square_lo", counting_sin)
    monkeypatch.setattr(witness, "log_integral_lower_bound", recording_bound)
    assert main(["witness", "--nmax", "30", "--grid", "64"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(calls) == 30
    for n, (a, b, grid, bits, bound, enclosed) in enumerate(calls, 1):
        assert 0 < enclosed < grid, (n, enclosed)
        _assert_matches_full_grid(bound, a, b, grid, bits)
        value = mpmath.nstr(bound.log, 10)
        assert out[n + 1] == f"n={n} logT_lower={value} verdict=positive"


def _quadrant_interval(k, offset, width, prec):
    """[k pi/2 + offset, that + width], ends rounded outward to prec bits."""
    with mpmath.workprec(prec + 64):
        lo = k * mpmath.pi / 2 + offset
        hi = lo + width
    return (
        mpf_pos(lo._mpf_, prec, round_floor),
        mpf_pos(hi._mpf_, prec, round_ceiling),
    )


def _assert_sin_square_matches_mpi_sin(u, prec):
    # mpmath's own interval sine, squared, is the oracle: bit for bit,
    # or both lower ends at most 0 (a void cell)
    s = mpi_sin(u, prec)
    want = mpi_mul(s, s, prec)[0]
    got = _enclosure._sin_square_lo(u, prec)
    if mpf_sign(want) <= 0:
        assert mpf_sign(got) <= 0, (u, prec)
    else:
        assert got == want, (u, prec)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.integers(-8, 400),
    st.floats(-1e-3, 1e-3),
    st.floats(-15, math.log10(3)),
    st.integers(7, 300),
)
def test_sin_square_lo_matches_interval_sine(k, offset, log_width, prec):
    u = _quadrant_interval(k, offset, 10**log_width, prec)
    _assert_sin_square_matches_mpi_sin(u, prec)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(7, 300),
    st.integers(0, 2**13),
    st.integers(0, 3),
    st.integers(0, 60),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(0, 30),
)
def test_sin_square_lo_at_rounding_boundaries(prec, t, q, turns, y, scale):
    # |sin| at the end that holds its minimum is g (1 + t 2^-(prec + 20)),
    # g = y 2^-scale cut to prec bits: a point of the prec-bit grid,
    # about t units of the working precision above it.  Whether the
    # outward rounding keeps g or drops an ulp below it turns on the
    # perturbation mpi_sin applies, so these cells pin its constants.
    wp = prec + 20
    g = mpmath.mp.make_mpf(from_float(math.ldexp(y, -scale), prec, round_floor))
    pi = mpmath.pi
    with mpmath.workprec(prec + 80):
        base = mpmath.asin(g * (1 + t * mpmath.mpf(2) ** -wp))
        end = (base, pi - base, pi + base, 2 * pi - base)[q] + 2 * pi * turns
        # the other end, where |sin| is larger, a little way into the quadrant
        other = end + (-1) ** q * mpmath.mpf(2) ** -(prec + 4)
    ends = sorted((end, other))
    u = tuple(mpf_pos(x._mpf_, prec + 60, round_floor) for x in ends)
    _assert_sin_square_matches_mpi_sin(u, prec)


def test_sin_square_lo_on_every_quadrant_pair():
    # ends in quadrants k and k + span, for every k mod 4 and span 0..4;
    # the cell is void exactly when u holds a multiple of pi
    seen = set()
    for start in range(4):
        for span in range(5):
            for turns in (-3, 0, 1, 25):
                k = 4 * turns + start
                for prec in (7, 53, 200):
                    width = span * math.pi / 2 + 0.5
                    u = _quadrant_interval(k, 0.25, width, prec)
                    _assert_sin_square_matches_mpi_sin(u, prec)
                    with mpmath.workprec(prec + 64):
                        a, b = (mpmath.mpf(end) for end in u)
                        na = int(mpmath.floor(a / (mpmath.pi / 2)))
                        nb = int(mpmath.floor(b / (mpmath.pi / 2)))
                        first_zero = mpmath.ceil(a / mpmath.pi) * mpmath.pi
                    seen.add((na % 4, nb - na))
                    void = mpf_sign(_enclosure._sin_square_lo(u, prec)) <= 0
                    assert void == (first_zero <= b), (k, span, prec)
    assert seen >= {(q, span) for q in range(4) for span in range(5)}


def test_one_sine_per_same_quadrant_cell(monkeypatch):
    sines = []
    real = _enclosure.mpf_cos_sin

    def counting(x, prec, *args, **kwargs):
        sines.append(x)
        return real(x, prec, *args, **kwargs)

    monkeypatch.setattr(_enclosure, "mpf_cos_sin", counting)
    # (k, offset): the cell [k pi/2 + offset, + 0.5]
    cases = {
        1: [(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25), (401, 0.25)],
        2: [(0, 1.25), (2, 1.25)],  # across a maximum of |sin|
        0: [(1, 1.25), (3, 1.25)],  # across a zero of sin: void
    }
    for count, cells in cases.items():
        for k, offset in cells:
            sines.clear()
            u = _quadrant_interval(k, offset, 0.5, 200)
            _enclosure._sin_square_lo(u, 200)
            assert len(sines) == count, (k, offset)

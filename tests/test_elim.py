import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc import elim
from drcalc.parse import parse_poly
from drcalc.reiffen import divergence_system

from oracles import fraction_back_substitute, gauss_rank


def _rows(dense):
    """The nonzero ``{row: {col: value}}`` rows of a dense matrix."""
    return {
        r: {c: v for c, v in enumerate(row) if v}
        for r, row in enumerate(dense)
        if any(row)
    }


def _pairs(dense):
    """Each dense row as the ``(col, value)`` pairs of its nonzeros."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in dense]


def _solve(dense, rhs):
    """``solve_rational`` on a rational system, times its denominator.

    The certificate of the integer system, times the denominator, is
    the certificate of the rational one; solutions are shared.
    """
    den = lcm(
        *(v.denominator for row in dense for v in row),
        *(Fraction(b).denominator for b in rhs),
    )
    rows = [[(c, int(v * den)) for c, v in row] for row in _pairs(dense)]
    tag, payload = elim.solve_rational(
        rows, [int(b * den) for b in rhs], len(dense[0])
    )
    if tag == "infeasible":
        payload = [den * v for v in payload]
    return tag, payload


def _random_matrix(rng, nr, nc, density=0.6):
    return [
        [
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            if rng.random() < density
            else Fraction(0)
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def test_rank_matches_dense_oracle_100():
    rng = random.Random(42)
    for _ in range(100):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 7)
        m = _random_matrix(rng, nr, nc)
        assert elim.rank_sparse(_rows(m), nr, nc) == gauss_rank(m)


def test_rank_split_reads_both_prefix_ranks():
    # the rank after the head rows and after all rows, from one
    # elimination, against dense elimination of each row set on its own
    rng = random.Random(16)
    for _ in range(100):
        nr = rng.randrange(0, 8)
        nc = rng.randrange(1, 7)
        m = [
            [rng.randrange(-4, 5) if rng.random() < 0.5 else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        cut = rng.randrange(0, nr + 1)
        rows = [{c: v for c, v in enumerate(row) if v} for row in m]
        got = elim.rank_split(rows[:cut], rows[cut:])
        assert got == (gauss_rank(m[:cut]), gauss_rank(m)), (m, cut)


def test_both_kernels_agree_with_oracle():
    rng = random.Random(43)
    for _ in range(60):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        ints = [
            [rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)
        ]
        want = gauss_rank([[Fraction(v) for v in row] for row in ints])
        assert elim.rank_sparse(_rows(ints), nr, nc) == want


def test_rank_sparse_structural_cases():
    # the three-row shape from the divergence system: rank 2,
    # augmented with an inconsistent rhs column: rank 3
    rows = {0: {0: Fraction(5), 1: Fraction(1)},
            1: {0: Fraction(1), 1: Fraction(6)},
            2: {0: Fraction(2), 1: Fraction(5)}}
    assert elim.rank_sparse(rows, 3, 2) == 2
    aug = {r: {**row, 2: Fraction(1)} for r, row in rows.items()}
    assert elim.rank_sparse(aug, 3, 3) == 3


def test_rank_sparse_matches_dense():
    rng = random.Random(44)
    for _ in range(60):
        nr = rng.randrange(1, 8)
        nc = rng.randrange(1, 8)
        dense = _random_matrix(rng, nr, nc, density=0.3)
        assert elim.rank_sparse(_rows(dense), nr, nc) == gauss_rank(dense)


def test_empty_and_zero():
    assert elim.rank_sparse({}, 0, 0) == 0
    assert elim.rank_sparse({}, 5, 5) == 0
    assert elim.rank_sparse(_rows([[Fraction(0), Fraction(0)]]), 1, 2) == 0
    # no unknowns and an empty row with b != 0: 0 = b refutes on its own
    assert elim.solve_rational([(), ()], [0, 1], 0) == (
        "infeasible", [0, 1]
    )


def test_solve_rational_feasible():
    rng = random.Random(46)
    for _ in range(40):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        m = _random_matrix(rng, nr, nc)
        xstar = [Fraction(rng.randrange(-3, 4)) for _ in range(nc)]
        rhs = [sum(a * b for a, b in zip(row, xstar)) for row in m]
        tag, x = _solve(m, rhs)
        assert tag == "feasible"
        for row, b in zip(m, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b


def test_solve_rational_infeasible_certificate():
    m = [[Fraction(5), Fraction(1)],
         [Fraction(1), Fraction(6)],
         [Fraction(2), Fraction(5)]]
    rhs = [Fraction(1), Fraction(1), Fraction(1)]
    tag, lam = _solve(m, rhs)
    assert tag == "infeasible"
    # lam.A = 0 and lam.b = 1: verifiable without rerunning anything
    for c in range(2):
        assert sum(lam[r] * m[r][c] for r in range(3)) == 0
    assert sum(lam[r] * rhs[r] for r in range(3)) == 1


def test_solve_rational_random_infeasible():
    rng = random.Random(47)
    hits = 0
    for _ in range(60):
        nr = rng.randrange(2, 7)
        nc = rng.randrange(1, 4)
        m = _random_matrix(rng, nr, nc)
        rhs = [Fraction(rng.randrange(-5, 6)) for _ in range(nr)]
        tag, payload = _solve(m, rhs)
        if tag == "feasible":
            for row, b in zip(m, rhs):
                assert sum(a * v for a, v in zip(row, payload)) == b
        else:
            hits += 1
            for c in range(nc):
                assert sum(payload[r] * m[r][c] for r in range(nr)) == 0
            assert sum(payload[r] * rhs[r] for r in range(nr)) == 1
    assert hits > 5  # overdetermined random systems are usually infeasible


# ---------------------------------------------------------------------------
# pivot columns do not depend on row order, so pinned CLI lines do not either


def _system(f_text, degree):
    f = parse_poly(("x", "y"), f_text)
    system = divergence_system(f, parse_poly(("x", "y"), "1"), degree)
    return system, list(system.integer_rows), list(system.integer_rhs)


def test_solve_feasible_is_independent_of_row_order():
    system, rows, rhs = _system("x^2+y^2", 6)
    n = system.unknown_count
    tag, x = elim.solve_rational(rows, rhs, n)
    assert tag == "feasible"
    # the CLI line witness=[1/4*x; 1/4*y]: h_x = x/4, h_y = y/4
    support = {
        system.unknown_labels[j][1:]: v for j, v in enumerate(x) if v
    }
    assert support == {(0, (1, 0)): Fraction(1, 4), (1, (0, 1)): Fraction(1, 4)}
    rng = random.Random(49)
    for _ in range(10):
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        assert elim.solve_rational(
            [rows[p] for p in perm], [rhs[p] for p in perm], n
        ) == ("feasible", x)


def test_certificate_is_independent_of_row_order():
    system, rows, rhs = _system("x^4+y^5+y^4*x", 5)
    n = system.unknown_count
    pinned = [0, 0, 0, 7, 23, -29, 0, 0, 0, 0]
    assert elim.solve_rational(rows, rhs, n) == ("infeasible", pinned)
    rng = random.Random(50)
    for _ in range(10):
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        tag, lam = elim.solve_rational(
            [rows[p] for p in perm], [rhs[p] for p in perm], n
        )
        assert tag == "infeasible"
        assert lam == [pinned[p] for p in perm]


_small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def _sparse_systems(draw):
    """Sparse matrix with some rows forced to be combinations of others."""
    nr = draw(st.integers(1, 20))
    nc = draw(st.integers(1, 25))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
        _small, max_size=3 * nr,
    ))
    dense = [[Fraction(0)] * nc for _ in range(nr)]
    for (r, c), v in cells.items():
        dense[r][c] = v
    for _ in range(draw(st.integers(0, 5))):
        picks = draw(st.lists(st.integers(0, len(dense) - 1), min_size=1, max_size=3))
        coeffs = draw(st.lists(_small, min_size=len(picks), max_size=len(picks)))
        dense.append([
            sum((k * dense[p][c] for p, k in zip(picks, coeffs)), Fraction(0))
            for c in range(nc)
        ])
    order = draw(st.permutations(range(len(dense))))
    dense = [dense[p] for p in order]
    if draw(st.booleans()):
        xstar = draw(st.lists(_small, min_size=nc, max_size=nc))
        rhs = [sum(a * b for a, b in zip(row, xstar)) for row in dense]
    else:
        rhs = draw(st.lists(_small, min_size=len(dense), max_size=len(dense)))
    return dense, rhs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sparse_systems())
def test_sparse_kernel_property(system):
    dense, rhs = system
    nr, nc = len(dense), len(dense[0])
    rank = gauss_rank(dense)
    assert elim.rank_sparse(_rows(dense), nr, nc) == rank
    tag, payload = _solve(dense, rhs)
    augmented = gauss_rank([row + [b] for row, b in zip(dense, rhs)])
    assert (tag == "infeasible") == (augmented > rank)
    if tag == "feasible":
        for row, b in zip(dense, rhs):
            assert sum(a * v for a, v in zip(row, payload)) == b
    else:
        for c in range(nc):
            assert sum(payload[r] * dense[r][c] for r in range(nr)) == 0
        assert sum(payload[r] * rhs[r] for r in range(nr)) == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sparse_systems())
def test_integer_back_substitution_matches_fractions(system):
    # every start the package solves from: each free column at 1 (a
    # kernel vector) and, when feasible, the right-hand side column at -1
    dense, rhs = system
    nc = len(dense[0])
    rows = [
        elim.integral({c: v for c, v in enumerate(row + [b]) if v})[0]
        for row, b in zip(dense, rhs)
    ]
    pivots = elim._echelon(rows)
    starts = [{f: 1} for f in range(nc) if f not in pivots]
    if nc not in pivots:
        starts.append({nc: -1})
    for start in starts:
        want = fraction_back_substitute(
            pivots, {c: Fraction(v) for c, v in start.items()}
        )
        got = elim._back_substitute(pivots, dict(start))
        assert got == want
        assert all(type(v) is Fraction for v in got.values())


def test_solve_rational_rejects_a_forged_certificate(monkeypatch):
    # the check must raise, not assert: ``python -O`` strips asserts
    m = [[Fraction(5), Fraction(1)],
         [Fraction(1), Fraction(6)],
         [Fraction(2), Fraction(5)]]
    rhs = [Fraction(1), Fraction(1), Fraction(1)]
    real = elim._echelon

    def forged(rows, track=False, until=None):
        pivots = real(rows, track, until)
        if not track:  # the untracked first pass has no combination
            return pivots
        row, combo = pivots[2]
        return {**pivots, 2: (row, {i: 2 * v for i, v in combo.items()})}

    monkeypatch.setattr(elim, "_echelon", forged)
    with pytest.raises(ArithmeticError, match="certificate"):
        _solve(m, rhs)


def _tracked_calls(monkeypatch, rows, rhs, ncols):
    """``solve_rational``'s answer and how many ``_echelon`` calls tracked."""
    tracked = []
    real = elim._echelon

    def spy(rows, track=False, until=None):
        tracked.append(track)
        return real(rows, track, until)

    monkeypatch.setattr(elim, "_echelon", spy)
    return elim.solve_rational(rows, rhs, ncols), tracked.count(True)


def test_feasible_solve_tracks_nothing(monkeypatch):
    system, rows, rhs = _system("x^3+x^2*y+y^5", 12)
    (tag, _), tracked = _tracked_calls(
        monkeypatch, rows, rhs, system.unknown_count
    )
    assert tag == "feasible"
    assert tracked == 0


def test_infeasible_solve_tracks_once(monkeypatch):
    system, rows, rhs = _system("x^4+y^5+y^4*x", 8)
    (tag, lam), tracked = _tracked_calls(
        monkeypatch, rows, rhs, system.unknown_count
    )
    assert tag == "infeasible"
    assert tracked == 1
    assert lam == [0, 0, 0, 7, 23, -29] + [0] * (len(rows) - 6)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction oracles, where coefficients grow


_wide = st.builds(
    Fraction,
    st.integers(-10**20, 10**20),
    st.sampled_from([1, 2, 3, 7, 10**20 + 39]),
)


@st.composite
def _span_and_vector(draw):
    """Rows with mixed denominators, one of them dependent, and a vector."""
    nc = draw(st.integers(1, 7))
    vec = st.dictionaries(st.integers(0, nc - 1), _wide, max_size=nc)
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    a, b = draw(_wide), draw(_wide)
    first, last = rows[0], rows[-1]
    rows.append({
        c: a * first.get(c, 0) + b * last.get(c, 0)
        for c in set(first) | set(last)
    })
    order = draw(st.permutations(range(len(rows))))
    return nc, rows, [rows[p] for p in order], draw(vec)


def _dense_rows(rows, nc):
    return [[Fraction(row.get(c, 0)) for c in range(nc)] for row in rows]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_span_and_vector(), st.integers(0, 7))
def test_echelon_continues_from_its_pivots(case, cut):
    nc, rows, shuffled, vector = case
    pivots = elim.echelon(rows)
    span = _dense_rows(rows, nc)
    assert len(pivots) == gauss_rank(span)
    for c, (prow, combo) in pivots.items():
        assert combo is None
        assert min(prow) == c and prow[c] > 0
        assert all(type(w) is int for w in prow.values())
        assert gcd(*prow.values()) == 1
    # the pivots below any column count the rank of the projection onto
    # the columns below it, whatever the order of the rows
    below = gauss_rank([row[:cut] for row in span]) if cut else 0
    assert sum(c < cut for c in pivots) == below
    assert sum(c < cut for c in elim.echelon(shuffled)) == below
    # continuing from the pivots adds a vector's rank over the span, and
    # leaves the pivots already found as they were
    found = {c: dict(prow) for c, (prow, _) in pivots.items()}
    given = dict(vector)
    assert elim.echelon([vector], pivots) is pivots
    assert len(pivots) == gauss_rank(span + _dense_rows([vector], nc))
    assert all(pivots[c][0] == prow for c, prow in found.items())
    assert vector == given  # the rational input is left as it was


def _hilbert(n, m):
    return [[Fraction(1, i + j + 1) for j in range(m)] for i in range(n)]


def test_hilbert_matrix_rank_and_kernel():
    square = _hilbert(8, 8)
    assert elim.rank_sparse(_rows(square), 8, 8) == 8
    wide = _hilbert(8, 11)
    assert elim.rank_sparse(_rows(wide), 8, 11) == 8
    # the unique solution of H x = e_1 is the first column of H^-1
    tag, x = _solve(square, [Fraction(int(i == 0)) for i in range(8)])
    assert tag == "feasible"
    assert x[:6] == [64, -2016, 20160, -92400, 221760, -288288]
    assert all(v.denominator == 1 for v in x)
    for row, b in zip(square, [1] + [0] * 7):
        assert sum(a * v for a, v in zip(row, x)) == b


def test_rank_deficient_matrix_with_large_entries():
    rng = random.Random(52)
    big = 10**20
    left = [[rng.randrange(-big, big) for _ in range(3)] for _ in range(7)]
    right = [
        [Fraction(rng.randrange(-big, big), rng.randrange(1, 10**6))
         for _ in range(9)]
        for _ in range(3)
    ]
    m = [
        [sum(a * right[k][c] for k, a in enumerate(row)) for c in range(9)]
        for row in left
    ]
    assert gauss_rank(m) == 3
    assert elim.rank_sparse(_rows(m), 7, 9) == 3


def test_solve_stops_at_the_certificate_row(monkeypatch):
    system, rows, rhs = _system("x^4+y^5+y^4*x", 8)
    n = system.unknown_count
    calls = []
    real = elim._clear

    def spy(pivots, row, combo):
        calls.append(combo is not None)  # True in the tracked rerun
        return real(pivots, row, combo)

    monkeypatch.setattr(elim, "_clear", spy)
    tag, lam = elim.solve_rational(rows, rhs, n)
    assert tag == "infeasible"
    # both passes stop at the row that opens the right-hand-side pivot
    last = calls.count(False)
    assert calls == [False] * last + [True] * last
    assert last < len(rows)
    assert lam[last:] == [0] * (len(rows) - last)
    monkeypatch.setattr(elim, "_clear", real)
    assert elim.solve_rational(rows[:last], rhs[:last], n) == (
        "infeasible", lam[:last]
    )
    assert lam == [0, 0, 0, 7, 23, -29] + [0] * (len(rows) - 6)


class _Spy:
    """A row sequence that records which rows are read."""

    def __init__(self, rows):
        self.rows, self.read = rows, []

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, r):
        self.read.append(r)
        return self.rows[r]

    def __iter__(self):
        for r in range(len(self.rows)):
            yield self[r]


def _clearings(monkeypatch, rows, rhs, ncols):
    """``solve_rational``'s answer, the rows it reads, the rows reached."""
    spy, reached = _Spy(rows), []
    real_clear = elim._clear

    def clear(pivots, row, combo):
        if combo is None:  # the untracked pass meets each row once
            reached.append(row)
        return real_clear(pivots, row, combo)

    monkeypatch.setattr(elim, "_clear", clear)
    return elim.solve_rational(spy, rhs, ncols), spy.read, len(reached)


@pytest.mark.parametrize("f, degree, verdict", [
    ("x^4+y^5+y^4*x", 8, "infeasible"),
    ("x^3+x^2*y+y^5", 12, "feasible"),
])
def test_solve_clears_each_row_reached_once(monkeypatch, f, degree, verdict):
    # the elimination pass reads each row once, in order, and stops at
    # the certificate's row; the rerun and the check read no row again
    system, rows, rhs = _system(f, degree)
    (tag, _), read, reached = _clearings(
        monkeypatch, rows, rhs, system.unknown_count
    )
    assert tag == verdict
    assert read == list(range(reached))
    assert reached == (6 if verdict == "infeasible" else len(rows))

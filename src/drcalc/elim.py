"""Exact linear algebra over the rationals.

Every entry point here runs on one routine, ``_echelon``: left-looking
sparse elimination (Bouillaguet & Delaplace, SpaSM, 2016).  Rows are
sparse ``{col: Fraction}`` dicts taken one at a time; each is reduced
against the pivots found so far, always at its smallest column, until
it opens a new pivot (scaled to 1) or vanishes.  The complexes and
divergence systems built elsewhere in the package are very sparse, so
only the fill-in a row actually meets is ever computed.

No pivot choice is needed for determinism: in any left-to-right echelon
form, column ``c`` is a pivot exactly when it is not a combination of
the columns before it.  Ranks, the canonical kernel basis and the
solution with free unknowns at zero therefore do not depend on the
order of the rows.

``echelon`` and ``reduce`` expose the same routine for working modulo
a span: ``reduce`` clears every pivot column of a vector with the pivot
rows, which is how ``MatrixComplex.quotient`` writes the differential
of a quotient complex in its non-pivot basis.

Matrices come in sparse only, in one of two forms.  ``rank_sparse``
and ``nullspace`` take ``{(row, col): value}`` entries, the form the
complexes store their differentials in.  ``solve_rational`` takes a
sequence of rows, each a sequence of ``(col, value)`` pairs, the form
of ``DivergenceSystem.rows``: its certificate is one multiplier per
input row, so the rows keep their positions.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush


def _axpy(target, scale, source, heap=None):
    """``target += scale * source`` on sparse dicts; new keys go on ``heap``."""
    for j, w in source.items():
        v = target.get(j)
        if v is None:
            target[j] = scale * w
            if heap is not None:
                heappush(heap, j)
        else:
            v += scale * w
            if v:
                target[j] = v
            else:
                del target[j]


def _echelon(rows, track=False):
    """Row echelon form of sparse rational rows.

    Returns ``{pivot column: (row, combo)}``.  Each pivot row is 1 at its
    pivot column and has nonzero entries only at larger columns.  With
    ``track``, ``combo`` is ``{input row index: Fraction}`` such that
    the pivot row equals ``sum(combo[i] * rows[i])``; otherwise None.
    """
    pivots = {}
    for i, source in enumerate(rows):
        row = {c: v for c, v in source.items() if v}
        combo = {i: Fraction(1)} if track else None
        c = _clear(pivots, row, combo, stop=True)
        if c is not None:
            inv = 1 / Fraction(row[c])
            pivots[c] = (
                {j: w * inv for j, w in row.items()},
                {k: w * inv for k, w in combo.items()} if track else None,
            )
    return pivots


def _clear(pivots, row, combo, stop):
    """Subtract pivot rows from ``row`` in place, smallest column first.

    With ``stop``, return the first column of ``row`` that is not a
    pivot (the left-looking step: the rest of the row is left as it
    is); otherwise clear every pivot column and return None.  ``combo``
    (or None) follows the same row operations.
    """
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        v = row.get(c)
        if v is None:  # cancelled by an earlier step
            continue
        pivot = pivots.get(c)
        if pivot is None:
            if stop:
                return c
            continue
        prow, pcombo = pivot
        _axpy(row, -v, prow, heap)
        if combo is not None:
            _axpy(combo, -v, pcombo)
    return None


def echelon(rows):
    """Pivots of sparse rational rows, in the form ``reduce`` takes.

    ``rows`` are ``{col: value}`` dicts with comparable columns; the
    pivots are ``_echelon``'s, without combinations.
    """
    return _echelon(rows)


def reduce(pivots, vector):
    """``vector`` modulo the pivot rows: no pivot column left in it.

    Returns a new sparse dict without zero entries.  The result is the
    canonical representative of the coset of ``vector`` modulo the span
    of the pivot rows, supported on non-pivot columns only.
    """
    row = {c: v for c, v in vector.items() if v}
    _clear(pivots, row, None, stop=False)
    return row


def _back_substitute(pivots, x):
    """Complete sparse ``x`` at the pivot columns so every pivot row . x = 0.

    ``x`` holds the chosen values at non-pivot columns; pivot rows are
    solved from the largest pivot column down.
    """
    for c in sorted(pivots, reverse=True):
        s = sum(w * x[j] for j, w in pivots[c][0].items() if j != c and j in x)
        if s:
            x[c] = -s
    return x


def _rows(entries, nrows):
    """Kernel rows ``{col: value}`` of ``{(row, col): value}`` entries."""
    rows = [{} for _ in range(nrows)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return rows


def rank_sparse(entries, nrows, ncols) -> int:
    """Exact rank of a sparse rational matrix {(row, col): Fraction}."""
    return len(_echelon(_rows(entries, nrows)))


def nullspace(entries, nrows, ncols):
    """Basis of the right kernel of a sparse rational matrix.

    ``entries`` is ``{(row, col): Fraction}``.  Returns one sparse
    ``{col: Fraction}`` vector per free column in ascending order: the
    vector for free column ``f`` is 1 at ``f`` and 0 at every other
    free column (the basis read off the reduced row echelon form).
    """
    pivots = _echelon(_rows(entries, nrows))
    return [
        _back_substitute(pivots, {f: Fraction(1)})
        for f in range(ncols)
        if f not in pivots
    ]


def solve_rational(rows, rhs, ncols):
    """Solve A x = b exactly, reporting an infeasibility certificate.

    ``rows`` holds each row of A as ``(col, value)`` pairs, ``rhs`` is
    b and ``ncols`` the number of unknowns.  Returns ``("feasible", x)``
    with free unknowns set to zero, or ``("infeasible", lam)`` where
    ``lam`` are row multipliers with lam . A = 0 and lam . b = 1.  The
    certificate is checked against the original data before it is
    returned; a combination that fails the check raises
    ``ArithmeticError``.

    b is eliminated as column ``ncols`` of the augmented matrix: a pivot
    there is the row (0 | 1), and its combination of input rows is lam.
    """
    augmented = []
    for row, b in zip(rows, rhs):
        aug = dict(row)
        if b:
            aug[ncols] = Fraction(b)
        augmented.append(aug)
    pivots = _echelon(augmented, track=True)
    if ncols in pivots:
        combo = pivots[ncols][1]
        # verify the certificate against the original data
        residue = {}
        for i, w in combo.items():
            _axpy(residue, w, dict(rows[i]))
        lam_b = sum(w * rhs[i] for i, w in combo.items())
        if any(residue.values()) or lam_b != 1:
            raise ArithmeticError(
                "infeasibility certificate fails lam . A = 0, lam . b = 1"
            )
        lam = [combo.get(i, Fraction(0)) for i in range(len(rows))]
        return "infeasible", lam
    x = _back_substitute(pivots, {ncols: Fraction(-1)})
    return "feasible", [x.get(c, Fraction(0)) for c in range(ncols)]

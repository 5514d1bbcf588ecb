"""Exact linear algebra over the rationals, computed on integers.

Every entry point here runs on one routine, ``_echelon``: left-looking
sparse elimination (Bouillaguet & Delaplace, SpaSM, 2016).  Rows are
taken one at a time as sparse integer ``{col: int}`` dicts; each has its
content divided out on entry and is reduced against the pivots found so
far, always at its smallest column, until it opens a new pivot or
vanishes.  The complexes and divergence systems built elsewhere in the
package are very sparse, so only the fill-in a row actually meets is
ever computed.

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): a row
whose entry at a pivot column is ``v`` becomes ``a * row - b * pivot``
with ``a = lead / g``, ``b = v / g`` and ``g = gcd(v, lead)``.  Pivot
rows are ``{col: int}`` dicts with a positive lead, primitive (jointly
with their row combination, when one is tracked), so each is a nonzero
multiple of the pivot row that rational elimination with pivots scaled
to 1 would find.  ``Fraction``s appear only where a rational answer
leaves the module: the solution back substitution computes on
integers over one running denominator, and the infeasibility
certificate.

No pivot choice is needed for determinism: in any left-to-right echelon
form, column ``c`` is a pivot exactly when it is not a combination of
the columns before it.  Ranks and the solution with free unknowns at
zero therefore do not depend on the order of the rows.

The pivot count after any prefix of the rows is the rank of that
prefix, so ``rank_split`` reads two nested ranks off one elimination;
``homology`` reads a weight cut's rank off the light-row prefix, and
a mapping cone's rank after its source block's.  ``echelon``
continues from the pivots an earlier call left, so a caller can ask
whether a row lies in the span of the rows before: it does exactly
when it opens no pivot.  The pivots among the columns below any ``c``
count the rank of the projection onto those columns, since a row
pivots at its smallest column; ``MatrixComplex.subcomplex_cohomology``
reads a weight cut's ranks that way, with the light columns numbered
first.

Column order is the pivot order, since each row is reduced at its
smallest column.  Ranks do not depend on it, but fill-in does, so
where only a rank is read (``rank_split``, ``rank_sparse``,
``echelon`` in ``subcomplex_cohomology``) a caller may number columns
as it likes: ``MatrixComplex.cut_cohomology`` numbers them heaviest
first, and ``subcomplex_cohomology`` only keeps its light columns
before the heavy ones.  Where an echelon form is read the order is
fixed: ``solve_rational``, whose certificate is pinned.

Row combinations are tracked only where they are read: an
infeasibility certificate.  ``solve_rational`` eliminates untracked
first and reruns tracked only when the right-hand side opens a pivot.

``integral`` turns a rational row into integers over its least common
denominator, on a copy.  It is where rational input enters the kernel,
once per row in ``echelon`` (and so in ``rank_sparse``, which calls
it), so these leave the rows they are given as they were;
``rank_split`` takes integer rows and reduces them in place, so its
caller hands it rows it can give up.

Every matrix comes in as sparse rows.  ``rank_sparse`` takes
``{row: {col: value}}``, the form the complexes store their
differentials in (as integers over one denominator, which no rank
depends on, any more than on each row's own scale).
``solve_rational`` takes a sequence of integer rows of ``(col, int)``
pairs, since its certificate is one multiplier per row: a rational
system comes in times one common denominator, as the divergence
systems build their rows, and reads each row once, in order, on a
copy, so rows built on demand are built only as far as elimination
gets.  No package code calls ``rank_sparse``: it is kept only as the
function the benchmark's tracer wraps as its ``elim.rank`` span, and
goes when that span moves to ``rank_split``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


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


def integral(vector):
    """``(row, den)``: the nonzero entries of ``vector`` times ``den``.

    ``vector`` is a sparse ``{key: rational}`` dict; ``den`` is the least
    common denominator of its values, so ``row`` is ``{key: int}`` and
    no prime divides ``den`` and every entry of ``row``.
    """
    den = lcm(*(v.denominator for v in vector.values()))
    row = {
        c: v.numerator * (den // v.denominator)
        for c, v in vector.items()
        if v
    }
    return row, den


def _divide_content(row, combo, lead=None):
    """Divide ``row`` and ``combo`` (or None) in place by their content.

    With ``lead``, the divisor's sign makes ``row[lead]`` positive.
    Returns the divisor (0 when both are empty).
    """
    g = gcd(*row.values(), *(combo.values() if combo else ()))
    if lead is not None and row[lead] < 0:
        g = -g
    if g not in (0, 1):
        for j in row:
            row[j] //= g
        if combo:
            for k in combo:
                combo[k] //= g
    return g


def _echelon(rows, track=False, until=None, pivots=None):
    """Row echelon form of sparse integer rows.

    ``rows`` is an iterable of ``{col: int}`` dicts without zero
    entries; each is consumed (reduced in place) when it is reached.
    Returns ``{pivot column: (row, combo)}``.  Each pivot row is a
    ``{col: int}`` dict, positive at its pivot column and nonzero only
    there and at larger columns.  With ``track``, ``combo`` is
    ``{input row index: int}`` such that the pivot row equals
    ``sum(combo[i] * rows[i])``, and the two together are primitive;
    otherwise ``combo`` is None and the row is primitive.  Elimination
    stops once column ``until`` (if given) opens a pivot: pivots never
    change after they open, so the rows after it are never read.

    Each row opens one pivot or vanishes, so the pivot count after any
    prefix of ``rows`` is the rank of that prefix.  Given the
    ``pivots`` of an earlier untracked elimination, this one continues
    from them, extending them in place.
    """
    if pivots is None:
        pivots = {}
    for i, row in enumerate(rows):
        combo = {i: 1} if track else None
        _divide_content(row, combo)
        c = _clear(pivots, row, combo)
        if c is not None:
            _divide_content(row, combo, lead=c)
            pivots[c] = (row, combo)
            if c == until:
                break
    return pivots


def _clear(pivots, row, combo):
    """Subtract pivot rows from int ``row`` in place, smallest column first.

    Each step is ``row = a * row - b * pivot`` (see the module
    docstring); ``combo`` (or None) follows the same row operations.
    Returns the first column of ``row`` that is not a pivot (the
    left-looking step: the rest of the row is left as it is), or None
    when the row vanishes.
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
            return c
        prow, pcombo = pivot
        lead = prow[c]
        if lead != 1:
            g = gcd(v, lead)
            a = lead // g
            v //= g
            if a != 1:
                for j in row:
                    row[j] *= a
                if combo is not None:
                    for k in combo:
                        combo[k] *= a
        _axpy(row, -v, prow, heap)
        if combo is not None:
            _axpy(combo, -v, pcombo)
    return None


def echelon(rows, pivots=None):
    """Pivots of sparse rational rows, as ``_echelon`` returns them.

    ``rows`` are ``{col: value}`` dicts with comparable columns; the
    pivots are ``_echelon``'s primitive integer rows, without
    combinations.  Each row is cleared of its denominators on its own,
    on a copy.  Given the ``pivots`` of an earlier call, this one
    continues from them, extending them in place.
    """
    return _echelon((integral(row)[0] for row in rows), pivots=pivots)


def _back_substitute(pivots, x):
    """Complete sparse ``x`` at the pivot columns so every pivot row . x = 0.

    ``x`` holds the chosen integer values at non-pivot columns; pivot
    rows are solved from the largest pivot column down.  The solution
    is kept as integers over one running common denominator ``den``:
    a pivot row whose dot product ``s`` with the solution so far is not
    divisible by its ``lead`` raises ``den`` by ``lead / gcd(s, lead)``
    and rescales the integers once.  Returns ``{col: Fraction}``, with
    entries at the columns of ``x`` and at the pivot columns whose
    value is nonzero.
    """
    den = 1
    for c in sorted(pivots, reverse=True):
        prow = pivots[c][0]
        s = sum(w * x[j] for j, w in prow.items() if j in x)
        if s:
            lead = prow[c]
            g = gcd(s, lead)
            scale = lead // g
            if scale != 1:
                den *= scale
                for j in x:
                    x[j] *= scale
            x[c] = -s // g
    return {c: Fraction(v, den) for c, v in x.items()}


def rank_sparse(rows, nrows, ncols) -> int:
    """Exact rank of sparse rational rows ``{row: {col: value}}``.

    No package code calls it: it stays as the function the benchmark's
    tracer wraps as its ``elim.rank`` span, until that span moves.
    """
    return len(echelon(rows.values()))


def rank_split(head, tail):
    """``(rank of head, rank of head and tail)`` from one elimination.

    ``head`` and ``tail`` are iterables of sparse integer rows
    ``{col: int}`` without zero entries, consumed as ``_echelon``
    consumes them.  ``tail`` is eliminated against the pivots ``head``
    left, so no row is reduced twice.
    """
    pivots = _echelon(head)
    low = len(pivots)
    return low, len(_echelon(tail, pivots=pivots))


def solve_rational(rows, rhs, ncols):
    """Solve A x = b exactly, reporting an infeasibility certificate.

    ``rows`` is a sequence holding each row of A as ``(col, int)``
    pairs, ``rhs`` the ints of b and ``ncols`` the number of unknowns;
    rational systems come in times a common denominator, which changes
    neither the solutions nor, scaled back, the certificate.  Rows are
    read one at a time, in order.  Returns ``("feasible", x)`` with free
    unknowns set to zero, or ``("infeasible", lam)`` where ``lam`` are
    row multipliers with lam . A = 0 and lam . b = 1.  The certificate
    is checked against the rows as they were given before it is
    returned; a combination that fails the check raises
    ``ArithmeticError``.

    b is eliminated as column ``ncols`` of the augmented matrix: a pivot
    there is the row (0 | lead), and its combination of input rows,
    divided by the lead, is lam.  Elimination stops at that pivot, so
    the rows after the one that opens it are never read.

    The first pass tracks no combinations: a feasible system needs only
    the pivot rows.  When column ``ncols`` opens a pivot, elimination
    reruns with tracking to read lam off it.  The rerun stops at the
    same row, because which columns the rows before it pivot on does
    not depend on the rows after it.  Each row is read once, when
    elimination first reaches it, and kept as it was read: the rerun
    eliminates the kept rows again, and the check reads them.
    """
    kept = []  # (row, b) of each row read, as given

    def reached():
        for row, b in zip(rows, rhs):
            kept.append((row, b))
            yield _augment(row, b, ncols)

    pivots = _echelon(reached(), until=ncols)
    if ncols in pivots:
        row, combo = _echelon(
            (_augment(row, b, ncols) for row, b in kept),
            track=True,
            until=ncols,
        )[ncols]
        lam = {i: Fraction(w, row[ncols]) for i, w in combo.items()}
        # verify the certificate against the rows as given:
        # lam . (A | b) = (0 | 1)
        residue = {}
        for i, w in lam.items():
            _axpy(residue, w, _augment(*kept[i], ncols))
        if residue != {ncols: 1}:
            raise ArithmeticError(
                "infeasibility certificate fails lam . A = 0, lam . b = 1"
            )
        return "infeasible", _dense(lam, len(rows))
    x = _back_substitute(pivots, {ncols: -1})
    del x[ncols]  # the right-hand side's column
    return "feasible", _dense(x, ncols)


def _augment(row, b, ncols):
    """The row (a | b) of the augmented matrix, as a new ``{col: int}`` dict."""
    aug = dict(row)
    if b:
        aug[ncols] = b
    return aug


def _dense(vector, size):
    """Sparse ``{index: Fraction}`` as a list, one shared zero elsewhere."""
    out = [Fraction(0)] * size
    for i, v in vector.items():
        out[i] = v
    return out

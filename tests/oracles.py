"""Reference implementations the tests compare the package against.

Each one takes a different road to the same answer:

- ``gauss_rank`` and ``rref_nullspace``: dense Gaussian elimination
  on Fractions, and the kernel basis read off a reduced row echelon
  form; no shared code with ``drcalc.elim``.
- the disjoint-copies conerve: column p is the Koszul model of the
  (p+1)-fold tensor power on p+1 renamed copies of the variables, the
  cofaces are presentation morphisms, and the totalization is the
  alternating sum of their matrices over every column (no
  normalization); ``compose`` chains its cofaces.
  ``conerve_totalization`` in the package builds no conerve: it
  returns the closed-form cohomology of the normalized conerve, and
  the two agree in the degrees the column cut leaves alone.
- ``local_colength``: dim Q[x_1, ..., x_k]/(I + m^N) from monomials
  and a leading-term elimination of its own.
- ``divergence_equations``: the raw coefficient equations of the
  divergence equation, one ``Poly`` product and one ``Poly.partial``
  per unknown coefficient; ``divergence_system`` in the package builds
  its columns by adding packed monomial codes instead.
- ``float64_lower_bound``: the flat-form integral sampled in binary64,
  the contrast to ``drcalc.witness``'s log-domain enclosures; it
  underflows to zero past n = 2.
- ``fraction_matrices``, ``conerve_fraction_matrices`` and
  ``quotient_fraction_matrices``: the rational matrices of a truncated
  complex, of the whole normalized conerve (cofaces included) and of a
  quotient complex, entry by entry on ``Fraction``s.  Images go through
  ``Derivation.__call__`` as ``GradedElement``s, with the caps tested
  on exponent tuples, and quotients through a reduced row echelon form
  of the span; the package assembles integer matrices over one
  denominator on monomial codes, with the cuts decided before a term
  is formed, instead, and builds no quotient complex at all.
- ``reference_quotient`` and ``fraction_cohomology``: a quotient
  complex in the package's integer form, built through
  ``quotient_fraction_matrices``, and cohomology from the ranks of
  reduced row echelon forms on ``Fraction``s; the package builds no
  quotient and reads the stalk's cohomology off that of K instead.
- ``reference_subcomplex``: the cohomology of a spanned subcomplex and
  of its weight cut from ``gauss_rank`` of dense span vectors and of
  their images, the cut's formed by projecting first and applying the
  light block after; ``MatrixComplex.subcomplex_cohomology`` reads both
  off two sparse eliminations per degree, the cut's ranks from the
  pivots among light positions, and checks closure on the way.
- ``euler_residue``: the Euler contraction h = iota_E / (number of
  factors) built from ``GradedElement`` products, and id - pi - (dh +
  hd) on every column of a complex's stored matrices; the package
  never forms h, and ``classical_stalk_cohomology`` relies on the
  acyclicity it proves for the free ambient.
- ``truncation_basis``: a truncation's basis from every exponent tuple
  in the box the weight cap allows, each tested against the caps; the
  package walks only the monomials within them.
- ``conerve_basis``: the whole normalized conerve's basis as slot
  tuples, every column listed; the package lists no key of it.
- ``two_build_stalk``: the stalk cohomology with the weight-``W`` and
  the weight-``W + 1`` quotients each built on its own, from
  ``truncation_basis``, ``fraction_matrices`` and
  ``quotient_fraction_matrices``, with ranks from
  ``fraction_cohomology``; the package assembles the ``W + 1`` ambient
  once, builds no quotient, and reads both sides off the cohomology of
  K and of its cut instead.
- ``two_product_expand``: a derivation's image of a term list with each
  Leibniz term prefix·t·rest formed by two tuple products, (prefix·t)
  then ·rest, signed by the prefix's degree alone;
  ``Derivation.expand`` forms base·t once, as a sum of packed monomial
  codes, and moves t past rest with a sign read off odd-factor masks
  instead.
- ``fraction_back_substitute``: back substitution through echelon
  pivot rows with one ``Fraction`` dot product per row; the package
  solves the integer rows over one running common denominator instead.
- ``dict_product`` and ``lift_by_name``: a polynomial product as a
  double loop over term dicts, and a polynomial placed into a larger
  graded context by writing its exponents at the positions of its
  variables' names; the package's ``Poly`` multiplies through
  ``algebra.multiply_terms`` and lifts through ``cast_to`` instead.
- ``flat_entries``: the package stores a matrix as rows
  ``{row: {col: value}}``; the oracles build and compare
  ``{(row, col): value}`` entries, and tests flatten the package's
  rows through this one helper to compare them.
- ``poly_buchberger``, ``poly_normal_form`` and ``poly_div_exact``: the
  Groebner loop on ``Poly`` values, a new ``Poly`` at every reduction
  step, the lead of every polynomial found again wherever it is read,
  the S-polynomial formed as two products, and the basis
  interreduced by normal forms until nothing changes;
  ``drcalc.groebner`` divides term dicts in place by divisors whose
  leads it stores, and interreduces in one pass.
"""

import itertools
import math
import operator
from fractions import Fraction

from drcalc import elim
from drcalc.algebra import GradedElement, _mul_exps, term_list
from drcalc.dg import (
    DGMorphism,
    DGPresentation,
    OddGenerator,
    koszul_presentation,
)
from drcalc.derham import DeRhamStage, free_presentation
from drcalc.errors import StructuralError
from drcalc.homology import (
    MatrixComplex,
    flag_stability,
    morphism_matrices,
    weight_truncate,
)
from drcalc.poly import Poly
from drcalc.witness import DEFAULT_GRID


def gauss_rank(rows):
    """Independent dense oracle: plain fraction Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


def rref_nullspace(rows, ncols):
    """Independent oracle: kernel basis read off a reduced row echelon form."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        m[top] = [v / m[top][col] for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# the conerve on disjoint copies of the variables


def _copy_name(name, j):
    return f"{name}_{j}"


def conerve_presentation(variables, f, p) -> DGPresentation:
    """Koszul model of the (p+1)-fold tensor power: copies x_0 .. x_p."""
    evens = []
    for j in range(p + 1):
        evens.extend(_copy_name(v, j) for v in variables)
    odd = []
    images = {}
    md = f.min_degree()
    for j in range(p + 1):
        copy_ctx = tuple(_copy_name(v, j) for v in variables)
        fj = Poly(copy_ctx, f.terms)  # DGPresentation lifts it by name
        name = f"xi{j}"
        odd.append(OddGenerator(name, -1, md))
        images[name] = fj
    return DGPresentation(tuple(evens), odd, images)


def conerve_cofaces(variables, f, p):
    """The p+1 maps from level p-1 into level p (insert a fresh slot)."""
    prev = conerve_presentation(variables, f, p - 1)
    here = conerve_presentation(variables, f, p)
    out = []
    for i in range(p + 1):
        images = {}
        for k in range(p):
            new = k if k < i else k + 1
            for v in variables:
                images[_copy_name(v, k)] = GradedElement.generator(
                    here.context, _copy_name(v, new)
                )
            images[f"xi{k}"] = GradedElement.generator(here.context, f"xi{new}")
        out.append(DGMorphism(prev, here, images))
    return out


def compose(outer, inner) -> DGMorphism:
    """``outer`` after ``inner``: each generator's image under ``inner``,
    mapped by ``outer``."""
    if inner.target != outer.source:
        raise StructuralError("composition mismatch")
    images = {name: outer.apply(img) for name, img in inner.images.items()}
    return DGMorphism(inner.source, outer.target, images)


def coface_totalization(variables, f, p_max, weight) -> MatrixComplex:
    """Unnormalized total complex of columns 0..p_max.

    Degree n collects column p at internal degree n - p; the internal
    differential carries the sign (-1)^p and the cochain differential is
    the alternating sum of the coface matrices.
    """
    columns = [
        weight_truncate(conerve_presentation(variables, f, p), weight)
        for p in range(p_max + 1)
    ]
    coface_mats = {
        p: [
            morphism_matrices(phi, columns[p - 1], columns[p], weight)
            for phi in conerve_cofaces(variables, f, p)
        ]
        for p in range(1, p_max + 1)
    }
    degrees = sorted({p + q for p, cx in enumerate(columns) for q in cx.dims})
    dims, labels, offsets = {}, {}, {}
    for n in degrees:
        keys = []
        for p, cx in enumerate(columns):
            if n - p in cx.dims:
                offsets[(n, p)] = len(keys)
                keys.extend((p, exps) for exps in cx.labels[n - p])
        dims[n] = len(keys)
        labels[n] = tuple(keys)
    diffs, dens = {}, {}
    for n in degrees:
        entries = {}
        for p, cx in enumerate(columns):
            q = n - p
            if q not in cx.dims:
                continue
            col0 = offsets[(n, p)]
            if (n + 1, p) in offsets:
                row0 = offsets[(n + 1, p)]
                sign = -1 if p % 2 else 1
                den = cx.dens.get(q, 1)
                for (r, c), v in flat_entries(cx.diffs.get(q, {})).items():
                    entries[(row0 + r, col0 + c)] = Fraction(sign * v, den)
            if p < p_max and (n + 1, p + 1) in offsets:
                row0 = offsets[(n + 1, p + 1)]
                acc = {}
                for j, mats in enumerate(coface_mats[p + 1]):
                    sign = -1 if j % 2 else 1
                    den = mats.dens.get(q, 1)
                    for (r, c), v in flat_entries(mats.get(q, {})).items():
                        v = Fraction(sign * v, den)
                        acc[(r, c)] = acc.get((r, c), 0) + v
                for (r, c), v in acc.items():
                    if v:
                        entries[(row0 + r, col0 + c)] = v
        ints, dens[n] = elim.integral(entries)
        diffs[n] = {}
        for (r, c), v in ints.items():
            diffs[n].setdefault(r, {})[c] = v
    tot = MatrixComplex(dims, labels, diffs, dens)
    tot.check_composition()  # assembled here, so checked here
    return tot


def flat_entries(rows):
    """``{(row, col): value}`` of sparse rows ``{row: {col: value}}``."""
    return {(r, c): v for r, row in rows.items() for c, v in row.items()}


# ---------------------------------------------------------------------------
# local colengths of plane-curve ideals


def partial(poly, i):
    """d/dx_i of a polynomial given as {exponent tuple: coefficient}."""
    out = {}
    for exps, c in poly.items():
        if exps[i]:
            lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out[lower] = out.get(lower, 0) + c * exps[i]
    return out


def local_colength(gens, n):
    """dim Q[x_1, ..., x_k]/(I + m^n) for the ideal I spanned by ``gens``.

    ``gens`` are ``{exponent tuple: coefficient}`` dicts in k
    variables, the first one nonzero.  The quotient is spanned by the
    monomials of degree below ``n``; I contributes every generator
    times such a monomial, cut at degree ``n``.  Their span is reduced
    by leading monomials (the lex-largest), one pivot per leading
    monomial, and its dimension subtracted.
    """
    k = len(next(iter(gens[0])))
    monomials = [
        m for m in itertools.product(range(n), repeat=k) if sum(m) < n
    ]
    pivots = {}
    for g in gens:
        for m in monomials:
            row = {}
            for exps, c in g.items():
                e = tuple(map(operator.add, exps, m))
                if sum(e) < n and c:
                    row[e] = Fraction(c)
            while row:
                lead = max(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    scale = row[lead]
                    pivots[lead] = {e: c / scale for e, c in row.items()}
                    break
                factor = row[lead]
                for e, c in pivot.items():
                    v = row.get(e, 0) - factor * c
                    if v:
                        row[e] = v
                    else:
                        row.pop(e, None)
    return len(monomials) - len(pivots)


# ---------------------------------------------------------------------------
# the divergence equation, coefficient by coefficient


def divergence_equations(f, g, degree_bound):
    """Raw equations of f*g = sum_i d(f*h_i)/dx_i up to degree D.

    The unknowns are ``(i, e)``: the coefficient of x^e in h_i, for
    every e of degree at most D - min_degree(f) + 1.  Returns
    ``{monomial: ({unknown: coefficient}, rhs)}`` with one equation per
    monomial of degree at most D that occurs on either side; unknown
    ``(i, e)`` enters through the polynomial (f * x^e).partial(i).
    """
    variables = tuple(f.context)
    n = len(variables)
    h_bound = degree_bound - f.min_degree() + 1
    equations = {
        m: ({}, c) for m, c in (f * g).terms.items() if sum(m) <= degree_bound
    }
    for e in itertools.product(range(max(h_bound, -1) + 1), repeat=n):
        if sum(e) > h_bound:
            continue
        for i in range(n):
            column = (f * Poly(variables, {e: Fraction(1)})).partial(i)
            for m, c in column.terms.items():
                if sum(m) <= degree_bound:
                    equations.setdefault(m, ({}, Fraction(0)))[0][i, e] = c
    return equations


def float64_lower_bound(a: float, b: float, grid: int = DEFAULT_GRID) -> float:
    """The sampled binary64 contrast: an estimate, not a bound.

    Each cell takes the least of three samples of tau, discounted by
    their spread.  Past n = 2 the integrand is far below the smallest
    subnormal and every cell collapses to zero — the reason
    ``drcalc.witness`` works with logs.
    """

    def tau(x):
        if x == 0:
            return 0.0
        s = math.sin(1 / x)
        p = s * s * math.exp(-1 / (x * x))
        if p == 0.0:
            return 0.0
        try:
            return math.exp(-1 / p)
        except OverflowError:
            return 0.0

    total = 0.0
    width = (b - a) / grid
    for i in range(grid):
        left = a + i * width
        right = left + width
        samples = [tau(left), tau((left + right) / 2), tau(right)]
        if 0.0 in samples:
            continue
        lo = min(samples)
        hi = max(samples)
        total += lo * (lo / hi) * width
    return total


# ---------------------------------------------------------------------------
# rational matrices, entry by entry


def fraction_matrices(source, weight, labels):
    """``{n: {(row, col): Fraction}}`` of ``source`` truncated at ``weight``.

    ``labels`` are the bases of the truncation.  Each basis monomial is
    a ``GradedElement`` pushed through ``Derivation.__call__`` and the
    weight and Hodge filters.
    """
    ctx, diff, hodge = source.truncation_data()
    mats = {}
    for n, keys in labels.items():
        index = {key: i for i, key in enumerate(labels.get(n + 1, ()))}
        entries = {}
        for col, m in enumerate(keys):
            image = diff(GradedElement.monomial(ctx, m))
            for exps, c in image.weight_filter(weight).terms.items():
                if hodge is None or ctx.hodge_of(exps) < hodge.stop:
                    entries[(index[exps], col)] = c
        mats[n] = entries
    return mats


def truncation_basis(source, weight):
    """Basis keys by degree of ``source`` truncated at ``weight``.

    Every exponent tuple in the box the weight cap allows is tested on
    its own: weight at most ``weight`` and Hodge level in the source's
    range; the survivors are sorted by weight, ties in lex order, and
    grouped by degree.
    """
    ctx, _, hodge = source.truncation_data()
    ranges = [
        range(2 if g.odd else weight // g.weight + 1) for g in ctx.gens
    ]
    keys = sorted(
        (
            e for e in itertools.product(*ranges)
            if ctx.weight_of(e) <= weight
            and (hodge is None or ctx.hodge_of(e) in hodge)
        ),
        key=lambda e: (ctx.weight_of(e), e),
    )
    labels = {}
    for e in keys:
        labels.setdefault(ctx.degree_of(e), []).append(e)
    return labels


def conerve_basis(variables, f, p_max, weight):
    """The normalized conerve's basis keys, ``{degree: ((p, slots), ...)}``.

    Built eagerly on tuples: column p lists the (p+1)-tuples of the
    keys of K (the Koszul complex truncated at ``weight``, its keys
    from ``truncation_basis``) whose slots 1..p are not the unit and
    whose weights sum to at most ``weight``, in lex order of K's sorted
    keys; each degree lists column 0 first.  The package's retract keeps
    the unit and the keys of column ``p_max`` whose slot 0 is not the
    unit, in this order.
    """
    pres = koszul_presentation(variables, [f], 1)
    ctx = pres.context
    keys = sorted(k for ks in truncation_basis(pres, weight).values() for k in ks)
    unit = (0,) * len(ctx)
    columns = [[(k,) for k in keys]]
    for _ in range(p_max):
        columns.append([
            slots + (k,)
            for slots in columns[-1]
            for k in keys
            if k != unit
            and sum(map(ctx.weight_of, slots + (k,))) <= weight
        ])
    labels = {}
    for p, column in enumerate(columns):
        for slots in column:
            n = p + sum(map(ctx.degree_of, slots))
            labels.setdefault(n, []).append((p, slots))
    return {n: tuple(keys) for n, keys in labels.items()}


def conerve_fraction_matrices(variables, f, p_max, weight, labels):
    """Rational matrices of the normalized conerve on the bases ``labels``.

    A basis key ``(p, (k0, ..., kp))`` goes to the Leibniz sum of the
    Koszul differential over its slots, signed by (-1)^p and by the
    degrees of the earlier slots, and cut at ``weight``; plus the
    coface key ``(p + 1, (1, k0, ..., kp))`` when ``p < p_max`` and k0
    is not the unit.  The Koszul images come from ``fraction_matrices``.
    ``labels`` may be the bases of a subcomplex, such as the package's
    retract.
    """
    pres = koszul_presentation(variables, [f], 1)
    ctx = pres.context
    koszul = weight_truncate(pres, weight)
    d = {}
    for q, entries in fraction_matrices(pres, weight, koszul.labels).items():
        for (r, c), v in entries.items():
            d.setdefault(koszul.labels[q][c], {})[koszul.labels[q + 1][r]] = v
    unit = (0,) * len(ctx)
    mats = {}
    for n, keys in labels.items():
        index = {key: i for i, key in enumerate(labels.get(n + 1, ()))}
        entries = {}
        for col, (p, slots) in enumerate(keys):
            sign = -1 if p % 2 else 1
            for i, k in enumerate(slots):
                for image, v in d.get(k, {}).items():
                    new = slots[:i] + (image,) + slots[i + 1:]
                    if sum(ctx.weight_of(key) for key in new) <= weight:
                        entries[(index[(p, new)], col)] = sign * v
                if ctx.degree_of(k) % 2:
                    sign = -sign
            if p < p_max and slots[0] != unit:
                entries[(index[(p + 1, (unit,) + slots)], col)] = Fraction(1)
        mats[n] = entries
    return mats


def _rref(vectors):
    """``{pivot: row}`` of the span, each row 1 at its pivot, 0 at others."""
    pivots = {}
    for vec in vectors:
        row = {c: Fraction(v) for c, v in vec.items() if v}
        for p, prow in pivots.items():
            _eliminate(row, p, prow)
        if not row:
            continue
        lead = min(row)
        scale = row[lead]
        row = {c: v / scale for c, v in row.items()}
        for prow in pivots.values():
            _eliminate(prow, lead, row)
        pivots[lead] = row
    return pivots


def _eliminate(row, p, prow):
    """Subtract ``row[p] * prow`` from ``row`` in place."""
    factor = row.get(p)
    if not factor:
        return
    for c, v in prow.items():
        w = row.get(c, 0) - factor * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)


def quotient_fraction_matrices(mats, labels, span):
    """``(labels, mats)`` of the quotient by ``span``, on Fractions.

    ``mats`` are rational matrices on the bases ``labels``, ``span[n]``
    lists ``{basis key: value}`` vectors.  The quotient keeps the keys
    that are not pivots of the span's reduced row echelon form (basis
    positions in order); a kept column's image is reduced by the
    echelon rows one degree up, which leaves the one representative
    supported off the pivots.  The image of each echelon row must
    reduce to zero too, i.e. d must map the span into the span, or
    this raises.
    """
    pivots = {}
    for n, vectors in span.items():
        index = {key: i for i, key in enumerate(labels.get(n, ()))}
        pivots[n] = _rref(
            [{index[key]: v for key, v in vec.items()} for vec in vectors]
        )
    kept = {
        n: [i for i in range(len(keys)) if i not in pivots.get(n, {})]
        for n, keys in labels.items()
    }
    out_labels = {
        n: [labels[n][i] for i in ks] for n, ks in kept.items() if ks
    }
    out = {}
    for n, entries in mats.items():
        columns = {}
        for (r, c), v in entries.items():
            columns.setdefault(c, {})[r] = v
        up = pivots.get(n + 1, {}).items()
        for p, prow in pivots.get(n, {}).items():
            image = {}
            for c, w in prow.items():
                for r, v in columns.get(c, {}).items():
                    image[r] = image.get(r, 0) + w * v
            image = {r: v for r, v in image.items() if v}
            for q, qrow in up:
                _eliminate(image, q, qrow)
            if image:
                raise StructuralError(
                    f"not a quotient: the span's pivot {p} of degree {n} "
                    "leaves the span under d"
                )
        if n not in out_labels:
            continue
        rows = {old: new for new, old in enumerate(kept.get(n + 1, ()))}
        quotient = {}
        for new_col, c in enumerate(kept[n]):
            image = dict(columns.get(c, {}))
            for p, prow in up:
                _eliminate(image, p, prow)
            for r, v in image.items():
                quotient[(rows[r], new_col)] = v
        out[n] = quotient
    return out_labels, out


def reference_quotient(cx, span):
    """The quotient complex of ``cx`` by the subcomplex ``span`` spans.

    ``quotient_fraction_matrices`` on the rational matrices of ``cx``,
    written back in the package's integer form: each matrix over the
    least common denominator of its entries.  A kept key is light when
    it was light in ``cx``.  The package reads the cohomology of such
    the stalk's quotient off the cohomology of K instead
    (``MatrixComplex.subcomplex_cohomology`` and the long exact
    sequence) and builds no quotient.
    """
    labels, mats = quotient_fraction_matrices(
        stored_fractions(cx), cx.labels, span
    )
    diffs, dens = {}, {}
    for n, entries in mats.items():
        dens[n] = math.lcm(*(v.denominator for v in entries.values()))
        diffs[n] = {}
        for (r, c), v in entries.items():
            diffs[n].setdefault(r, {})[c] = int(v * dens[n])
    labels = {n: tuple(keys) for n, keys in labels.items()}
    light = {}
    for n, keys in labels.items():
        light_keys = set(cx.labels[n][:cx.light[n]])
        light[n] = sum(key in light_keys for key in keys)
    dims = {n: len(keys) for n, keys in labels.items()}
    return MatrixComplex(dims, labels, diffs, dens, light)


def stored_fractions(cx):
    """The stored matrices of ``cx`` as ``{n: {(row, col): Fraction}}``."""
    return {
        n: {
            key: Fraction(v, cx.dens[n])
            for key, v in flat_entries(rows).items()
        }
        for n, rows in cx.diffs.items()
    }


def reference_subcomplex(cx, span, mats=None):
    """``(here, above)``: H of the subcomplex ``span`` spans, and of its cut.

    ``span[n]`` lists ``{basis key: value}`` vectors of degree ``n`` of
    ``cx``; ``mats`` are rational matrices on its bases in the form
    ``fraction_matrices`` gives (the stored ones when None).  ``above``
    is the cohomology of their span S: dim S^n is the ``gauss_rank`` of
    the span vectors as dense rows, the rank of d on S^n that of their
    images under ``mats[n]``.  ``here`` is that of S's cut, the same
    with each vector first projected onto the light keys (the first
    ``cx.light[n]``) and its image taken by the light block of
    ``mats[n]`` alone.  Every degree of ``cx`` is reported.  Closure
    under d is not checked.
    """
    if mats is None:
        mats = stored_fractions(cx)
    sides = []
    for keep in (cx.light, cx.dims):
        dims, ranks = {}, {}
        for n in sorted(cx.dims):
            index = {key: i for i, key in enumerate(cx.labels[n])}
            top, up = keep[n], keep.get(n + 1, 0)
            columns = {}
            for (r, c), v in mats.get(n, {}).items():
                if r < up:
                    columns.setdefault(c, {})[r] = v
            vectors, images = [], []
            for vec in span.get(n, ()):
                dense = [Fraction(0)] * top
                image = [Fraction(0)] * up
                for key, v in vec.items():
                    c = index[key]
                    if c < top:
                        dense[c] += v
                        for r, w in columns.get(c, {}).items():
                            image[r] += v * w
                vectors.append(dense)
                images.append(image)
            dims[n], ranks[n] = gauss_rank(vectors), gauss_rank(images)
        sides.append({
            n: dims[n] - ranks[n] - ranks.get(n - 1, 0) for n in dims
        })
    return tuple(sides)


def fraction_cohomology(labels, mats):
    """``{degree: dim H}`` of rational matrices on the bases ``labels``.

    Each rank is the number of pivots of the matrix's reduced row
    echelon form on Fractions; degrees without a basis are left out.
    """
    ranks = {}
    for n, entries in mats.items():
        rows = {}
        for (r, c), v in entries.items():
            rows.setdefault(r, {})[c] = v
        ranks[n] = len(_rref(rows.values()))
    return {
        n: len(keys) - ranks.get(n, 0) - ranks.get(n - 1, 0)
        for n, keys in sorted(labels.items())
    }


# ---------------------------------------------------------------------------
# the stalk from two quotients


def stalk_span(stage, labels, gens, weight):
    """``{k: vectors}`` spanning K^k = I*Omega^k + dI ^ Omega^(k-1).

    Each generator of ``gens``, lifted into the context of ``stage``,
    and its d times every basis key of ``labels``, cut at ``weight``.
    """
    ctx, d, _ = stage.truncation_data()
    span = {k: [] for k in labels}
    for g in gens:
        lifted = lift_by_name(ctx, g)
        for factor, shift in ((lifted, 0), (d(lifted), 1)):
            for k, keys in labels.items():
                if k + shift in span:
                    span[k + shift] += [
                        (factor * GradedElement.monomial(ctx, m))
                        .weight_filter(weight).terms
                        for m in keys
                    ]
    return span


def two_build_stalk(gens, weight):
    """Flagged stalk cohomology of the germ of ``gens``, two quotients.

    The free de Rham stage on the variables is truncated at ``weight``
    and at ``weight + 1`` on its own, each time from the basis of
    ``truncation_basis`` and the matrices of ``fraction_matrices``; each
    side is the quotient by its own K (``quotient_fraction_matrices``),
    and its cohomology is read off ``fraction_cohomology``.  So the
    oracle shares no assembly, elimination or quotient code with
    ``classical_stalk_cohomology``, which builds the ``weight + 1``
    ambient once and reads both sides off ranks with no quotient
    built; only the presentation, its differential and
    ``flag_stability`` are shared.
    """
    variables = tuple(gens[0].context)
    n = len(variables)
    stage = DeRhamStage(free_presentation(variables), n, weight + 1)
    sides = []
    for w in (weight, weight + 1):
        labels = truncation_basis(stage, w)
        span = stalk_span(stage, labels, gens, w)
        h = fraction_cohomology(*quotient_fraction_matrices(
            fraction_matrices(stage, w, labels), labels, span
        ))
        sides.append({k: h.get(k, 0) for k in range(n + 1)})
    return flag_stability(*sides)


# ---------------------------------------------------------------------------
# the Euler contraction


def euler_field(ctx, names):
    """iota_E on a stage context: ``"d" + name`` -> ``name`` for each name.

    ``{generator name: GradedElement}``, the images of a derivation of
    degree -1 that is zero on every other generator of ``ctx``.
    """
    return {"d" + name: GradedElement.generator(ctx, name) for name in names}


def contract(ctx, iota, exps):
    """The degree -1 derivation ``iota`` on the monomial ``exps``.

    Graded Leibniz: around each generator g that ``iota`` moves, the
    monomial is prefix * g^e * rest, and g^e goes to e * iota(g) *
    g^(e-1) (g is even when e > 1), signed by (-1)^|prefix|; each term
    is formed by ``GradedElement`` products.  Returns a
    ``GradedElement``.
    """
    out = GradedElement.zero(ctx)
    for i, e in enumerate(exps):
        image = iota.get(ctx.gens[i].name)
        if not e or image is None:
            continue
        prefix = exps[:i] + (0,) * (len(exps) - i)
        rest = (0,) * i + (e - 1,) + exps[i + 1:]
        sign = -e if ctx.degree_of(prefix) % 2 else e
        out = out + (
            GradedElement.monomial(ctx, prefix, sign)
            * image
            * GradedElement.monomial(ctx, rest)
        )
    return out


def euler_residue(cx, ctx, iota):
    """``{(degree, key): vector}`` of id - pi - (D h + h D), where nonzero.

    D is the stored differential of ``cx``, whose keys are exponent
    tuples over ``ctx``; h is ``contract(ctx, iota, key)`` divided by
    the number of factors of the key (the sum of its exponents), and 0
    on the unit; pi keeps the unit and drops every other key.  Each
    vector is ``{key: Fraction}`` on the column's own degree.

    With ``iota = euler_field(ctx, variables)`` on a free de Rham stage,
    Cartan's formula d iota_E + iota_E d = L_E, which multiplies a
    monomial by its number of factors, and d keeping that number give
    dh + hd = id - pi: the residue is empty, and h contracts every cut
    of the stage onto Q in degree 0.  On a stage with a Koszul part
    delta (D = d + delta, with iota also sending dt to t) the residue
    is what delta leaves, to be bounded rather than zero.
    """
    images = {n: {key: {} for key in keys} for n, keys in cx.labels.items()}
    for n, entries in stored_fractions(cx).items():
        for (r, c), v in entries.items():
            images[n][cx.labels[n][c]][cx.labels[n + 1][r]] = v

    def push(n, vec):
        """D^n of ``{key: value}``; a key outside the basis raises."""
        out = {}
        for key, v in vec.items():
            for t, w in images[n][key].items():
                out[t] = out.get(t, 0) + v * w
        return out

    def h(vec):
        out = {}
        for key, v in vec.items():
            if sum(key):
                for t, w in contract(ctx, iota, key).terms.items():
                    out[t] = out.get(t, 0) + v * w / sum(key)
        return out

    residue = {}
    for n, keys in cx.labels.items():
        for key in keys:
            column = {key: Fraction(1)}
            acc = dict(column) if sum(key) else {}
            for image in (push(n - 1, h(column)), h(push(n, column))):
                for t, v in image.items():
                    acc[t] = acc.get(t, 0) - v
            acc = {t: v for t, v in acc.items() if v}
            if acc:
                residue[n, key] = acc
    return residue


# ---------------------------------------------------------------------------
# polynomial products and lifts on term dicts


def dict_product(left, right):
    """Product of two polynomials given as {exponent tuple: coefficient}."""
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def lift_by_name(context, poly):
    """``poly`` as an element of ``context``, variables matched by name."""
    positions = [context.index(name) for name in poly.context]
    terms = {}
    for pex, coeff in poly.terms.items():
        exps = [0] * len(context)
        for pos, e in zip(positions, pex):
            exps[pos] = e
        terms[tuple(exps)] = coeff
    return GradedElement(context, terms)


# ---------------------------------------------------------------------------
# the Leibniz rule with two products per term


def two_product_expand(derivation, terms):
    """Image of ``(exps, coeff)`` terms as an accumulator ``{exps: coeff}``.

    Each occurrence of generator ``i`` in a monomial contributes
    prefix·D(x_i)·rest, signed by the parity of the prefix's degree:
    every image term ``t`` is multiplied onto the prefix, and the result
    onto the rest, so the Koszul sign of moving ``t`` into place is left
    to the two products.  Zeros are left in, as ``expand`` leaves them.
    """
    ctx = derivation.context
    gens = ctx.gens
    zero = (0,) * len(ctx)
    images = {i: term_list(elem) for i, elem in derivation.images.items()}
    acc = {}
    for exps, coeff in terms:
        prefix_degree = 0
        for i, e in enumerate(exps):
            if not e:
                continue
            image = images.get(i)
            if image is not None:
                scale = coeff if gens[i].odd else coeff * e
                if prefix_degree % 2:
                    scale = -scale
                prefix = exps[:i] + zero[i:]
                rest = zero[:i] + (e - 1,) + exps[i + 1:]
                for t, c in image:
                    hit = _mul_exps(ctx, prefix, t)
                    if hit is None:
                        continue
                    first, head = hit
                    hit = _mul_exps(ctx, head, rest)
                    if hit is None:
                        continue
                    second, m = hit
                    acc[m] = acc.get(m, 0) + first * second * scale * c
            prefix_degree += e * gens[i].degree
    return acc


def fraction_back_substitute(pivots, x):
    """Complete sparse ``{col: Fraction}`` ``x`` at the pivot columns.

    ``pivots`` is ``elim._echelon``'s ``{column: (row, combo)}``.  Pivot
    rows are solved from the largest pivot column down, each with a
    ``Fraction`` dot product divided by its lead, so every pivot
    row . x = 0 afterwards.
    """
    for c in sorted(pivots, reverse=True):
        prow = pivots[c][0]
        s = sum(w * x[j] for j, w in prow.items() if j != c and j in x)
        if s:
            x[c] = -s / prow[c]
    return x


# ---------------------------------------------------------------------------
# Groebner bases on Poly values


def _poly_lead(p, key):
    return max(p.terms, key=key)


def _poly_monic(p, key):
    return p * (Fraction(1) / p.terms[_poly_lead(p, key)])


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def poly_normal_form(g, basis, key):
    """Full remainder of ``g`` on division by the nonzero ``basis``."""
    basis = [b for b in basis if b]
    if not basis:
        return g
    leads = [(_poly_lead(b, key), b) for b in basis]
    remainder = Poly.zero(g.context)
    work = g
    while work.terms:
        e = max(work.terms, key=key)
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


def poly_div_exact(g, f, key):
    """Quotient g/f when f divides g exactly; ValueError otherwise."""
    quotient = Poly.zero(g.context)
    work = g
    le = _poly_lead(f, key)
    lc = f.terms[le]
    while work.terms:
        e = max(work.terms, key=key)
        if not _divides(le, e):
            raise ValueError("inexact division")
        shift = tuple(x - y for x, y in zip(e, le))
        mono = Poly.monomial(g.context, shift, work.terms[e] / lc)
        quotient = quotient + mono
        work = work - mono * f
    return quotient


def _poly_spoly(f, g, key):
    ef, eg = _poly_lead(f, key), _poly_lead(g, key)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = Poly.monomial(f.context, tuple(a - b for a, b in zip(lcm, ef)),
                       Fraction(1) / f.terms[ef])
    mg = Poly.monomial(g.context, tuple(a - b for a, b in zip(lcm, eg)),
                       Fraction(1) / g.terms[eg])
    return mf * f - mg * g


def _poly_interreduce(basis, key):
    basis = [b for b in basis if b]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            r = poly_normal_form(basis[i], others, key)
            if r != basis[i]:
                changed = True
            if r:
                basis[i] = r
            else:
                basis.pop(i)
                break
    basis = [_poly_monic(b, key) for b in basis]
    basis.sort(key=lambda b: key(_poly_lead(b, key)))
    return basis


def poly_buchberger(gens, key):
    """Reduced Groebner basis of the nonzero ``gens``, as a list of Polys.

    Pairs are chosen by smallest lcm degree, then the order, then
    index; the product criterion skips pairs with disjoint leads.
    """
    basis = [_poly_monic(g, key) for g in gens if g]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def pair_rank(p):
        i, j = p
        ei, ej = _poly_lead(basis[i], key), _poly_lead(basis[j], key)
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        return (sum(lcm), key(lcm), i, j)

    while pairs:
        i, j = min(pairs, key=pair_rank)
        pairs.discard((i, j))
        ei, ej = _poly_lead(basis[i], key), _poly_lead(basis[j], key)
        lcm = tuple(max(a, b) for a, b in zip(ei, ej))
        if lcm == tuple(a + b for a, b in zip(ei, ej)):
            continue
        r = poly_normal_form(_poly_spoly(basis[i], basis[j], key), basis, key)
        if r:
            basis.append(_poly_monic(r, key))
            k = len(basis) - 1
            pairs.update((k, m) for m in range(k))
    return _poly_interreduce(basis, key)

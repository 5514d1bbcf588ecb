"""Verdict checks that do not trust the code under test.

Each checker gets a job, its exit code and its captured stdout/stderr
and returns ``None`` when the output is right, or a one-line reason.
Certificates and witnesses are re-verified here with this module's own
dict-of-exponents arithmetic over ``Fraction``; verdict lines are held
to what the theory says they must be; cohomology tables are compared
with a golden file recorded on seed 0.

Golden comparison.  On seed 0 the whole stdout must match byte for
byte.  On other seeds only the lines after the command echo are
compared, and only for jobs whose results cannot depend on the drawn
coefficients (see ``bench_jobs``: every input is a rescaling of the
seed-0 input).  Reiffen certificates and witness digits are never
pinned: a different exact kernel may return another valid certificate,
and an enclosure-based witness changes the digits by design.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Jobs whose result lines are the same for every coefficient draw.
RESCALING_INVARIANT = {
    "table", "cartier", "a1", "fibre", "amitsur", "scan",
    "ideal-colon", "ideal-annchain",
}
# Jobs recorded in the golden file.
GOLDEN_KINDS = RESCALING_INVARIANT | {"tower", "ideal-gb"}


# ---------------------------------------------------------------------------
# polynomial arithmetic on {exps: Fraction}


def p_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def p_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def p_pow(a, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = p_mul(out, a)
    return out


_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_poly_text(text, variables):
    """Parse drcalc's printed polynomial form, e.g. ``-2/15*x^2 + y^3``."""
    text = text.strip()
    if text == "0":
        return {}
    if text.startswith("-"):
        text = "- " + text[1:]
    else:
        text = "+ " + text
    tokens = text.split(" ")
    if len(tokens) % 2:
        raise ValueError(f"unparsable polynomial {text!r}")
    out = {}
    for sign, term in zip(tokens[::2], tokens[1::2]):
        if sign not in "+-":
            raise ValueError(f"unparsable polynomial {text!r}")
        coeff = Fraction(1)
        exps = [0] * len(variables)
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if not m or m.group(1) not in variables:
                raise ValueError(f"unknown factor {factor!r}")
            exps[variables.index(m.group(1))] += int(m.group(2) or 1)
        out = p_add(out, {tuple(exps): coeff}, -1 if sign == "-" else 1)
    return out


# ---------------------------------------------------------------------------
# divergence-system certificates and witnesses


def _raw_column(f_terms, i, exps):
    """d/dx_i (f * x^exps): the raw coefficient column of one unknown."""
    return p_partial(p_mul(f_terms, {tuple(exps): Fraction(1)}), i)


def verify_certificate(f, degree, certificate):
    """Refute f*g = sum d(f*h_i)/dx_i (g = 1) up to ``degree``.

    The rows come from ``drcalc.reiffen.divergence_system``, which
    defines the row order the certificate refers to.  Every reported
    row is checked here against the raw coefficient equations: its
    entries and right-hand side must equal the raw ones, and every raw
    unknown it leaves out must be pinned to zero by a reported
    homogeneous one-entry row.  Reported rows are then consequences of
    the raw system, and lam.A = 0 with lam.b = 1 refutes it.
    """
    from drcalc.poly import Poly as DPoly
    from drcalc.reiffen import divergence_system

    system = divergence_system(
        DPoly(f.variables, f.terms), DPoly.const(f.variables, 1), degree
    )
    rows, rhs = system.rows, system.rhs
    if len(certificate) != len(rows):
        return f"certificate has {len(certificate)} entries for {len(rows)} rows"
    raw = {}  # monomial -> {unknown: coefficient}
    for j, (_, i, exps) in enumerate(system.unknown_labels):
        for m, c in _raw_column(f.terms, i, exps).items():
            raw.setdefault(m, {})[j] = c
    # A one-entry homogeneous row pins its unknown to zero once every
    # raw unknown it leaves out is pinned already.
    pins = [
        (system.row_monomials[r], row[0][0])
        for r, (row, b) in enumerate(zip(rows, rhs))
        if len(row) == 1 and not b
    ]
    pinned = set()
    grew = True
    while grew:
        grew = False
        for m, j in pins:
            if j not in pinned and set(raw.get(m, {})) - {j} <= pinned:
                pinned.add(j)
                grew = True
    for r, m in enumerate(system.row_monomials):
        if sum(m) > degree:
            return f"row {r} monomial {m} above the degree bound"
        kept = dict(rows[r])
        full = raw.get(m, {})
        for j, c in kept.items():
            if full.get(j, 0) != c:
                return f"row {r} unknown {j}: {c} != raw {full.get(j, 0)}"
        if set(full) - set(kept) - pinned:
            return f"row {r} drops an unknown that nothing pins"
        if rhs[r] != f.terms.get(m, 0):
            return f"row {r} right-hand side {rhs[r]} != {f.terms.get(m, 0)}"
    combo = {}
    for lam, row in zip(certificate, rows):
        if lam:
            for j, c in row:
                combo[j] = combo.get(j, 0) + lam * c
    if any(combo.values()):
        return "certificate: lam.A != 0"
    if sum(lam * b for lam, b in zip(certificate, rhs)) != 1:
        return "certificate: lam.b != 1"
    return None


def verify_witness(f, degree, witness):
    """f*1 - sum d(f*h_i)/dx_i must have no term of degree <= D."""
    residual = dict(f.terms)
    for i, h in enumerate(witness):
        residual = p_add(residual, p_partial(p_mul(f.terms, h), i), -1)
    low = [e for e in residual if sum(e) <= degree]
    if low:
        return f"witness leaves residual term {min(low)}"
    return None


# ---------------------------------------------------------------------------
# per-kind checkers


def _result(out):
    return out.splitlines()[2:]


class Checker:
    """Checks one job's output; results are memoized on identical output."""

    def __init__(self, seed, golden):
        self.seed = seed
        self.golden = golden
        self._seen = {}

    def check(self, job, code, out, err):
        key = (job.ident, code, out, err)
        if key not in self._seen:
            try:
                self._seen[key] = self._check(job, code, out, err)
            except Exception as exc:  # malformed output fails the job
                self._seen[key] = f"unreadable output: {exc!r}"
        return self._seen[key]

    def _check(self, job, code, out, err):
        if code != job.expect_exit:
            return f"exit {code}, expected {job.expect_exit}: {err.strip()[:200]}"
        lines = out.splitlines()
        if job.kind == "cap":
            if out or "exceeds the cap" not in err:
                return "resource-limit job printed a result or no cap message"
            return None
        words = job.argv[:1] if job.argv[1].startswith("-") else job.argv[:2]
        echo = "command: " + " ".join(words)
        if not lines or lines[0] != echo:
            return f"missing command echo {echo!r}"
        if job.kind in GOLDEN_KINDS:
            want = self.golden["outputs"].get(job.ident)
            if want is None:
                return "no golden output recorded for this job"
            if self.seed == 0 and out != want:
                return "stdout differs from the golden file"
            if job.kind in RESCALING_INVARIANT and _result(out) != _result(want):
                return "result lines differ from the golden file"
        return getattr(self, "_" + job.kind.replace("-", "_"))(job, _result(out))

    # -- complexes

    def _table(self, job, lines):
        row = re.compile(r"H\^\{-?\d+\} dim=\d+ stable=(true|false)")
        if not lines or not all(row.fullmatch(line) for line in lines):
            return "malformed cohomology table"
        return None

    def _cartier(self, job, lines):
        want = f"cartier k={job.info['k']} verdict=equal"
        return None if lines == [want] else f"expected {want!r}, got {lines}"

    def _a1(self, job, lines):
        return None if lines and lines[0] == "a1 ok=true" else "a1 check not ok"

    def _fibre(self, job, lines):
        if not lines or not lines[-1].endswith("additivity=true"):
            return "fibre report lacks additivity=true"
        return None

    def _tower(self, job, lines):
        if len(lines) != 2 or not lines[0].startswith("t -> "):
            return "tower image line missing"
        if lines[1] != "chain_map ok=true":
            return "tower map is not a chain map"
        f = job.info["f"]
        variables = f.variables + ("t",)
        want = p_pow(
            {e + (0,): c for e, c in f.terms.items()}, job.info["power"],
            len(variables),
        )
        want = p_mul(want, {(0,) * len(f.variables) + (1,): Fraction(1)})
        got = parse_poly_text(lines[0][len("t -> "):], variables)
        return None if got == want else "tower image is not f^power * t"

    def _amitsur(self, job, lines):
        # Equal wherever the de Rham side is weight-stable; the stable
        # degrees were recorded with the golden file.
        stable = self.golden["stable_degrees"][job.ident]
        degrees = list(range(job.info["pmax"] - 1))
        if len(lines) != len(degrees):
            return f"expected {len(degrees)} trusted degrees"
        for n, line in zip(degrees, lines):
            m = re.fullmatch(rf"n={n} amitsur=\d+ derham=\d+ verdict=(\w+)", line)
            if not m:
                return f"malformed line {line!r}"
            if n in stable and m.group(1) != "equal":
                return f"degree {n} is stable but reads {m.group(1)}"
        return None

    # -- divergence

    def _infeasible(self, job, lines):
        m = re.fullmatch(r"verdict=infeasible certificate=\[(.*)\]", lines[0] if lines else "")
        if not m:
            return f"expected an infeasible verdict, got {lines[:1]}"
        cert = [Fraction(v) for v in m.group(1).split(",")]
        return verify_certificate(job.info["f"], job.info["degree"], cert)

    def _feasible(self, job, lines):
        m = re.fullmatch(r"verdict=feasible witness=\[(.*)\]", lines[0] if lines else "")
        if not m:
            return f"expected a feasible verdict, got {lines[:1]}"
        f = job.info["f"]
        parts = m.group(1).split("; ")
        if len(parts) != len(f.variables):
            return "witness has the wrong number of components"
        witness = [parse_poly_text(p, f.variables) for p in parts]
        return verify_witness(f, job.info["degree"], witness)

    def _scan(self, job, lines):
        body = [line for line in lines if not line.startswith("note: ")]
        if len(body) != job.info["entries"]:
            return f"scan printed {len(body)} entries"
        # Every member x^q + y^p + y^(p-1)*x with 4 <= q < p is obstructed.
        if not all(line.endswith("verdict=infeasible") for line in body):
            return "scan has a member that is not infeasible"
        return None

    # -- ideals

    def _ideal_gb(self, job, lines):
        # (x*y, b*x^2 + c*y^3) under grevlex: reduced basis
        # {x*y, y^3 + (b/c)*x^2, x^3}, by hand.
        cusp = job.info["cusp"]
        b, c = cusp.terms[(2, 0)], cusp.terms[(0, 3)]
        want = [
            {(1, 1): Fraction(1)},
            {(0, 3): Fraction(1), (2, 0): b / c},
            {(3, 0): Fraction(1)},
        ]
        got = [parse_poly_text(line, ("x", "y")) for line in lines]
        same = len(got) == len(want) and (
            {frozenset(g.items()) for g in got}
            == {frozenset(w.items()) for w in want}
        )
        return None if same else f"Groebner basis {lines} is not the expected one"

    def _ideal_colon(self, job, lines):
        return None if lines == ["y"] else f"(x*y : x) should be (y), got {lines}"

    def _ideal_annchain(self, job, lines):
        levels = job.info["levels"]
        want = [f"level {i}: y" for i in range(1, levels + 1)] + ["stab=1"]
        return None if lines == want else "annihilator chain differs from (y), (y), ..."

    # -- witness

    def _witness(self, job, lines):
        if len(lines) != job.info["nmax"]:
            return f"expected {job.info['nmax']} witness lines"
        values = []
        for n, line in enumerate(lines, start=1):
            m = re.fullmatch(rf"n={n} logT_lower=(\S+) verdict=positive", line)
            if not m:
                return f"line {n}: {line}"
            value = float(m.group(1))
            if not value < 0:
                return f"n={n}: a log lower bound of T(1/n) < 1 must be negative"
            values.append(value)
        if any(a < b for a, b in zip(values, values[1:])):
            return "bounds do not decrease with n"
        return None

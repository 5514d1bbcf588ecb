"""Workload job lists and their seeded inputs.

A job is one ``drcalc`` command line plus what its checker needs to
know.  Seed 0 reproduces the listed jobs exactly, with every
coefficient 1 and the jobs in the listed order.  Any other seed keeps
each polynomial's monomial support and every size parameter, draws
fresh nonzero rational coefficients, and shuffles the job order.

Rescaling coefficients changes no verdict or dimension in this mix:
every polynomial here has at most one monomial more than it has
variables, with exponent vectors in general position, so a diagonal
change of variables together with a scalar on the equation (over the
algebraic closure, where ranks over Q do not change) turns any
coefficient choice into the all-ones one.  The checkers rely on that.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Polynomial templates: (variables, monomial exponent tuples).
QUARTIC = (("x", "y"), ((4, 0), (1, 4), (0, 5)))
FAT = (("x",), ((2,),))
NODE = (("x", "y"), ((1, 1),))
CUSP = (("x", "y"), ((2, 0), (0, 3)))
BRIESKORN = (("x", "y"), ((3, 0), (0, 4)))
FERMAT = (("x", "y", "z"), ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
QUARTIC_Z = (("x", "y", "z"), ((4, 0, 0), (1, 4, 0), (0, 5, 0), (0, 0, 2)))
LINE_X = (("x", "y"), ((1, 0),))
LINE_Y = (("x", "y"), ((0, 1),))


@dataclass(frozen=True)
class Poly:
    """A polynomial as the checkers see it: variables and {exps: coeff}."""

    variables: tuple
    terms: dict

    def text(self) -> str:
        """drcalc input syntax, e.g. ``3/2*x^4 - y^4*x``."""
        out = ""
        for exps, c in sorted(self.terms.items(), reverse=True):
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            ]
            mag = abs(c)
            body = "*".join(factors)
            if not body:
                term = str(mag)
            elif mag == 1:
                term = body
            else:
                term = f"{mag}*{body}"
            if not out:
                out = ("-" if c < 0 else "") + term
            else:
                out += f" {'-' if c < 0 else '+'} {term}"
        return out or "0"

    def min_degree(self) -> int:
        return min(sum(e) for e in self.terms)


@dataclass(frozen=True)
class Job:
    """One command line and the facts its checker needs."""

    ident: str
    argv: tuple
    kind: str
    info: dict = field(default_factory=dict)
    expect_exit: int = 0


class Draw:
    """Coefficient source: all ones at seed 0, fresh rationals otherwise."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.rng = random.Random(f"drbench:{workload}:{seed}")

    def coeff(self) -> Fraction:
        if self.seed == 0:
            return Fraction(1)
        num = self.rng.randint(1, 6) * self.rng.choice((1, -1))
        return Fraction(num, self.rng.randint(1, 6))

    def poly(self, template) -> Poly:
        variables, monomials = template
        return Poly(variables, {m: self.coeff() for m in monomials})


def _pres_text(odd) -> str:
    """Presentation file for odd generators [(name, Poly)], all degree -1."""
    variables = odd[0][1].variables
    lines = ["vars " + " ".join(variables)]
    for name, poly in odd:
        lines.append(f"odd {name} deg -1 weight {poly.min_degree()}")
    for name, poly in odd:
        lines.append(f"d {name} = {poly.text()}")
    return "\n".join(lines) + "\n"


def _vars(poly: Poly) -> str:
    return "--vars=" + ",".join(poly.variables)


def _stages(draw: Draw):
    quartic = draw.poly(QUARTIC)
    files = {
        "quartic.pres": _pres_text([("t", quartic)]),
        "fat.pres": _pres_text([("t", draw.poly(FAT))]),
        "reg.pres": _pres_text(
            [("t1", draw.poly(LINE_X)), ("t2", draw.poly(LINE_Y))]
        ),
        "node.pres": _pres_text([("t", draw.poly(NODE))]),
        "cusp.pres": _pres_text([("t", draw.poly(CUSP))]),
    }
    jobs = []
    for w in (8, 10, 12, 13):
        jobs.append(Job(
            f"derham-quartic-W{w}",
            ("derham", "--file", "quartic.pres", "--hodge", "3",
             "--truncate", str(w)),
            "table",
        ))
    for case in ("fat", "reg", "node", "cusp"):
        for k in range(4):
            jobs.append(Job(
                f"cartier-{case}-k{k}",
                ("cartier", "--file", f"{case}.pres", "--k", str(k),
                 "--truncate", "6"),
                "cartier",
                {"k": k},
            ))
    jobs.append(Job(
        "cotangent-quartic-W12",
        ("cotangent", "--file", "quartic.pres", "--truncate", "12"),
        "table",
    ))
    jobs.append(Job(
        "a1-quartic-W6",
        ("a1-check", "--file", "quartic.pres", "--truncate", "6"),
        "a1",
    ))
    jobs.append(Job(
        "fibre-quartic-W8",
        ("fibre-report", _vars(quartic), f"--f={quartic.text()}",
         "--truncate", "8"),
        "fibre",
    ))
    jobs.append(Job(
        "tower-quartic-3to1-W12",
        ("tower", _vars(quartic), f"--f={quartic.text()}", "--from", "3",
         "--to", "1", "--truncate", "12"),
        "tower",
        {"f": quartic, "power": 2},
    ))
    jobs.append(Job(
        "stalk-quartic-W9",
        ("stalk", _vars(quartic), f"--f={quartic.text()}", "--truncate", "9"),
        "table",
    ))
    node = draw.poly(NODE)
    cusp = draw.poly(CUSP)
    line_x = draw.poly(LINE_X)
    jobs.append(Job(
        "ideal-gb-node-cusp",
        ("ideal", "gb", _vars(node), f"--gen={node.text()}",
         f"--gen={cusp.text()}"),
        "ideal-gb",
        {"cusp": cusp},
    ))
    jobs.append(Job(
        "ideal-colon-node",
        ("ideal", "colon", _vars(node), f"--gen={node.text()}",
         f"--by={line_x.text()}"),
        "ideal-colon",
    ))
    jobs.append(Job(
        "ideal-annchain-node",
        ("ideal", "annchain", _vars(node), f"--gen={node.text()}",
         f"--f={line_x.text()}", "--levels", "4"),
        "ideal-annchain",
        {"levels": 4},
    ))
    return files, jobs


def _descent(draw: Draw):
    jobs = []
    for template, name, pmax, weight in (
        (NODE, "node", 4, 4),
        (FAT, "fat", 4, 6),
        (NODE, "node", 3, 5),
    ):
        f = draw.poly(template)
        jobs.append(Job(
            f"amitsur-{name}-p{pmax}-W{weight}",
            ("amitsur-compare", _vars(f), f"--f={f.text()}",
             "--pmax", str(pmax), "--hodge", "3", "--truncate", str(weight)),
            "amitsur",
            {"pmax": pmax, "f": f, "hodge": 3, "weight": weight},
        ))
    return {}, jobs


def _divergence(draw: Draw):
    jobs = []
    quartic = draw.poly(QUARTIC)
    cases = [(quartic, "quartic", d, "infeasible") for d in (5, 8, 12, 16)]
    cases += [
        (draw.poly(BRIESKORN), "x3y4", 16, "feasible"),
        (draw.poly(FERMAT), "fermat", 8, "feasible"),
        (draw.poly(QUARTIC_Z), "quartic-z", 8, "infeasible"),
    ]
    for f, name, degree, expect in cases:
        jobs.append(Job(
            f"reiffen-{name}-D{degree}",
            ("reiffen", "check", _vars(f), f"--f={f.text()}",
             "--degree", str(degree)),
            expect,
            {"f": f, "degree": degree},
        ))
    jobs.append(Job(
        "reiffen-scan-q5-p7-D11",
        ("reiffen", "scan", "--qmax", "5", "--pmax", "7", "--degree", "11"),
        "scan",
        {"entries": sum(1 for q in range(4, 6) for p in range(q + 1, 8))},
    ))
    jobs.append(Job(
        "reiffen-quartic-D200-cap",
        ("reiffen", "check", _vars(quartic), f"--f={quartic.text()}",
         "--degree", "200"),
        "cap",
        expect_exit=3,
    ))
    return {}, jobs


def _witness(draw: Draw):
    jobs = []
    for nmax, grid in ((1, 128), (3, 1024), (5, 1024)):
        jobs.append(Job(
            f"witness-n{nmax}-g{grid}",
            ("witness", "--nmax", str(nmax), "--grid", str(grid)),
            "witness",
            {"nmax": nmax, "grid": grid},
        ))
    return {}, jobs


_BUILDERS = {
    "stages": _stages,
    "descent": _descent,
    "divergence": _divergence,
    "witness": _witness,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int):
    """(presentation files {name: text}, jobs) for one workload and seed."""
    draw = Draw(workload, seed)
    files, jobs = _BUILDERS[workload](draw)
    if seed != 0:
        draw.rng.shuffle(jobs)
    return files, jobs


def write_inputs(files, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)

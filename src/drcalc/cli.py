"""Command-line driver.

Every subcommand maps onto one library operation and prints a
deterministic report: a command echo, a parameter block, then the
result lines in the producing module's format.  Verdicts such as
``infeasible`` or ``mismatch`` are successful computations and exit 0;
exit 2 means the input could not be used (usage, parse, or structural
errors) and exit 3 means a resource limit stopped the computation.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import derham, reiffen, witness
from .dg import koszul_presentation, tower_map
from .errors import ResourceLimitError, StructuralError
from .groebner import (
    MonomialOrder,
    PairBudgetExceeded,
    annihilator_chain,
    buchberger,
    colon_principal,
)
from .homology import chain_map_check
from .parse import IDENTIFIER, PolyParseError, integer, parse_poly
from .presfile import (
    PresentationFormatError,
    parse_presentation,
    serialize_presentation,
)

DEFAULT_WEIGHT = 6
DEFAULT_HODGE = 3
DEFAULT_DEGREE = 8


def _vars(text):
    names = tuple(n for n in text.split(",") if n)
    if not names:
        raise StructuralError("empty variable list")
    for name in names:
        if not IDENTIFIER.fullmatch(name):
            raise StructuralError(f"--vars: {name!r} is not an identifier")
    return names


def _emit(command, params, lines):
    out = [f"command: {command}"]
    if params:
        out.append("params: " + " ".join(f"{k}={v}" for k, v in params))
    out.extend(lines)
    return out


def _load_presentation(args):
    with open(args.file, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _pick(flag_value, file_value, default):
    if flag_value is not None:
        return flag_value
    if file_value is not None:
        return file_value
    return default


# ---------------------------------------------------------------------------
# handlers


def _cmd_derham(args):
    pf = _load_presentation(args)
    weight = _pick(args.truncate, pf.truncate, DEFAULT_WEIGHT)
    hodge = _pick(args.hodge, pf.hodge, DEFAULT_HODGE)
    stage = derham.derham_stage(pf.presentation, hodge, weight)
    return _emit(
        "derham",
        [("file", args.file), ("hodge", hodge), ("truncate", weight)],
        stage.report().format().splitlines(),
    )


def _cmd_cotangent(args):
    pf = _load_presentation(args)
    weight = _pick(args.truncate, pf.truncate, DEFAULT_WEIGHT)
    cot = derham.cotangent_complex(pf.presentation)
    return _emit(
        "cotangent",
        [("file", args.file), ("truncate", weight)],
        cot.report(weight).format().splitlines(),
    )


def _cmd_cartier(args):
    pf = _load_presentation(args)
    weight = _pick(args.truncate, pf.truncate, DEFAULT_WEIGHT)
    report = derham.cartier_check(pf.presentation, args.k, weight)
    return _emit(
        "cartier",
        [("file", args.file), ("k", args.k), ("truncate", weight)],
        [report.verdict_line()],
    )


def _cmd_koszul(args):
    variables = _vars(args.vars)
    polys = [parse_poly(variables, text) for text in args.f]
    pres = koszul_presentation(variables, polys, args.power)
    return _emit(
        "koszul",
        [("vars", args.vars), ("power", args.power)],
        serialize_presentation(pres).splitlines(),
    )


def _cmd_tower(args):
    variables = _vars(args.vars)
    polys = [parse_poly(variables, text) for text in args.f]
    weight = args.truncate if args.truncate is not None else DEFAULT_WEIGHT
    morphism = tower_map(variables, polys, getattr(args, "from"), args.to)
    report = chain_map_check(morphism, weight)
    lines = []
    for g in morphism.source.odd:
        lines.append(f"{g.name} -> {morphism.images[g.name]}")
    line = f"chain_map ok={'true' if report.ok else 'false'}"
    if not report.ok:
        line += f" first_failure_degree={report.first_failure_degree}"
    lines.append(line)
    return _emit(
        "tower",
        [
            ("vars", args.vars),
            ("from", getattr(args, "from")),
            ("to", args.to),
            ("truncate", weight),
        ],
        lines,
    )


def _cmd_amitsur_compare(args):
    variables = _vars(args.vars)
    f = parse_poly(variables, args.f)
    weight = args.truncate if args.truncate is not None else DEFAULT_WEIGHT
    hodge = args.hodge if args.hodge is not None else DEFAULT_HODGE
    comparison = derham.amitsur_vs_derham(f, args.pmax, hodge, weight)
    return _emit(
        "amitsur-compare",
        [
            ("vars", args.vars),
            ("f", f),
            ("pmax", args.pmax),
            ("hodge", hodge),
            ("truncate", weight),
        ],
        comparison.format().splitlines(),
    )


def _order(args):
    return MonomialOrder(args.order)


def _cmd_ideal_gb(args):
    variables = _vars(args.vars)
    gens = [parse_poly(variables, text) for text in args.gen]
    gb = buchberger(gens, _order(args))
    return _emit(
        "ideal gb",
        [("vars", args.vars), ("order", args.order)],
        [str(g) for g in gb.gens] or ["0"],
    )


def _cmd_ideal_colon(args):
    variables = _vars(args.vars)
    gens = [parse_poly(variables, text) for text in args.gen]
    by = parse_poly(variables, args.by)
    gb = colon_principal(gens, by, _order(args))
    return _emit(
        "ideal colon",
        [("vars", args.vars), ("by", by), ("order", args.order)],
        [str(g) for g in gb.gens] or ["0"],
    )


def _cmd_ideal_annchain(args):
    variables = _vars(args.vars)
    gens = [parse_poly(variables, text) for text in args.gen]
    f = parse_poly(variables, args.f)
    chain = annihilator_chain(gens, f, args.levels, _order(args))
    lines = []
    for level, gb in enumerate(chain.colon_bases, start=1):
        body = ", ".join(str(g) for g in gb.gens) or "0"
        lines.append(f"level {level}: {body}")
    stab = chain.stabilized_at
    lines.append(f"stab={stab if stab is not None else 'none'}")
    return _emit(
        "ideal annchain",
        [
            ("vars", args.vars),
            ("f", f),
            ("levels", args.levels),
            ("order", args.order),
        ],
        lines,
    )


def _cmd_reiffen_check(args):
    variables = _vars(args.vars)
    f = parse_poly(variables, args.f)
    g = parse_poly(variables, args.g)
    verdict = reiffen.divergence_feasible(f, g, args.degree)
    if verdict.status == "resource-limit":
        raise ResourceLimitError(
            f"predicted unknown count {verdict.unknowns} exceeds the cap "
            f"{reiffen.DEFAULT_UNKNOWN_CAP}"
        )
    if verdict.status == "infeasible":
        cert = ",".join(map(str, verdict.certificate))
        result = f"verdict=infeasible certificate=[{cert}]"
    else:
        body = "; ".join(str(h) for h in verdict.witness)
        result = f"verdict=feasible witness=[{body}]"
    return _emit(
        "reiffen check",
        [
            ("vars", args.vars),
            ("f", f),
            ("g", g),
            ("degree", args.degree),
        ],
        [result, f"note: {verdict.note}"],
    )


def _cmd_reiffen_scan(args):
    scan = reiffen.family_scan(args.qmax, args.pmax, args.degree)
    return _emit(
        "reiffen scan",
        [
            ("qmax", args.qmax),
            ("pmax", args.pmax),
            ("degree", args.degree),
        ],
        scan.format().splitlines() + [f"note: {reiffen.SOUNDNESS_NOTE}"],
    )


def _cmd_stalk(args):
    variables = _vars(args.vars)
    gens = [parse_poly(variables, text) for text in args.f]
    weight = args.truncate if args.truncate is not None else DEFAULT_WEIGHT
    report = reiffen.classical_stalk_cohomology(gens, weight)
    return _emit(
        "stalk",
        [("vars", args.vars), ("truncate", weight)],
        report.format().splitlines(),
    )


def _cmd_witness(args):
    report = witness.nonexactness_witness(
        args.nmax, grid=args.grid, precision_bits=args.precision_bits
    )
    return _emit(
        "witness",
        [
            ("nmax", args.nmax),
            ("precision-bits", args.precision_bits),
            ("grid", args.grid),
        ],
        report.format().splitlines(),
    )


def _cmd_fibre_report(args):
    variables = _vars(args.vars)
    f = parse_poly(variables, args.f)
    weight = args.truncate if args.truncate is not None else DEFAULT_WEIGHT
    hodge = args.hodge if args.hodge is not None else DEFAULT_HODGE
    report = derham.completion_fibre_report(f, hodge, weight)
    return _emit(
        "fibre-report",
        [
            ("vars", args.vars),
            ("f", f),
            ("hodge", hodge),
            ("truncate", weight),
        ],
        report.format().splitlines(),
    )


def _cmd_a1_check(args):
    pf = _load_presentation(args)
    weight = _pick(args.truncate, pf.truncate, DEFAULT_WEIGHT)
    hodge = _pick(args.hodge, pf.hodge, DEFAULT_HODGE)
    report = derham.a1_invariance_check(pf.presentation, weight, hodge)
    lines = [f"a1 ok={'true' if report.ok else 'false'}"]
    for degree, base, extended in report.compared:
        lines.append(f"H^{{{degree}}} base={base} extended={extended}")
    return _emit(
        "a1-check",
        [("file", args.file), ("hodge", hodge), ("truncate", weight)],
        lines,
    )


# ---------------------------------------------------------------------------
# parser


def _add_file(p):
    p.add_argument("--file", required=True, help="presentation file")


def _add_truncate(p):
    p.add_argument("--truncate", type=integer, default=None, metavar="W",
                   help=f"weight window (default {DEFAULT_WEIGHT})")


def _add_hodge(p):
    p.add_argument("--hodge", type=integer, default=None, metavar="K",
                   help=f"Hodge level (default {DEFAULT_HODGE})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcalc",
        description="exact derived de Rham calculations at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derham", help="cohomology of a de Rham stage")
    _add_file(p)
    _add_hodge(p)
    _add_truncate(p)
    p.set_defaults(handler=_cmd_derham)

    p = sub.add_parser("cotangent", help="cotangent complex cohomology")
    _add_file(p)
    _add_truncate(p)
    p.set_defaults(handler=_cmd_cotangent)

    p = sub.add_parser("cartier", help="graded piece vs wedge power")
    _add_file(p)
    p.add_argument("--k", type=integer, default=1,
                   help="Hodge column (default 1)")
    _add_truncate(p)
    p.set_defaults(handler=_cmd_cartier)

    p = sub.add_parser("koszul", help="emit a Koszul presentation")
    p.add_argument("--vars", required=True)
    p.add_argument("--f", action="append", required=True,
                   help="bounded polynomial (repeatable)")
    p.add_argument("--power", type=integer, default=1, metavar="N")
    p.set_defaults(handler=_cmd_koszul)

    p = sub.add_parser("tower", help="tower map between Koszul levels")
    p.add_argument("--vars", required=True)
    p.add_argument("--f", action="append", required=True)
    p.add_argument("--from", type=integer, required=True, metavar="N")
    p.add_argument("--to", type=integer, required=True, metavar="n")
    _add_truncate(p)
    p.set_defaults(handler=_cmd_tower)

    p = sub.add_parser("amitsur-compare",
                       help="conerve totalization vs de Rham stage")
    p.add_argument("--vars", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--pmax", type=integer, default=3)
    _add_hodge(p)
    _add_truncate(p)
    p.set_defaults(handler=_cmd_amitsur_compare)

    p = sub.add_parser("ideal", help="Groebner computations")
    isub = p.add_subparsers(dest="ideal_command", required=True)
    for name, handler in (
        ("gb", _cmd_ideal_gb),
        ("colon", _cmd_ideal_colon),
        ("annchain", _cmd_ideal_annchain),
    ):
        q = isub.add_parser(name)
        q.add_argument("--vars", required=True)
        q.add_argument("--gen", action="append", required=True,
                       help="ideal generator (repeatable)")
        q.add_argument("--order", choices=("grevlex", "lex"),
                       default="grevlex")
        if name == "colon":
            q.add_argument("--by", required=True)
        if name == "annchain":
            q.add_argument("--f", required=True)
            q.add_argument("--levels", type=integer, default=4)
        q.set_defaults(handler=handler)

    p = sub.add_parser("reiffen", help="divergence-equation tests")
    rsub = p.add_subparsers(dest="reiffen_command", required=True)
    q = rsub.add_parser("check")
    q.add_argument("--vars", required=True)
    q.add_argument("--f", required=True)
    q.add_argument("--g", default="1")
    q.add_argument("--degree", type=integer, default=DEFAULT_DEGREE,
                   metavar="D")
    q.set_defaults(handler=_cmd_reiffen_check)
    q = rsub.add_parser("scan")
    q.add_argument("--qmax", type=integer, default=4)
    q.add_argument("--pmax", type=integer, default=6)
    q.add_argument("--degree", type=integer, default=10, metavar="D")
    q.set_defaults(handler=_cmd_reiffen_scan)

    p = sub.add_parser("stalk", help="classical stalk cohomology")
    p.add_argument("--vars", required=True)
    p.add_argument("--f", action="append", required=True,
                   help="ideal generator (repeatable)")
    _add_truncate(p)
    p.set_defaults(handler=_cmd_stalk)

    p = sub.add_parser("witness", help="flat-form positivity witness")
    p.add_argument("--nmax", type=integer, default=3)
    p.add_argument("--precision-bits", type=integer,
                   default=witness.DEFAULT_PRECISION)
    p.add_argument("--grid", type=integer, default=witness.DEFAULT_GRID)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("fibre-report", help="completion fibre bookkeeping")
    p.add_argument("--vars", required=True)
    p.add_argument("--f", required=True)
    _add_hodge(p)
    _add_truncate(p)
    p.set_defaults(handler=_cmd_fibre_report)

    p = sub.add_parser("a1-check", help="affine-line invariance")
    _add_file(p)
    _add_hodge(p)
    _add_truncate(p)
    p.set_defaults(handler=_cmd_a1_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call of a process.

    ``parse_args`` leaves a parser as it was (repeatable options start
    a new list per call), so one parser serves every call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        lines = args.handler(args)
    except (
        PolyParseError,
        PresentationFormatError,
        StructuralError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, PairBudgetExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

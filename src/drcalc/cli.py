"""Command-line driver.

Every subcommand maps onto one library operation and prints a
deterministic report: a command echo, a parameter echo, then the
result lines in the producing module's format.  The parameter echo
lists every non-repeatable option of the subcommand, in the order the
parser declares them, with its value as resolved: ``--truncate`` and
``--hodge`` from the flag, else the presentation file's directive,
else the default; a polynomial in its normal form.  The repeatable
``--f`` and ``--gen`` are not echoed.  Inputs are read in that same
order, so of two bad inputs the one declared first is reported.
Verdicts such as ``infeasible`` or ``mismatch`` are successful
computations and exit 0; exit 2 means the input could not be used
(usage, parse or structural errors, or a file that cannot be read as
UTF-8 text) and exit 3 means a resource limit stopped the computation.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import derham, reiffen, witness
from .algebra import check_weight
from .dg import koszul_presentation, tower_map
from .errors import ResourceLimitError, StructuralError
from .groebner import (
    MonomialOrder,
    PairBudgetExceeded,
    annihilator_chain,
    buchberger,
    colon_principal,
)
from .parse import IDENTIFIER, PolyParseError, integer, parse_poly
from .presfile import (
    PresentationFormatError,
    parse_presentation,
    serialize_presentation,
)

DEFAULT_WEIGHT = 6
DEFAULT_HODGE = 3
DEFAULT_DEGREE = 8

# the options read as polynomials over --vars, and the defaults of the
# options a presentation file's directives can fill
_POLYNOMIALS = frozenset({"f", "g", "by", "gen"})
_DEFAULTS = {"truncate": DEFAULT_WEIGHT, "hodge": DEFAULT_HODGE}


def _vars(text):
    names = tuple(n for n in text.split(",") if n)
    if not names:
        raise StructuralError("empty variable list")
    for name in names:
        if not IDENTIFIER.fullmatch(name):
            raise StructuralError(f"--vars: {name!r} is not an identifier")
    return names


def _resolve(args):
    """Read the subcommand's options in declaration order; return the echo.

    Each option's value in ``args`` is replaced by the one the handler
    uses: ``--vars`` by its name tuple, a polynomial option by its
    ``Poly`` (a list of them when repeatable), ``--file`` by its
    ``PresentationFile``, and ``--truncate`` or ``--hodge`` by the flag,
    else the file's directive, else the default (every subcommand that
    takes ``--file`` declares it first).  The echo shows ``--vars`` and
    ``--file`` as given and every other option as resolved.
    """
    variables = file = None
    echo = []
    for action in args.options:
        name = action.dest
        given = value = getattr(args, name)
        if name == "vars":
            value = variables = _vars(value)
        elif name in _POLYNOMIALS:
            if isinstance(value, list):
                value = [parse_poly(variables, text) for text in value]
            else:
                value = parse_poly(variables, value)
        elif name == "file":
            try:
                with open(value, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise StructuralError(
                    f"{value}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})"
                ) from None
            value = file = parse_presentation(text)
        elif name in _DEFAULTS:
            if value is None and file is not None:
                value = getattr(file, name)
            if value is None:
                value = _DEFAULTS[name]
        setattr(args, name, value)
        if not isinstance(value, list):
            shown = given if name in ("vars", "file") else value
            echo.append(f"{action.option_strings[0][2:]}={shown}")
    return "params: " + " ".join(echo)


# ---------------------------------------------------------------------------
# handlers: each gets ``args`` as ``_resolve`` left it and returns the
# result lines


def _cmd_derham(args):
    stage = derham.derham_stage(
        args.file.presentation, args.hodge, args.truncate
    )
    return stage.report().format().splitlines()


def _cmd_cotangent(args):
    cot = derham.cotangent_complex(args.file.presentation)
    return cot.report(args.truncate).format().splitlines()


def _cmd_cartier(args):
    report = derham.cartier_check(
        args.file.presentation, args.k, args.truncate
    )
    return [report.verdict_line()]


def _cmd_koszul(args):
    pres = koszul_presentation(args.vars, args.f, args.power)
    return serialize_presentation(pres).splitlines()


def _cmd_tower(args):
    morphism = tower_map(args.vars, args.f, getattr(args, "from"), args.to)
    check_weight(args.truncate)
    # tower_map refuses a map that fails to commute with d on
    # generators.  φ∘d and d∘φ are both φ-derivations, so agreeing on
    # generators they agree everywhere; φ never lowers weight, so it
    # descends to every weight truncation and the square commutes there.
    lines = [
        f"{g.name} -> {morphism.images[g.name]}" for g in morphism.source.odd
    ]
    return lines + ["chain_map ok=true"]


def _cmd_amitsur_compare(args):
    comparison = derham.amitsur_vs_derham(
        args.f, args.pmax, args.hodge, args.truncate
    )
    return comparison.format().splitlines()


def _cmd_ideal_gb(args):
    gb = buchberger(args.gen, MonomialOrder(args.order))
    return [str(g) for g in gb.gens] or ["0"]


def _cmd_ideal_colon(args):
    gb = colon_principal(args.gen, args.by, MonomialOrder(args.order))
    return [str(g) for g in gb.gens] or ["0"]


def _cmd_ideal_annchain(args):
    chain = annihilator_chain(
        args.gen, args.f, args.levels, MonomialOrder(args.order)
    )
    lines = []
    for level, gb in enumerate(chain.colon_bases, start=1):
        body = ", ".join(str(g) for g in gb.gens) or "0"
        lines.append(f"level {level}: {body}")
    stab = chain.stabilized_at
    lines.append(f"stab={stab if stab is not None else 'none'}")
    return lines


def _cmd_reiffen_check(args):
    verdict = reiffen.divergence_feasible(args.f, args.g, args.degree)
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
    return [result, f"note: {verdict.note}"]


def _cmd_reiffen_scan(args):
    scan = reiffen.family_scan(args.qmax, args.pmax, args.degree)
    return scan.format().splitlines() + [f"note: {reiffen.SOUNDNESS_NOTE}"]


def _cmd_stalk(args):
    report = reiffen.classical_stalk_cohomology(args.f, args.truncate)
    return report.format().splitlines()


def _cmd_witness(args):
    report = witness.nonexactness_witness(
        args.nmax, grid=args.grid, precision_bits=args.precision_bits
    )
    return report.format().splitlines()


def _cmd_fibre_report(args):
    report = derham.completion_fibre_report(args.f, args.hodge, args.truncate)
    return report.format().splitlines()


def _cmd_a1_check(args):
    report = derham.a1_invariance_check(
        args.file.presentation, args.truncate, args.hodge
    )
    lines = [f"a1 ok={'true' if report.ok else 'false'}"]
    for degree, base, extended in report.compared:
        lines.append(f"H^{{{degree}}} base={base} extended={extended}")
    return lines


# ---------------------------------------------------------------------------
# parser: each option is (flag, add_argument keywords)

_FILE = ("--file", {"required": True, "help": "presentation file"})
_VARS = ("--vars", {"required": True})
_F = ("--f", {"required": True})
_HODGE = ("--hodge", {"type": integer, "metavar": "K",
                      "help": f"Hodge level (default {DEFAULT_HODGE})"})
_TRUNCATE = ("--truncate", {
    "type": integer, "metavar": "W",
    "help": f"weight window (default {DEFAULT_WEIGHT})",
})
_GEN = ("--gen", {"action": "append", "required": True,
                  "help": "ideal generator (repeatable)"})
_ORDER = ("--order", {"choices": ("grevlex", "lex"), "default": "grevlex"})


def _command(sub, name, handler, *options, **kwargs):
    """Add subcommand ``name`` (its last word) to ``sub``.

    The ``Action`` of each option, in declaration order, is kept as
    the parsed namespace's ``options`` for ``_resolve``.
    """
    p = sub.add_parser(name.split()[-1], **kwargs)
    actions = [p.add_argument(flag, **keywords) for flag, keywords in options]
    p.set_defaults(name=name, handler=handler, options=actions)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drcalc",
        description="exact derived de Rham calculations at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "derham", _cmd_derham, _FILE, _HODGE, _TRUNCATE,
             help="cohomology of a de Rham stage")
    _command(sub, "cotangent", _cmd_cotangent, _FILE, _TRUNCATE,
             help="cotangent complex cohomology")
    _command(sub, "cartier", _cmd_cartier, _FILE,
             ("--k", {"type": integer, "default": 1,
                      "help": "Hodge column (default 1)"}),
             _TRUNCATE, help="graded piece vs wedge power")
    _command(sub, "koszul", _cmd_koszul, _VARS,
             ("--f", {"action": "append", "required": True,
                      "help": "bounded polynomial (repeatable)"}),
             ("--power", {"type": integer, "default": 1, "metavar": "N"}),
             help="emit a Koszul presentation")
    _command(sub, "tower", _cmd_tower, _VARS,
             ("--f", {"action": "append", "required": True}),
             ("--from", {"type": integer, "required": True, "metavar": "N"}),
             ("--to", {"type": integer, "required": True, "metavar": "n"}),
             _TRUNCATE, help="tower map between Koszul levels")
    _command(sub, "amitsur-compare", _cmd_amitsur_compare, _VARS, _F,
             ("--pmax", {"type": integer, "default": 3}), _HODGE, _TRUNCATE,
             help="conerve totalization vs de Rham stage")

    p = sub.add_parser("ideal", help="Groebner computations")
    isub = p.add_subparsers(dest="ideal_command", required=True)
    _command(isub, "ideal gb", _cmd_ideal_gb, _VARS, _GEN, _ORDER)
    _command(isub, "ideal colon", _cmd_ideal_colon, _VARS, _GEN,
             ("--by", {"required": True}), _ORDER)
    _command(isub, "ideal annchain", _cmd_ideal_annchain, _VARS, _GEN, _F,
             ("--levels", {"type": integer, "default": 4}), _ORDER)

    p = sub.add_parser("reiffen", help="divergence-equation tests")
    rsub = p.add_subparsers(dest="reiffen_command", required=True)
    _command(rsub, "reiffen check", _cmd_reiffen_check, _VARS, _F,
             ("--g", {"default": "1"}),
             ("--degree", {"type": integer, "default": DEFAULT_DEGREE,
                           "metavar": "D"}))
    _command(rsub, "reiffen scan", _cmd_reiffen_scan,
             ("--qmax", {"type": integer, "default": 4}),
             ("--pmax", {"type": integer, "default": 6}),
             ("--degree", {"type": integer, "default": 10, "metavar": "D"}))

    _command(sub, "stalk", _cmd_stalk, _VARS,
             ("--f", {"action": "append", "required": True,
                      "help": "ideal generator (repeatable)"}),
             _TRUNCATE, help="classical stalk cohomology")
    _command(sub, "witness", _cmd_witness,
             ("--nmax", {"type": integer, "default": 3}),
             ("--precision-bits", {"type": integer,
                                   "default": witness.DEFAULT_PRECISION}),
             ("--grid", {"type": integer, "default": witness.DEFAULT_GRID}),
             help="flat-form positivity witness")
    _command(sub, "fibre-report", _cmd_fibre_report, _VARS, _F, _HODGE,
             _TRUNCATE, help="completion fibre bookkeeping")
    _command(sub, "a1-check", _cmd_a1_check, _FILE, _HODGE, _TRUNCATE,
             help="affine-line invariance")
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
        params = _resolve(args)
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
    print(f"command: {args.name}")
    print(params)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

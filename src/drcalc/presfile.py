"""Line-oriented interchange format for dg presentations.

A presentation file looks like

    vars x y
    odd t deg -1 weight 4
    d t = x^4 + y^5 + y^4*x

with exactly one ``d`` line per odd generator, plus the optional
driver directives ``truncate W`` and ``hodge K``.  Blank lines and
``#`` comments are ignored.  Differential images are polynomials in
the even variables.  Every ``vars`` and ``odd`` name must match the
parser's ``IDENTIFIER``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dg import DGPresentation, OddGenerator
from .parse import IDENTIFIER, PolyParseError, integer, parse_poly
from .poly import Poly, even_poly_parts


class PresentationFormatError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class PresentationFile:
    presentation: DGPresentation
    truncate: int = None
    hodge: int = None


def parse_presentation(text: str) -> PresentationFile:
    variables = None
    odds = []
    images = {}
    truncate = None
    hodge = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0]
        if head == "vars":
            if variables is not None:
                raise PresentationFormatError(number, "second vars line")
            if len(fields) < 2:
                raise PresentationFormatError(number, "vars needs names")
            variables = tuple(fields[1:])
            for name in variables:
                _check_name(number, name)
        elif head == "odd":
            if (
                len(fields) != 6
                or fields[2] != "deg"
                or fields[4] != "weight"
            ):
                raise PresentationFormatError(
                    number, "expected: odd <name> deg <int> weight <int>"
                )
            try:
                degree = integer(fields[3])
                weight = integer(fields[5])
            except ValueError:
                raise PresentationFormatError(
                    number, "degree and weight must be integers"
                ) from None
            _check_name(number, fields[1])
            odds.append(OddGenerator(fields[1], degree, weight))
        elif head == "d":
            if len(fields) < 4 or fields[2] != "=":
                raise PresentationFormatError(
                    number, "expected: d <name> = <polynomial>"
                )
            if variables is None:
                raise PresentationFormatError(number, "d before vars")
            name = fields[1]
            if name in images:
                raise PresentationFormatError(
                    number, f"second d line for {name!r}"
                )
            body = line.split("=", 1)[1]
            try:
                images[name] = parse_poly(variables, body)
            except PolyParseError as exc:
                raise PresentationFormatError(number, str(exc)) from None
        elif head == "truncate":
            truncate = _directive_int(number, fields)
        elif head == "hodge":
            hodge = _directive_int(number, fields)
        else:
            raise PresentationFormatError(
                number, f"unknown directive {head!r}"
            )
    if variables is None:
        raise PresentationFormatError(0, "missing vars line")
    declared = {g.name for g in odds}
    for name in images:
        if name not in declared:
            raise PresentationFormatError(0, f"d line for undeclared {name!r}")
    for g in odds:
        if g.name not in images:
            raise PresentationFormatError(0, f"missing d line for {g.name!r}")
    pres = DGPresentation(variables, odds, images)
    return PresentationFile(
        presentation=pres, truncate=truncate, hodge=hodge
    )


def _check_name(number, name):
    if not IDENTIFIER.fullmatch(name):
        raise PresentationFormatError(number, f"{name!r} is not an identifier")


def _directive_int(number, fields):
    if len(fields) != 2:
        raise PresentationFormatError(
            number, f"{fields[0]} takes one integer"
        )
    try:
        return integer(fields[1])
    except ValueError:
        raise PresentationFormatError(
            number, f"{fields[0]} takes one integer"
        ) from None


def serialize_presentation(pres: DGPresentation) -> str:
    if pres.relations:
        raise ValueError("the interchange format carries no relations")
    lines = ["vars " + " ".join(pres.even)]
    for g in pres.odd:
        lines.append(f"odd {g.name} deg {g.degree} weight {g.weight}")
    zero = (0,) * len(pres.context)
    for g in pres.odd:
        parts = even_poly_parts(pres.images[g.name])
        if set(parts) - {zero}:
            raise ValueError(
                f"image of {g.name!r} is not polynomial; "
                "the interchange format cannot carry it"
            )
        lines.append(f"d {g.name} = {parts.get(zero, Poly.zero(pres.even))}")
    return "\n".join(lines) + "\n"

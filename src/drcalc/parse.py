"""Parser for the polynomial interchange syntax.

Accepted grammar (whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' integer]
    atom   := rational | variable | '(' expr ')'
    rational := integer ['/' integer]
    integer  := [0-9]+

Integers are ASCII digits only, as names are ASCII letters, digits and
underscores; ``integer`` reads the integers outside this grammar (the
CLI's options and the presentation file's fields) the same way.
Variables must be pre-declared through the context.  Errors carry the
0-based column of the offending token.  The parser recurses on
parentheses and unary minuses, so they nest at most ``MAX_NESTING``
deep; a deeper text is a parse error.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Poly


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int, text: str):
        self.position = position
        self.text = text
        super().__init__(f"{message} at column {position}: {text!r}")


MAX_NESTING = 100  # parentheses and unary minuses, one inside the other

# a variable name as the parser reads one; declared names must match it
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_INTEGER = re.compile(r"[+-]?[0-9]+")

_TOKEN = re.compile(rf"\s*(?:([0-9]+)|({IDENTIFIER.pattern})|([()+\-*/^]))")


def integer(text: str) -> int:
    """``text`` as an int: an optional sign, then ASCII digits only.

    ``int`` alone also reads any Unicode decimal digit, surrounding
    spaces and underscores.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise PolyParseError("unexpected character", where, text)
        where = m.start(m.lastindex)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), where))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), where))
        else:
            tokens.append(("op", m.group(3), where))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, context, text: str):
        self.context = tuple(context)
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses and unary minuses open here

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        kind, _, pos = self.peek()
        raise PolyParseError(message, pos, self.text)

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return p

    def expr(self) -> Poly:
        negate = False
        if self.peek() == ("op", "-", self.peek()[2]):
            self.advance()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] == "*":
            self.advance()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        p = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            kind, value, _ = self.peek()
            if kind != "int":
                self.fail("expected integer exponent after '^'")
            self.advance()
            p = p ** int(value)
        return p

    def atom(self) -> Poly:
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            num = int(value)
            if self.peek()[0] == "op" and self.peek()[1] == "/":
                self.advance()
                k2, v2, _ = self.peek()
                if k2 != "int":
                    self.fail("expected integer denominator after '/'")
                self.advance()
                den = int(v2)
                if den == 0:
                    raise PolyParseError("zero denominator", pos, self.text)
                return Poly.const(self.context, Fraction(num, den))
            return Poly.const(self.context, num)
        if kind == "name":
            if value not in self.context:
                raise PolyParseError(f"undeclared variable {value!r}", pos, self.text)
            self.advance()
            return Poly.var(self.context, value)
        if kind == "op" and value in ("(", "-"):
            if self.depth == MAX_NESTING:
                raise PolyParseError("nested too deeply", pos, self.text)
            self.advance()
            self.depth += 1
            if value == "-":
                p = -self.factor()
            else:
                p = self.expr()
                if self.peek()[:2] != ("op", ")"):
                    self.fail("expected ')'")
                self.advance()
            self.depth -= 1
            return p
        self.fail("expected a number, variable or '('")


def parse_poly(context, text: str) -> Poly:
    """Parse ``text`` into a Poly over the given variable context."""
    return _Parser(context, text).parse()

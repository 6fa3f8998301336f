"""Parser and renderer for presentation files and algebra expressions.

File grammar (one header per line, order as listed)::

    generators: a b
    weights: 3 2          # optional; switches the order to weighted deglex
    central: t u1         # optional
    relations: a*b + b*a ; a^2 + b^3

Expressions use ``+ - * ^`` with integer or rational ``p/q`` coefficients,
parentheses, and juxtaposition-free products (every product needs ``*``).
Parse errors carry line and column numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .freealg import GenSet, NcPoly, genset, nc_str
from .ncgb import Presentation


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


@dataclass
class _Token:
    kind: str  # "number" | "name" | an operator character | "end"
    text: str
    col: int


def _tokenize(text: str, line: int) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not m.group(0).strip():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line, col)
        col = m.start(m.lastgroup) + 1
        if m.group("number"):
            out.append(_Token("number", m.group("number"), col))
        elif m.group("name"):
            out.append(_Token("name", m.group("name"), col))
        else:
            out.append(_Token(m.group("op"), m.group("op"), col))
        pos = m.end()
    out.append(_Token("end", "", len(text) + 1))
    return out


class _ExprParser:
    """Recursive descent: sum -> term (('+'|'-') term)*;
    term -> ['-'] factor ('*' factor)*; factor -> atom ['^' number];
    atom -> number | name | '(' sum ')'."""

    def __init__(self, tokens: list[_Token], gens: GenSet, line: int):
        self.toks = tokens
        self.i = 0
        self.gens = gens
        self.line = line

    def _peek(self) -> _Token:
        return self.toks[self.i]

    def _next(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _fail(self, msg: str, tok: _Token):
        raise ParseError(msg, self.line, tok.col)

    def parse(self) -> NcPoly:
        poly = self._sum()
        tok = self._peek()
        if tok.kind != "end":
            self._fail(f"unexpected token {tok.text!r}", tok)
        return poly

    def _sum(self) -> NcPoly:
        poly = self._term()
        while self._peek().kind in ("+", "-"):
            op = self._next().kind
            rhs = self._term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def _term(self) -> NcPoly:
        sign = 1
        while self._peek().kind == "-":
            self._next()
            sign = -sign
        poly = self._factor()
        while self._peek().kind == "*":
            self._next()
            poly = poly * self._factor()
        return poly.scale(sign) if sign < 0 else poly

    def _factor(self) -> NcPoly:
        poly = self._atom()
        if self._peek().kind == "^":
            self._next()
            tok = self._next()
            if tok.kind != "number" or "/" in tok.text:
                self._fail("exponent must be a nonnegative integer", tok)
            poly = poly ** int(tok.text)
        return poly

    def _atom(self) -> NcPoly:
        tok = self._next()
        if tok.kind == "number":
            try:
                return NcPoly.const(self.gens, Fraction(tok.text))
            except ZeroDivisionError:
                self._fail("zero denominator", tok)
        if tok.kind == "name":
            if tok.text not in self.gens.names:
                self._fail(f"unknown generator {tok.text!r}", tok)
            return NcPoly.gen(self.gens, tok.text)
        if tok.kind == "(":
            poly = self._sum()
            close = self._next()
            if close.kind != ")":
                self._fail("expected ')'", close)
            return poly
        self._fail(f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of expression", tok)


def parse_expr(text: str, gens: GenSet, line: int = 1) -> NcPoly:
    return _ExprParser(_tokenize(text, line), gens, line).parse()


def presentation_parse(text: str) -> Presentation:
    """Parse a presentation file; see the module docstring for the grammar."""
    headers: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError("expected 'header: value'", lineno, 1)
        key, _, value = stripped.partition(":")
        key = key.strip()
        if key not in ("generators", "weights", "central", "relations"):
            raise ParseError(f"unknown header {key!r}", lineno, 1)
        if key in headers:
            raise ParseError(f"duplicate header {key!r}", lineno, 1)
        headers[key] = (value.strip(), lineno)
    if "generators" not in headers:
        raise ParseError("missing 'generators' header", 1, 1)
    gnames_text, gline = headers["generators"]
    names = gnames_text.split()
    if not names:
        raise ParseError("no generators listed", gline, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator name", gline, 1)
    weights = None
    order = "deglex"
    if "weights" in headers:
        wtext, wline = headers["weights"]
        try:
            weights = [int(w) for w in wtext.split()]
        except ValueError:
            raise ParseError("weights must be integers", wline, 1) from None
        if len(weights) != len(names):
            raise ParseError("need one weight per generator", wline, 1)
        if min(weights) < 1:
            raise ParseError("weights must be >= 1", wline, 1)
        order = "wdeglex"
    central: list[str] = []
    if "central" in headers:
        ctext, cline = headers["central"]
        central = ctext.split()
        if len(set(central)) != len(central):
            raise ParseError("duplicate central name", cline, 1)
        # Central names absent from the generators line are extra generators;
        # they go first, matching the canonical central-first word form.
        extra = [c for c in central if c not in names]
        names = extra + names
        if weights is not None:
            weights = [1] * len(extra) + weights
    gens = genset(names, weights, central)
    relations: list[NcPoly] = []
    if "relations" in headers:
        rtext, rline = headers["relations"]
        for chunk in rtext.split(";"):
            if not chunk.strip():
                continue
            relations.append(parse_expr(chunk, gens, rline))
    try:
        return Presentation(gens, tuple(relations), order)
    except ValueError as exc:
        raise ParseError(str(exc), headers.get("relations", ("", 1))[1], 1) from None


def render(p: Presentation) -> str:
    """Presentation file text; ``presentation_parse(render(p)) == p`` as long
    as the order mode matches the presence of weights."""
    lines = [f"generators: {' '.join(p.gens.names)}"]
    if p.order == "wdeglex":
        lines.append(f"weights: {' '.join(str(w) for w in p.gens.weights)}")
    central = [n for n, c in zip(p.gens.names, p.gens.central) if c]
    if central:
        lines.append(f"central: {' '.join(central)}")
    if p.relations:
        lines.append(
            "relations: " + " ; ".join(nc_str(r) for r in p.relations)
        )
    return "\n".join(lines) + "\n"

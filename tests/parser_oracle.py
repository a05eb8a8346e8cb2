"""The reference parser for class expressions: a token list, then a walk over it.

This is the character-loop tokenizer and token-index parser that
`cdcalc.cli.parse_class` replaced with a term-level scanner, kept word for
word so the scanner can be compared with it: on any string, both must return
equal classes, or raise the same `ClassSyntaxError` message at the same byte
offset.  It lives only in the tests; the package has one parser.

`TERM` and `FACTOR` are the scanner's patterns as first written, with each
optional group as `(?:X)?`; the package writes them `(?:X|)`, and the two
forms must match alike.
"""

from __future__ import annotations

import re
from fractions import Fraction

from cdcalc.cli import ClassSyntaxError
from cdcalc.nsring import Ambient, NSClass

_DIGITS = frozenset("0123456789")

TERM = re.compile(
    r"[ \t]*(?:([+-])[ \t]*)?([0-9]+)[ \t]*"
    r"(?:/[ \t]*([0-9]+)[ \t]*)?"
    r"(?:\*[ \t]*(x)[ \t]*(?:\^[ \t]*([0-9]+)[ \t]*)?)?"
    r"(?:\*[ \t]*(theta)[ \t]*(?:\^[ \t]*([0-9]+)[ \t]*)?)?"
)
FACTOR = re.compile(r"\*[ \t]*(x|theta)[ \t]*(?:\^[ \t]*([0-9]+)[ \t]*)?")


def _tokenize(expr: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(expr):
        ch = expr[pos]
        if ch in " \t":  # ASCII only, so every error position is also a byte offset
            pos += 1
        elif ch in _DIGITS:
            end = pos
            while end < len(expr) and expr[end] in _DIGITS:
                end += 1
            tokens.append(("int", int(expr[pos:end]), pos))
            pos = end
        elif expr.startswith("theta", pos):
            tokens.append(("name", "theta", pos))
            pos += 5
        elif ch == "x":
            tokens.append(("name", "x", pos))
            pos += 1
        elif ch in "+-*/^":
            tokens.append(("op", ch, pos))
            pos += 1
        else:
            raise ClassSyntaxError(f"unexpected character {ch!r}", pos)
    return tokens


def parse_class(expr: str, amb: Ambient) -> NSClass:
    """Parse the canonical textual form into a class on the given ambient.

    Terms whose degree exceeds d are rejected with an error rather than
    silently truncated: explicit user input should not vanish.
    """
    tokens = _tokenize(expr)
    if not tokens:
        raise ClassSyntaxError("empty class expression", 0)

    def at(index: int) -> tuple[str, object, int]:
        if index >= len(tokens):
            raise ClassSyntaxError("unexpected end of expression", len(expr))
        return tokens[index]

    terms: dict[tuple[int, int], Fraction] = {}
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        kind, value, pos = tokens[i]
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            i += 1
        elif not first:
            raise ClassSyntaxError("expected '+' or '-' between terms", pos)
        kind, value, pos = at(i)
        if kind != "int":
            raise ClassSyntaxError("expected a rational coefficient", pos)
        term_pos = pos
        numerator = value
        i += 1
        denominator = 1
        # A token's value alone tells the operators apart: ints and names never equal "/", "*", "^".
        if i < len(tokens) and tokens[i][1] == "/":
            kind, value, pos = at(i + 1)
            if kind != "int":
                raise ClassSyntaxError("expected an integer denominator", pos)
            if value == 0:
                raise ClassSyntaxError("zero denominator", pos)
            denominator = value
            i += 2
        exponents = {"x": 0, "theta": 0}
        while i < len(tokens) and tokens[i][1] == "*":
            kind, value, pos = at(i + 1)
            if kind != "name":
                raise ClassSyntaxError("expected 'x' or 'theta' after '*'", pos)
            name = value
            i += 2
            power = 1
            if i < len(tokens) and tokens[i][1] == "^":
                kind, value, pos = at(i + 1)
                if kind != "int":
                    raise ClassSyntaxError("expected an integer exponent", pos)
                power = value
                i += 2
            exponents[name] += power
        degree = exponents["x"] + exponents["theta"]
        if degree > amb.d:
            raise ClassSyntaxError(
                f"degree exceeds ambient: term of degree {degree} on C_{amb.d}", term_pos
            )
        key = (exponents["x"], exponents["theta"])
        coeff = Fraction(sign * numerator, denominator)
        if key in terms:
            coeff += terms[key]
        terms[key] = coeff
        first = False
    return NSClass(amb, terms)

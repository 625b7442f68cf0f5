"""Tiny arithmetic grammar for coefficient and nonlinearity profiles.

expr   := term (('+' | '-') term)*
term   := factor (('*' | '/') factor)*
factor := base ('^' number)?
base   := number | variable | fn '(' expr ')' | '(' expr ')' | '-' base

The single admitted variable name is fixed at parse time (coefficients see
'x', nonlinearities see 'u'), so cross-contamination is a parse error, not a
runtime surprise.  Unary minus is an extension over the written grammar.
Evaluation is total on finite inputs: division by zero and overflow produce
non-finite values silently rather than raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Expression", "parse_expression", "FUNCTIONS"]

FUNCTIONS = ("sin", "cos", "exp", "tanh", "abs", "sech")

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ValueError(f"column {pos + 1}: cannot read {rest[:10]!r}")
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


@dataclass(frozen=True)
class Expression:
    """Parsed profile expression over one variable."""

    source: str
    variable: str
    root: tuple

    def evaluate(self, values) -> np.ndarray:
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.complexfloating):
            arr = arr.astype(float)
        with np.errstate(all="ignore"):
            out = _eval(self.root, arr)
        # constants stay scalar inside the tree; only a constant result is spread
        if np.shape(out) != arr.shape:
            out = np.full(arr.shape, out)
        return np.asarray(out)


def _eval(node: tuple, var: np.ndarray):
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        return var
    if kind == "neg":
        return -_eval(node[1], var)
    if kind == "pow":
        return _eval(node[1], var) ** node[2]
    if kind == "fn":
        inner = _eval(node[2], var)
        name = node[1]
        if name == "sech":
            return 1.0 / np.cosh(inner)
        return getattr(np, name)(inner)
    left = _eval(node[2], var)
    right = _eval(node[3], var)
    if node[1] == "+":
        return left + right
    if node[1] == "-":
        return left - right
    if node[1] == "*":
        return left * right
    return left / right


class _Parser:
    def __init__(self, tokens: list, variable: str, source: str):
        self.tokens = tokens
        self.variable = variable
        self.source = source
        self.i = 0

    def _peek(self) -> Optional[tuple]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> tuple:
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.i += 1
        return tok

    def _expect_op(self, symbol: str) -> None:
        tok = self._next()
        if tok[0] != "op" or tok[1] != symbol:
            raise ValueError(f"column {tok[2] + 1}: expected {symbol!r}, got {tok[1]!r}")

    def parse(self) -> tuple:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ValueError(f"column {tok[2] + 1}: trailing input {tok[1]!r}")
        return node

    def expr(self) -> tuple:
        node = self.term()
        while (tok := self._peek()) is not None and tok[0] == "op" and tok[1] in "+-":
            self._next()
            node = ("bin", tok[1], node, self.term())
        return node

    def term(self) -> tuple:
        node = self.factor()
        while (tok := self._peek()) is not None and tok[0] == "op" and tok[1] in "*/":
            self._next()
            node = ("bin", tok[1], node, self.factor())
        return node

    def factor(self) -> tuple:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            # unary minus binds looser than '^', so -x^2 means -(x^2)
            self._next()
            return ("neg", self.factor())
        node = self.base()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self._next()
            node = ("pow", node, self._exponent())
        return node

    def _exponent(self) -> float:
        tok = self._next()
        sign = 1.0
        if tok[0] == "op" and tok[1] == "-":
            sign = -1.0
            tok = self._next()
        if tok[0] != "num":
            raise ValueError(f"column {tok[2] + 1}: exponent must be a number")
        return sign * tok[1]

    def base(self) -> tuple:
        tok = self._next()
        if tok[0] == "num":
            return ("num", tok[1])
        if tok[0] == "name":
            name = tok[1]
            if name in FUNCTIONS:
                self._expect_op("(")
                inner = self.expr()
                self._expect_op(")")
                return ("fn", name, inner)
            if name == self.variable:
                return ("var",)
            raise ValueError(
                f"column {tok[2] + 1}: unknown name {name!r} "
                f"(this expression may only use {self.variable!r})"
            )
        if tok[1] == "(":
            inner = self.expr()
            self._expect_op(")")
            return inner
        raise ValueError(f"column {tok[2] + 1}: unexpected {tok[1]!r}")


def parse_expression(text: str, variable: str) -> Expression:
    """Parse a profile expression restricted to one variable name."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty expression")
    tokens = _tokenize(stripped)
    root = _Parser(tokens, variable, stripped).parse()
    return Expression(stripped, variable, root)

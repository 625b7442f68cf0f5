"""Tiny arithmetic grammar for coefficient and nonlinearity profiles.

expr   := term (('+' | '-') term)*
term   := factor (('*' | '/') factor)*
factor := '-' factor | base ('^' ['-'] number)?
base   := number | variable | fn '(' expr ')' | '(' expr ')'

A cut-down Python expression with '^' for '**': Python's parser reads it and a
node whitelist builds the tree, so x^(2) reads as x^2, x^(-2) as x^-2, and
integers with leading zeros (007) do not parse.  The alphabet is ASCII letters,
digits, space, tab and _ . + - * / ^ ( ).  The variable is fixed at parse time
('x' or 'u'); evaluation is total, overflow giving inf or nan silently.
"""

import ast
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["Expression", "parse_expression", "FUNCTIONS"]

FUNCTIONS = ("sin", "cos", "exp", "tanh", "abs", "sech")

_NUMBER = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?", re.ASCII)
_FOREIGN = re.compile(r"[^0-9A-Za-z_.+\-*/^() \t]|\*\*")
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# _eval takes one frame per tree level and a CLI solve calls it about ten frames
# deep; 200 levels (Python's own cap on nested parentheses) stay far below 1000.
_MAX_DEPTH = 200


@dataclass(frozen=True)
class Expression:
    """Parsed profile expression over one variable."""

    source: str
    variable: str
    root: tuple

    def evaluate(self, values) -> np.ndarray:
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.complexfloating):
            # no copy of a float64 input: the tree never writes to its variable
            arr = arr.astype(float, copy=False)
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


def parse_expression(text: str, variable: str) -> Expression:
    """Parse a profile expression restricted to one variable name."""
    source = text.strip()
    if not source:
        raise ValueError("empty expression")
    if foreign := _FOREIGN.search(source):
        raise ValueError(f"column {foreign.start() + 1}: unexpected {foreign.group()!r}")
    python = source.replace("^", "**")
    # the source column of each character of the Python text, and of its end
    columns = [i + 1 for i, ch in enumerate(source) for _ in range(1 + (ch == "^"))] + [len(source) + 1]

    def fail(node, what: str):
        raise ValueError(f"column {columns[node.col_offset]}: {what}")

    def walk(node, depth: int) -> tuple:
        if depth > _MAX_DEPTH:
            raise RecursionError  # reported as the parser's own
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return ("bin", _BINARY[type(node.op)], walk(node.left, depth + 1), walk(node.right, depth + 1))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, power = walk(node.left, depth + 1), walk(node.right, depth + 1)
            if power[0] == "neg" and power[1][0] == "num":
                return ("pow", base, -1.0 * power[1][1])
            if power[0] != "num":
                fail(node.right, "the exponent must be a number")
            return ("pow", base, power[1])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", walk(node.operand, depth + 1))
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(digits := python[node.col_offset : node.end_col_offset]):
            return ("num", float(digits))
        if isinstance(node, ast.Name):
            if node.id != variable:
                fail(node, f"unknown name {node.id!r} (this expression may only use {variable!r})")
            return ("var",)
        # '(sin)(x)' is no call: a call starts at its function's name
        if isinstance(node, ast.Call) and node.col_offset == node.func.col_offset and len(node.args) == 1:
            if isinstance(node.func, ast.Name) and node.func.id in FUNCTIONS and not node.keywords:
                return ("fn", node.func.id, walk(node.args[0], depth + 1))
        fail(node, "expected a decimal number" if isinstance(node, ast.Constant) else "not part of the grammar")

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning rejects, rather than prints
            root = walk(ast.parse(python, mode="eval").body, 1)
    except SyntaxError as err:
        offset = min(err.offset - 1, len(python)) if err.offset else len(python)  # no offset: the end
        raise ValueError(f"column {columns[offset]}: {err.msg}") from None
    except RecursionError:
        raise ValueError(f"expression nests deeper than {_MAX_DEPTH} levels") from None
    return Expression(source, variable, root)

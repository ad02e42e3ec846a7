"""Restricted arithmetic expressions compiled to numpy-vectorized callables.

Model documents describe intensities, running costs, intervention costs and
kernel atom positions as small expression strings over declared variables
(e.g. ``zeta[0]``).  Expressions are parsed with :mod:`ast`, checked against a
whitelist of node types and function names, and compiled once; evaluation
accepts scalars or numpy arrays for any variable.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ModelParseError

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "min": np.minimum,
    "max": np.maximum,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.Subscript,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.Mod,
    ast.USub,
    ast.UAdd,
)


def _check_node(node: ast.AST, variables: tuple[str, ...],
                where: str) -> tuple[set[str], set[tuple[str, int]]]:
    """Walk the tree, return the variable names actually used and the
    (name, index) pairs of the subscripts."""
    used: set[str] = set()
    subscripts: set[tuple[str, int]] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, _ALLOWED_NODES):
            raise ModelParseError(
                f"{where}: disallowed syntax {type(sub).__name__!r} in expression"
            )
        if isinstance(sub, ast.Call):
            if not isinstance(sub.func, ast.Name) or sub.func.id not in _FUNCTIONS:
                raise ModelParseError(f"{where}: unknown function call in expression")
            if sub.keywords:
                raise ModelParseError(f"{where}: keyword arguments not allowed")
        elif isinstance(sub, ast.Subscript):
            if not isinstance(sub.value, ast.Name) or sub.value.id not in variables:
                raise ModelParseError(f"{where}: only declared variables may be indexed")
            idx = sub.slice
            if not (isinstance(idx, ast.Constant) and isinstance(idx.value, int)):
                raise ModelParseError(f"{where}: subscripts must be integer literals")
            used.add(sub.value.id)
            subscripts.add((sub.value.id, idx.value))
        elif isinstance(sub, ast.Constant) and not isinstance(sub.value, (int, float)):
            raise ModelParseError(f"{where}: only numeric literals are allowed")
        elif isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            raise ModelParseError(f"{where}: assignment not allowed in expression")
        elif isinstance(sub, ast.Name):
            name = sub.id
            if name in variables:
                used.add(name)
            elif name not in _FUNCTIONS and name not in _CONSTANTS:
                raise ModelParseError(f"{where}: unknown name {name!r} in expression")
    return used, subscripts


@dataclass(frozen=True)
class CompiledExpr:
    """A validated expression; call with a dict holding the declared variables.

    Array-valued variables broadcast through numpy, so one compiled expression
    serves both point evaluation and whole-trajectory sweeps.  ``constant`` is
    the value of an expression that reads no variable, None otherwise;
    ``subscripts`` holds the (variable, index) pairs it reads.
    """

    source: str
    variables: tuple[str, ...]
    used: frozenset[str]
    subscripts: frozenset[tuple[str, int]]
    _code: Any = field(repr=False)
    constant: float | None = field(default=None, init=False)

    def __post_init__(self):
        if not self.used:
            object.__setattr__(self, "constant", float(self({})))

    def __call__(self, env: dict[str, Any]):
        scope = dict(_CONSTANTS)
        scope.update(env)
        return eval(self._code, {"__builtins__": {}, **_FUNCTIONS}, scope)


def compile_expr(source, variables: tuple[str, ...], where: str) -> CompiledExpr:
    """Compile an expression string (or bare number) over the given variables."""
    if isinstance(source, (int, float)):
        source = repr(float(source))
    if not isinstance(source, str):
        raise ModelParseError(f"{where}: expression must be a string or number")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ModelParseError(f"{where}: cannot parse expression: {exc.msg}") from None
    used, subscripts = _check_node(tree, variables, where)
    code = compile(tree, filename=f"<{where}>", mode="eval")
    try:
        expr = CompiledExpr(source=source, variables=variables, used=frozenset(used),
                            subscripts=frozenset(subscripts), _code=code)
    except (ArithmeticError, TypeError):
        raise ModelParseError(f"{where}: constant expression is not a real number") from None
    if expr.constant is not None and not math.isfinite(expr.constant):
        raise ModelParseError(f"{where}: expression evaluates to a non-finite constant")
    return expr

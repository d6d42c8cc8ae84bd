"""Coefficient-expression grammar: parsing, evaluation, formatting.

The catalogue stores every structure-constant coefficient as a string over
Q(i) with named parameters.  The text is read by Python's own parser, with
Python's precedence and left associativity, and may use only these nodes:

    e1 + e2    e1 - e2    e1 * e2    e1 / e2    -e    (e)
    integer    i    param-name

so -a*b is (-a)*b and alpha/2/3 is (alpha/2)/3.  Names are ASCII
identifiers; `i` is the imaginary unit and every other name must be one
of the declared parameters.  Python keywords such as `lambda` are
ordinary names here.

Scalar literals (witness files, CLI arguments) declare no parameters
(params None) and get one extra node, sqrt(q) for a rational constant q,
which may land in a quadratic extension of Q(i).

Parsing folds every constant subexpression into one ("num", scalar) leaf,
so a literal parses to a single leaf; a division by a constant zero, a
constant that mixes two different radicals and one too long to print are
syntax errors.  The other nodes are ("param", name), ("neg", e) and
(op, e1, e2) for op in add, sub, mul, div.
"""

from __future__ import annotations

import ast as pyast
import re
from fractions import Fraction

from .scalars import (
    I,
    FieldMismatch,
    GaussianRational,
    QuadExtElem,
    adjoin_sqrt,
    mixes_radicals,
)


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text."""


_BAD_CHAR_RE = re.compile(r"[^0-9A-Za-z_()+\-*/\s]")
# every name gets a leading "_": no keyword starts with one, and 1e3, 0x10,
# 1_000 and 2i become Python syntax errors
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_BINOPS = {pyast.Add: "add", pyast.Sub: "sub", pyast.Mult: "mul",
           pyast.Div: "div"}


def _walk(node, params):
    """The tuple AST of an admitted Python expression node, constants
    folded; ExprSyntaxError on any other node."""
    if isinstance(node, pyast.BinOp) and type(node.op) in _BINOPS:
        kind = _BINOPS[type(node.op)]
        tree = (kind, _walk(node.left, params), _walk(node.right, params))
        left, right = tree[1], tree[2]
        if kind == "div" and right[0] == "num" and right[1].is_zero():
            raise ExprSyntaxError("division by zero")
        if left[0] != "num" or right[0] != "num":
            return tree
        try:
            value = evaluate(tree)
            format_scalar(value)  # within CPython's int-string limit
        except FieldMismatch:
            raise ExprSyntaxError("mixed radicals in a constant") from None
        except ValueError as ex:  # as the parser words it for a literal
            raise ExprSyntaxError(str(ex).split(";")[0]) from None
        return ("num", value)
    if isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.USub):
        a = _walk(node.operand, params)
        return ("num", -a[1]) if a[0] == "num" else ("neg", a)
    if isinstance(node, pyast.Constant) and type(node.value) is int:
        return ("num", GaussianRational(node.value))
    if isinstance(node, pyast.Name):
        name = node.id[1:]
        if name == "i":
            return ("num", I)
        if name == "sqrt":
            raise ExprSyntaxError("sqrt must be called on one argument")
        if params is None:
            raise ExprSyntaxError(
                f"parameter {name!r} not allowed in a scalar literal")
        if name not in params:
            raise ExprSyntaxError(f"undeclared parameter {name!r}")
        return ("param", name)
    if (isinstance(node, pyast.Call) and isinstance(node.func, pyast.Name)
            and node.func.id == "_sqrt"):
        if params is not None:
            raise ExprSyntaxError("sqrt is not allowed in this context")
        if len(node.args) != 1:  # no commas: only sqrt() gets here
            raise ExprSyntaxError("sqrt must be called on one argument")
        arg = _walk(node.args[0], params)[1]  # a literal folds to one leaf
        if not (isinstance(arg, GaussianRational) and arg.is_rational()):
            raise ExprSyntaxError("sqrt argument must be a rational constant")
        return ("num", adjoin_sqrt(arg)[0])
    # unparse shows the node as written, less the "_" of each name
    raise ExprSyntaxError("unsupported syntax %r"
                          % re.sub(r"\b_", "", pyast.unparse(node)))


def parse_expr(text: str, params):
    """Parse expression text into an AST tuple tree.

    With a collection of parameter names it is the catalogue grammar over
    those names (no sqrt); with None it is the scalar-literal grammar
    (sqrt, no parameters).
    """
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ExprSyntaxError(
            f"unexpected character {bad.group()!r} at position {bad.start()}")
    source = _NAME_RE.sub(lambda m: "_" + m[0], " ".join(text.split()))
    if not source:
        raise ExprSyntaxError("empty expression")
    try:
        return _walk(pyast.parse(source, mode="eval").body, params)
    except SyntaxError as ex:  # also "too many nested parentheses"
        # Python's advice after a ";" (e.g. an 0o prefix) does not apply
        raise ExprSyntaxError(ex.msg.split(";")[0]) from None
    except (RecursionError, MemoryError):  # MemoryError: parser stack
        raise ExprSyntaxError("expression nested too deeply") from None


def evaluate(ast, env: dict[str, GaussianRational] | None = None):
    """Evaluate an AST at the parameter values `env`.

    Division by an expression evaluating to zero raises ZeroDivisionError,
    which catalogue.instantiate reports as a catalogue error.
    """
    env = env or {}
    kind = ast[0]
    if kind == "num":
        return ast[1]
    if kind == "param":
        try:
            return env[ast[1]]
        except KeyError:
            raise KeyError(f"no value bound for parameter {ast[1]!r}") from None
    if kind == "neg":
        return -evaluate(ast[1], env)
    a = evaluate(ast[1], env)
    b = evaluate(ast[2], env)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    raise ValueError(f"unknown AST node {kind!r}")


def parse_scalar(text: str):
    """The value of a scalar literal (sqrt allowed, no parameters)."""
    return parse_expr(text, None)[1]


def parse_scalar_rows(rows):
    """Rows of scalar literals as rows of scalars, for one matrix: raises
    ExprSyntaxError when two entries need different radicals."""
    values = [[parse_scalar(t) for t in row] for row in rows]
    if mixes_radicals(v for row in values for v in row):
        raise ExprSyntaxError("mixed radicals in one matrix")
    return values


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _format_sum(a, b, unit, fmt, atomic) -> str:
    """a + b*unit as text, each part written by `fmt`: b = +/-1 is the
    bare unit, a zero part is left out, a part that is not `atomic` gets
    parentheses, and a minus sign takes the place of the plus."""
    if b == 0:
        return fmt(a)
    if b == 1:
        b_s = unit
    elif b == -1:
        b_s = "-" + unit
    else:
        b_s = (fmt(b) if atomic(b) else f"({fmt(b)})") + "*" + unit
    if a == 0:
        return b_s
    a_s = fmt(a) if atomic(a) else f"({fmt(a)})"
    return a_s + ("" if b_s[0] == "-" else "+") + b_s


def _format_gaussian(x: GaussianRational) -> str:
    return _format_sum(x.re, x.im, "i", _format_fraction, lambda f: True)


def format_scalar(x) -> str:
    """Literal text for a scalar: one printer writes both a + b*i and
    a + b*sqrt(d), with a non-rational generator d in parentheses, as in
    sqrt((i)).  It is the inverse of parse_scalar where the grammar can
    express the value (extension elements with a rational generator)."""
    if isinstance(x, Fraction):
        return _format_fraction(x)
    if isinstance(x, GaussianRational):
        return _format_gaussian(x)
    if isinstance(x, QuadExtElem):
        d = x.field.d
        d_s = _format_gaussian(d) if d.is_rational() else f"({_format_gaussian(d)})"
        return _format_sum(x.a, x.b, f"sqrt({d_s})", _format_gaussian,
                           lambda y: y.is_rational() or y.re == 0)
    return repr(x)

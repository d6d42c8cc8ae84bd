"""Coefficient-expression grammar: parsing, evaluation, formatting.

The catalogue stores every structure-constant coefficient as a string in a
small arithmetic grammar over Q(i) with named parameters:

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor | '/' factor)*
    factor   := '-' factor | '(' expr ')' | rational | 'i' | param-name
    rational := int ('/' posint)?

Scalar literals (witness files, CLI arguments) use the same grammar with
parameters disallowed and one extra atom, sqrt(<rational>), which may land
in a quadratic extension of Q(i).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import (
    GaussianRational,
    QuadExtElem,
    QuadExtField,
    gaussian_sqrt,
)


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text; carries the offending position."""


_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[()+\-*/])")

_RESERVED = {"i", "sqrt"}


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprSyntaxError(f"unexpected character at position {pos}: {rest[:10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], literal: bool):
        self.tokens = tokens
        self.pos = 0
        self.literal = literal

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ExprSyntaxError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExprSyntaxError(f"trailing input: {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        tok = self.peek()
        if tok == "-":
            self.take()
            return ("neg", self.factor())
        if tok == "(":
            self.take()
            node = self.expr()
            self.expect(")")
            return node
        tok = self.take()
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/" and self._next_is_posint():
                self.take()
                den = int(self.take())
                if den == 0:
                    raise ExprSyntaxError("zero denominator in rational literal")
                return ("num", Fraction(num, den))
            return ("num", Fraction(num))
        if tok == "i":
            return ("i",)
        if tok == "sqrt":
            if not self.literal:
                raise ExprSyntaxError("sqrt is not allowed in this context")
            self.expect("(")
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            n = self.take()
            if not n.isdigit():
                raise ExprSyntaxError("sqrt argument must be a rational literal")
            val = Fraction(int(n))
            if self.peek() == "/":
                self.take()
                d = self.take()
                if not d.isdigit() or int(d) == 0:
                    raise ExprSyntaxError("bad denominator in sqrt argument")
                val /= int(d)
            self.expect(")")
            return ("sqrt", sign * val)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and tok not in _RESERVED:
            if self.literal:
                raise ExprSyntaxError(f"parameter {tok!r} not allowed in a scalar literal")
            return ("param", tok)
        raise ExprSyntaxError(f"unexpected token {tok!r}")

    def _next_is_posint(self):
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        return nxt is not None and nxt.isdigit()


def parse_expr(text: str, literal: bool = False):
    """Parse expression text into an AST tuple tree.

    The default is the catalogue grammar (parameters, no sqrt); with
    `literal` it is the scalar-literal grammar (sqrt, no parameters).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression")
    return _Parser(tokens, literal).parse()


def free_params(ast) -> set[str]:
    kind = ast[0]
    if kind == "param":
        return {ast[1]}
    if kind in ("add", "sub", "mul", "div"):
        return free_params(ast[1]) | free_params(ast[2])
    if kind == "neg":
        return free_params(ast[1])
    return set()


def evaluate(ast, env: dict[str, GaussianRational] | None = None):
    """Evaluate an AST over Q(i) (or a quadratic extension if sqrt demands).

    Division by an expression evaluating to zero raises ZeroDivisionError;
    the catalogue's constraint lists are required to make that unreachable.
    """
    env = env or {}
    kind = ast[0]
    if kind == "num":
        return GaussianRational(ast[1])
    if kind == "i":
        return GaussianRational(0, 1)
    if kind == "param":
        try:
            return env[ast[1]]
        except KeyError:
            raise KeyError(f"no value bound for parameter {ast[1]!r}") from None
    if kind == "neg":
        return -evaluate(ast[1], env)
    if kind == "sqrt":
        arg = GaussianRational(ast[1])
        root = gaussian_sqrt(arg)
        if root is not None:
            return root
        return QuadExtField(arg).sqrt_d
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
    """Parse a parameter-free scalar literal (sqrt allowed)."""
    return evaluate(parse_expr(text, literal=True))


def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _format_gaussian(x: GaussianRational) -> str:
    re_part, im_part = x.re, x.im
    if im_part == 0:
        return _format_fraction(re_part)
    if im_part == 1:
        im_s = "i"
    elif im_part == -1:
        im_s = "-i"
    else:
        im_s = f"{_format_fraction(im_part)}*i"
    if re_part == 0:
        return im_s
    joiner = "+" if not im_s.startswith("-") else ""
    return f"{_format_fraction(re_part)}{joiner}{im_s}"


def format_scalar(x) -> str:
    """Literal text for a scalar; inverse of parse_scalar where the grammar
    can express the value (QuadExt elements with a rational generator)."""
    if isinstance(x, Fraction):
        return _format_fraction(x)
    if isinstance(x, GaussianRational):
        return _format_gaussian(x)
    if isinstance(x, QuadExtElem):
        d = x.field.d
        d_s = _format_fraction(d.re) if d.is_rational() else f"({_format_gaussian(d)})"
        root = f"sqrt({d_s})"
        if x.b.is_zero():
            return _format_gaussian(x.a)
        b_s = _format_gaussian(x.b)
        if x.b == 1:
            b_root = root
        elif x.b == -1:
            b_root = f"-{root}"
        elif x.b.is_rational() or x.b.re == 0:
            b_root = f"{b_s}*{root}"
        else:
            b_root = f"({b_s})*{root}"
        if x.a.is_zero():
            return b_root
        a_s = _format_gaussian(x.a)
        a_wrapped = a_s if (x.a.is_rational() or x.a.re == 0) else f"({a_s})"
        joiner = "+" if not b_root.startswith("-") else ""
        return f"{a_wrapped}{joiner}{b_root}"
    return repr(x)

"""Scalar-expression grammar: parse, evaluate, format."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibkit.exprs import (
    ExprSyntaxError,
    evaluate,
    format_scalar,
    parse_expr,
    parse_scalar,
)
from leibkit.scalars import I, GaussianRational, QuadExtElem


def test_parse_scalar_literals():
    assert parse_scalar("1/2") == GaussianRational(Fraction(1, 2))
    assert parse_scalar("i") == GaussianRational(0, 1)
    assert parse_scalar("-i") == GaussianRational(0, -1)
    assert parse_scalar("3-2*i") == GaussianRational(3, -2)
    assert parse_scalar("(1+i)*(1+i)") == GaussianRational(0, 2)
    assert parse_scalar("-3/4+i/2") == GaussianRational(Fraction(-3, 4), Fraction(1, 2))
    assert parse_scalar("2*i*i") == GaussianRational(-2)


def test_parse_scalar_sqrt():
    r = parse_scalar("sqrt(2)/2")
    assert isinstance(r, QuadExtElem)
    assert (r * 2) * (r * 2) == r.field.embed(2)
    assert parse_scalar("sqrt(9/4)") == GaussianRational(Fraction(3, 2))
    assert parse_scalar("sqrt(-4)") == GaussianRational(0, 2)
    with pytest.raises(ExprSyntaxError):
        parse_scalar("sqrt(alpha)")  # radicands are rational constants only
    assert parse_scalar("sqrt((2))") == parse_scalar("sqrt(2)")
    assert parse_scalar("sqrt(1/2/3)") == parse_scalar("sqrt(1/6)")
    with pytest.raises(ExprSyntaxError):
        parse_scalar("sqrt(2)*sqrt(3)")  # one radical per constant
    for text in ("sqrt", "sqrt()"):
        with pytest.raises(ExprSyntaxError, match="called on one argument"):
            parse_scalar(text)
    with pytest.raises(ExprSyntaxError, match="must be a rational constant"):
        parse_scalar("sqrt(i)")


def test_parse_expr_with_params():
    ast = parse_expr("alpha*(1-beta)", ("alpha", "beta"))
    assert ast == ("mul", ("param", "alpha"),
                   ("sub", ("num", 1), ("param", "beta")))
    v = evaluate(ast, {"alpha": GaussianRational(2), "beta": GaussianRational(3)})
    assert v == GaussianRational(-4)
    with pytest.raises(KeyError):
        evaluate(ast, {"alpha": GaussianRational(2)})
    # constant subexpressions fold into one leaf at parse time
    assert parse_expr("alpha*(1-3)/4", ("alpha",)) == (
        "div", ("mul", ("param", "alpha"), ("num", -2)), ("num", 4))


def test_parse_scalar_rejects_params():
    with pytest.raises(ExprSyntaxError):
        parse_scalar("alpha")


def test_undeclared_names_rejected():
    # every name other than i must be declared, keywords included
    for text, params in (("beta", ("alpha",)), ("alpha*beta", ("alpha",)),
                         ("1/(2-gamma)", ("alpha", "beta")),
                         ("lambda*2", ("alpha",)), ("alpha", ())):
        with pytest.raises(ExprSyntaxError, match="undeclared"):
            parse_expr(text, params)


def test_sqrt_gated():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sqrt(2)", ("alpha",))  # declared names, no radicals
    with pytest.raises(ExprSyntaxError):
        parse_expr("sqrt(2)", ())
    assert parse_expr("sqrt(2)", None) == ("num", parse_scalar("sqrt(2)"))
    with pytest.raises(ExprSyntaxError):
        parse_expr("alpha", None)  # literals have no parameters


def test_syntax_errors():
    for bad in ("", "1+", "(1+2", "1**2", "2 @ 3", "1..5", ")(",
                "0x10", "1_000", "1e3", "2i", "1 # c", "007",
                "(" * 201 + "1" + ")" * 201,
                # folds to a constant past CPython's int-string limit
                "%s*%s" % ("3" * 2500, "3" * 2500)):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad, ())


def test_division_by_zero():
    # a constant zero divisor is a grammar error, caught at parse time
    for bad in ("1/0", "1/(1-1)", "alpha/(2-2)"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad, ("alpha",))
    ast = parse_expr("1/alpha", ("alpha",))
    with pytest.raises(ZeroDivisionError):
        evaluate(ast, {"alpha": GaussianRational(0)})


def test_format_scalar_roundtrip():
    rng = random.Random(77)
    for _ in range(40):
        g = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        assert parse_scalar(format_scalar(g)) == g
    assert format_scalar(GaussianRational(0)) == "0"
    assert format_scalar(GaussianRational(0, 1)) == "i"
    for (re, im), text in (((Fraction(1, 2), -1), "1/2-i"),
                           ((0, Fraction(-3, 4)), "-3/4*i"),
                           ((Fraction(5, 6), Fraction(1, 4)), "5/6+1/4*i"),
                           ((Fraction(-4, 6), 0), "-2/3")):
        assert format_scalar(GaussianRational(re, im)) == text


def test_left_associative_division():
    assert parse_scalar("(4)/2/2") == 1
    alpha = {"alpha": GaussianRational(6)}
    assert evaluate(parse_expr("alpha/2/3", ("alpha",)), alpha) == 1
    assert parse_scalar("2*i/2/2") == I / 2


def test_keyword_parameter_name():
    ast = parse_expr("lambda*2", ("lambda",))
    assert ast == ("mul", ("param", "lambda"), ("num", 2))
    assert evaluate(ast, {"lambda": GaussianRational(3)}) == 6


# -- property: the parser agrees with a direct evaluation over Q(i)

PARAMS = ("alpha", "lambda")
BINARY = {"+": (1, lambda a, b: a + b), "-": (1, lambda a, b: a - b),
          "*": (2, lambda a, b: a * b), "/": (2, lambda a, b: a / b)}

ints = st.integers(0, 9).map(lambda n: ("int", n))


def chains(sub):
    """Left-deep runs such as alpha/2/3, where associativity matters."""
    def fold(first, rest):
        return functools.reduce(lambda acc, step: (step[0], acc, step[1]),
                                rest, first)
    step = st.tuples(st.sampled_from(sorted(BINARY)), ints | sub)
    return st.builds(fold, sub, st.lists(step, min_size=1, max_size=3))


trees = st.recursive(
    ints | st.sampled_from([("i",)] + [("param", p) for p in PARAMS]),
    lambda sub: chains(sub) | sub.map(lambda t: ("neg", t)),
    max_leaves=12)

small = st.builds(GaussianRational, st.integers(-4, 4), st.integers(-4, 4))


def render(tree):
    """(text, precedence) with the fewest parentheses that Python's
    precedence and left associativity allow."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1]), 4
    if kind in ("i", "param"):
        return tree[-1], 4
    if kind == "neg":
        text, prec = render(tree[1])
        return "-" + (text if prec >= 3 else "(%s)" % text), 3
    prec = BINARY[kind][0]
    (left, lp), (right, rp) = render(tree[1]), render(tree[2])
    if lp < prec:
        left = "(%s)" % left
    if rp <= prec:
        right = "(%s)" % right
    return "%s%s%s" % (left, kind, right), prec


def direct(tree, env):
    kind = tree[0]
    if kind == "int":
        return GaussianRational(tree[1])
    if kind == "i":
        return I
    if kind == "param":
        return env[tree[1]]
    if kind == "neg":
        return -direct(tree[1], env)
    return BINARY[kind][1](direct(tree[1], env), direct(tree[2], env))


@settings(max_examples=500, deadline=None)
@given(trees, small, small)
def test_parse_matches_direct_evaluation(tree, a, b):
    env = dict(zip(PARAMS, (a, b)))
    try:
        want = direct(tree, env)
    except ZeroDivisionError:
        assume(False)
    text, _ = render(tree)
    assert evaluate(parse_expr(text, PARAMS), env) == want, text

"""Scalar-expression grammar: parse, evaluate, format."""

import random
from fractions import Fraction

import pytest

from leibkit.exprs import (
    ExprSyntaxError,
    evaluate,
    format_scalar,
    free_params,
    parse_expr,
    parse_scalar,
)
from leibkit.scalars import GaussianRational, QuadExtElem


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
        parse_scalar("sqrt(alpha)")  # radicands are rational literals only


def test_parse_expr_with_params():
    ast = parse_expr("alpha*(1-beta)")
    assert free_params(ast) == {"alpha", "beta"}
    v = evaluate(ast, {"alpha": GaussianRational(2), "beta": GaussianRational(3)})
    assert v == GaussianRational(-4)
    with pytest.raises(KeyError):
        evaluate(ast, {"alpha": GaussianRational(2)})


def test_parse_scalar_rejects_params():
    with pytest.raises(ExprSyntaxError):
        parse_scalar("alpha")


def test_sqrt_gated():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sqrt(2)")  # default grammar has no radicals
    parse_expr("sqrt(2)", allow_sqrt=True)


def test_syntax_errors():
    for bad in ("", "1+", "(1+2", "1**2", "2 @ 3", "1..5", ")("):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)


def test_division_by_zero():
    # a zero denominator in a literal is a grammar error, caught at parse time
    with pytest.raises(ExprSyntaxError):
        parse_scalar("1/0")
    ast = parse_expr("1/alpha")
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

"""The affine expressions that records are written in: integers, names,
unary and binary + and -, and min(...), in Python syntax."""

import ast
import dataclasses

import pytest

from qrr.identities import REGISTRY
from qrr.identities.framework import (
    _AFFINE_GLOBALS,
    eval_affine,
    parse_affine,
    parse_affine_row,
)

ENV = {"l": 3, "m": 5, "n": 2, "u": 7, "v": 4, "k": 1}


@pytest.mark.parametrize("expr,value", [
    ("l+m+n-k+1", 10),
    ("-n", -2),
    ("+l-m", -2),
    ("- -u", 7),
    ("m", 5),
    ("0", 0),
    ("12", 12),
    ("-min(l,m,n,u,v)-1", -3),
    ("min(l, min(m-k, u), v+k)", 3),
    ("min(n)", 2),
    ("l-(m-n)", 0),
])
def test_accepted_forms(expr, value):
    assert eval_affine(expr, ENV) == value


@pytest.mark.parametrize("expr", [
    "2*k", "k**2", "1.5", "'a'", "max(k)", "min()", "min(k, key=abs)",
    "l.real", "__import__('os')", "l+", "True", "min(*k)", "(k := 1)",
    "k if l else m", "[k]", "", "min+1", "__builtins__", "min(min)",
])
def test_refused_forms(expr):
    with pytest.raises(ValueError, match="affine expression"):
        parse_affine(expr)


def test_compiled_expression_is_cached():
    assert parse_affine("l+m-k") is parse_affine("l+m-k")


def test_a_row_evaluates_each_expression_and_refuses_what_one_would():
    exprs = ("l+m+n-k+1", "-min(l,m,n,u,v)-1", "m", "- -u")
    assert (eval(parse_affine_row(exprs), _AFFINE_GLOBALS, ENV)
            == tuple(eval_affine(s, ENV) for s in exprs))
    for bad in ("2*k", "min+1", "l+"):
        with pytest.raises(ValueError, match="affine expression"):
            parse_affine_row(("l", bad))


def _expressions(spec):
    """Every affine string in a sum or prefactor record."""
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        values = value if isinstance(value, tuple) else (value,)
        yield from (s for s in values if isinstance(s, str) and s != "*")


@pytest.mark.parametrize("ident", sorted(REGISTRY))
def test_registry_expressions_compile_and_name_only_parameters(ident):
    rec = REGISTRY[ident]
    allowed = {ps.name for ps in rec.params} | {"k", "min"}
    count = 0
    for side in (rec.lhs, rec.rhs):
        for spec in (side.sum, side.pre):
            if spec is None:
                continue
            for s in _expressions(spec):
                parse_affine(s)
                names = {n.id for n in ast.walk(ast.parse(s, mode="eval"))
                         if isinstance(n, ast.Name)}
                assert names <= allowed, (ident, s, names - allowed)
                count += 1
    assert count > 0

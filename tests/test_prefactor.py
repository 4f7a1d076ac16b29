"""The engine's prefactor path against an independent dense evaluation.

``_apply_prefactor`` cancels the infinite products of a side's prefactor
inside one PochProduct and applies the surviving binomials to the summed
side in place.  Here the same prefactor is expanded by the dense oracle
(every infinite product cut at the window, multiplied out by convolution,
the denominator inverted as a power series), multiplied by the summed side,
and compared coefficient for coefficient.
"""

import dataclasses
from functools import lru_cache
from itertools import product

import pytest

from dense_oracle import as_dict, convolve, expand
from qrr.identities import REGISTRY, get_record
from qrr.identities.framework import EvalCtx, Side, eval_affine, eval_side_value

PREFACTOR_SIDES = [(ident, side) for ident, rec in sorted(REGISTRY.items())
                   for side in ("lhs", "rhs")
                   if getattr(rec, side).pre is not None]


@lru_cache(maxsize=None)
def _dense_unit(inf_num, inf_den, qn_den, bin_den, trunc):
    """The prefactor without its monomial: coefficients of q^0..q^trunc."""
    def infinite(inf):
        return [m for a in inf for m in range(a, trunc + 1)]

    den = (infinite(inf_den) + [m for n in qn_den for m in range(1, n + 1)]
           + list(bin_den))
    unit = expand(1, 0, infinite(inf_num), den, trunc)
    return [unit.get(e, 0) for e in range(trunc + 1)]


def dense_side(rec, side_name, env, trunc, mono_delta=0):
    """{exponent: coefficient} through q^trunc: the engine's sum without its
    prefactor, times the prefactor expanded densely."""
    side = getattr(rec, side_name)
    pre = side.pre

    def vals(exprs):
        return tuple(eval_affine(s, env) for s in exprs)

    mono = eval_affine(pre.mono, env) + mono_delta
    bare = dataclasses.replace(rec, **{side_name: Side(sum=side.sum)})
    off, buf = eval_side_value(bare, side_name, env, EvalCtx(trunc - mono)) \
        if side.sum is not None else (0, [1])
    width = trunc - mono - off
    unit = _dense_unit(vals(pre.inf_num), vals(pre.inf_den),
                       vals(pre.qn_den), vals(pre.bin_den), width)
    return as_dict((mono + off, convolve(buf, unit, width + 1)), trunc)


def _corners(rec):
    lows = {ps.name: ps.low for ps in rec.params}
    axes = {name: (lo, hi) for name, lo, hi in rec.default_grid}
    names = [ps.name for ps in rec.params]
    for combo in product(*(sorted(set(axes.get(n, (lows[n], lows[n])))) for n in names)):
        yield dict(zip(names, combo))


def test_every_prefactor_record_is_covered():
    idents = {ident for ident, _ in PREFACTOR_SIDES}
    assert len(idents) >= 20
    assert {"ABCDE1", "ABCDE6_4", "BCDE1", "COR52A", "EULERN1", "LMNRS5"} <= idents


@pytest.mark.parametrize("ident,side", PREFACTOR_SIDES)
def test_prefactor_matches_dense_product(ident, side):
    rec = get_record(ident)
    for trunc in (40, 160):
        for env in _corners(rec):
            got = as_dict(eval_side_value(rec, side, env, EvalCtx(trunc)), trunc)
            assert got == dense_side(rec, side, env, trunc), (ident, side, env, trunc)


@pytest.mark.parametrize("trunc", [40, 160])
def test_mutated_monomial_matches_dense_product(trunc):
    rec = get_record("ABCDE6_4")
    env = {"n": 2, "l": 1, "m": 2, "u": 0, "v": 1}
    ctx = EvalCtx(trunc, mutations={"rhs.pre.mono[v]": ("const", -2)})
    got = as_dict(eval_side_value(rec, "rhs", env, ctx), trunc)
    want = dense_side(rec, "rhs", env, trunc, mono_delta=-2)
    assert min(want) == -1 and max(want) == trunc
    assert got == want


def test_negative_monomial_keeps_top_coefficients():
    # q^(n-2) times the prefactor: the sum must be rendered through q^(T+2)
    # or the top two coefficients of the side come back as 0
    rec = get_record("ABCDE6_3")
    env = {name: 1 for name in "nlmuv"}
    values = {}
    for trunc in (20, 25):
        ctx = EvalCtx(trunc, mutations={"rhs.pre.mono[n]": ("const", -2)})
        values[trunc] = as_dict(eval_side_value(rec, "rhs", env, ctx), 20)
    assert values[20][20] == -265
    assert values[20] == values[25]

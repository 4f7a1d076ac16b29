"""The engine's prefactor path against an independent dense evaluation.

``framework._prefactor`` cancels the infinite products of a side's
prefactor inside one PochProduct, and the side's term chain starts from it,
so that every term carries the prefactor.  Here the same prefactor is
expanded by the dense oracle (every infinite product cut at the window,
multiplied out by convolution, the denominator inverted as a power series),
multiplied by the summed side, and compared coefficient for coefficient.
"""

import dataclasses
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

from dense_oracle import as_dict, convolve, expand
from qrr import pochhammer
from qrr.identities import REGISTRY, engine, framework, get_record
from qrr.identities.framework import (
    Axis,
    EngineError,
    EvalCtx,
    IdentityRecord,
    Prefactor,
    Side,
    Sum,
    eval_affine,
    eval_side_value,
)
from qrr.pochhammer import PoleError

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


def dense_side(rec, side_name, env, trunc, shifts=None):
    """{exponent: coefficient} through q^trunc: the engine's sum without its
    prefactor, times the prefactor expanded densely.  ``shifts`` maps
    prefactor site names to a constant added to their values, as a
    mutation of such a site does."""
    side = getattr(rec, side_name)
    pre = side.pre
    shifts = shifts or {}

    def value(kind, s):
        return eval_affine(s, env) + shifts.get(f"{side_name}.pre.{kind}[{s}]", 0)

    def vals(exprs, kind):
        return tuple(value(kind, s) for s in exprs)

    mono = value("mono", pre.mono)
    bare = dataclasses.replace(rec, **{side_name: Side(sum=side.sum)})
    off, buf = eval_side_value(bare, side_name, env, trunc - mono) \
        if side.sum is not None else (0, [1])
    width = trunc - mono - off
    unit = _dense_unit(vals(pre.inf_num, "infnum"), vals(pre.inf_den, "infden"),
                       vals(pre.qn_den, "qnden"), vals(pre.bin_den, "binden"), width)
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
            got = as_dict(eval_side_value(rec, side, env, trunc), trunc)
            assert got == dense_side(rec, side, env, trunc), (ident, side, env, trunc)


@pytest.mark.parametrize("trunc", [40, 160])
def test_mutated_monomial_matches_dense_product(trunc):
    rec = get_record("ABCDE6_4")
    env = {"n": 2, "l": 1, "m": 2, "u": 0, "v": 1}
    ctx = EvalCtx({"rhs.pre.mono[v]": -2})
    got = as_dict(eval_side_value(rec, "rhs", env, trunc, ctx), trunc)
    want = dense_side(rec, "rhs", env, trunc, {"rhs.pre.mono[v]": -2})
    assert min(want) == -1 and max(want) == trunc
    assert got == want


def test_negative_monomial_keeps_top_coefficients():
    # q^(n-2) times the prefactor: the sum must be rendered through q^(T+2)
    # or the top two coefficients of the side come back as 0
    rec = get_record("ABCDE6_3")
    env = {name: 1 for name in "nlmuv"}
    values = {}
    for trunc in (20, 25):
        ctx = EvalCtx({"rhs.pre.mono[n]": -2})
        values[trunc] = as_dict(eval_side_value(rec, "rhs", env, trunc, ctx), 20)
    assert values[20][20] == -265
    assert values[20] == values[25]


# The EULER records' left sides carry the registry's only unpaired infinite
# product, 1/(q^b; q)_inf with b = 1: the engine divides by (q; q)_inf and
# multiplies by (q; q)_(b-1).  Moving b covers that rewrite with a finite
# part, on both sides of the top of the buffer (b = T is the last b that
# reaches it), against the dense oracle's cut product.
EULER_SITE = "lhs.pre.infden[1]"


@pytest.mark.parametrize("ident", ["EULERMN1", "EULERN1"])
@pytest.mark.parametrize("times_t, plus", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 40)],
                         ids=["1", "2", "T-1", "T", "T+40"])
def test_moved_euler_denominator_matches_dense_product(ident, times_t, plus):
    rec = get_record(ident)
    for trunc in (40, 160):
        d = times_t * trunc + plus
        ctx = EvalCtx({EULER_SITE: d})
        for env in _corners(rec):
            got = as_dict(eval_side_value(rec, "lhs", env, trunc, ctx), trunc)
            assert got == dense_side(rec, "lhs", env, trunc, {EULER_SITE: d}), (env, trunc, d)


@pytest.mark.parametrize("ident", ["EULERMN1", "EULERN1"])
def test_euler_denominator_at_q0_is_a_pole(ident):
    rec = get_record(ident)
    env = {ps.name: 2 for ps in rec.params}
    with pytest.raises(PoleError):
        eval_side_value(rec, "lhs", env, 40, EvalCtx({EULER_SITE: -1}))


@pytest.mark.parametrize("at, wrong, first", [
    (0, (2, 2, 1), 1),          # q^1 read as q^2
    (1, (5, 8, 0), 7),          # q^7 read as q^8
    (2, (12, 15, 0), 12),       # q^12 and q^15 with the sign of q^5 and q^7
    (9, (145, 155, 1), 145),    # q^145 and q^155 with the sign of q^117 and q^126
])
def test_a_wrong_pentagonal_term_is_a_mismatch(at, wrong, first, monkeypatch):
    # (k(3k-1)/2, k(3k+1)/2, k odd) at index k - 1 replaced by ``wrong``
    honest = pochhammer._pentagonal_pairs

    def pairs(reach):
        out = honest(reach)
        if at < len(out):
            out[at] = wrong
        return out

    monkeypatch.setattr(pochhammer, "_pentagonal_pairs", pairs)
    rep = engine.verify("EULERMN1", {"m": 4, "n": 5}, 160)
    assert rep.verdict == "MISMATCH" and rep.mismatch_index == first


@pytest.mark.parametrize("ident, env", [("EULERMN1", {"m": 4, "n": 5}),
                                        ("EULERN1", {"n": 5})])
def test_unpaired_euler_product_is_one_division(ident, env, monkeypatch):
    # Kernel calls while the left side is evaluated at T=160: the Euler
    # division through framework's binding, the sum's binomial passes, the
    # prefactor's factors among them, through pochhammer's.  Cutting
    # 1/(q; q)_inf at the top once took 160 prefactor passes here, on top of
    # the sum's 19 (EULERMN1) and 13 (EULERN1).
    calls = Counter()

    def count(owner, name):
        kernel = getattr(owner, name)
        key = (owner.__name__.rsplit(".", 1)[-1], name)

        def counted(*args):
            calls[key] += 1
            return kernel(*args)
        monkeypatch.setattr(owner, name, counted)

    count(framework, "div_euler")
    for name in ("mul_binomial", "div_binomial"):
        count(pochhammer, name)
    eval_side_value(get_record(ident), "lhs", env, 160)
    assert calls.pop(("framework", "div_euler")) == 1
    assert not any(n for (owner, _), n in calls.items() if owner == "framework")
    assert 0 < sum(calls.values()) <= 30


# A side of negative valuation: q^(k^2 - 3k) / (q)_k over k = 0..3 reaches
# q^-2, so an unpaired 1/(q^b; q)_inf reaches q^T for every b <= T + 2.
_LAURENT = Sum(quad=(2, -6), den=("k",), support=("0", "3"))


def _record(lhs: Side) -> IdentityRecord:
    return IdentityRecord("PREFACTOR_RULES", lhs, Side(), "test-local",
                          (Axis("b", 0, 200),))


@pytest.mark.parametrize("trunc", [40, 160])
def test_unpaired_denominator_past_t_reaches_a_laurent_side(trunc):
    rec = _record(Side(sum=_LAURENT, pre=Prefactor(inf_den=("b",))))
    bare = as_dict(eval_side_value(_record(Side(sum=_LAURENT)), "lhs", {"b": 0}, trunc),
                   trunc)
    assert min(bare) == -2
    for b in (trunc + 1, trunc + 2):
        got = as_dict(eval_side_value(rec, "lhs", {"b": b}, trunc), trunc)
        assert got == dense_side(rec, "lhs", {"b": b}, trunc), (trunc, b)
        assert got != bare, (trunc, b)


def test_unpaired_numerator_is_refused():
    rec = _record(Side(sum=_LAURENT, pre=Prefactor(inf_num=("b",))))
    with pytest.raises(EngineError, match="^lhs: .*numerator"):
        eval_side_value(rec, "lhs", {"b": 3}, 40)


def test_pole_prefactor_over_no_sum_is_a_pole():
    rec = _record(Side(pre=Prefactor(bin_den=("b",))))
    assert eval_side_value(rec, "lhs", {"b": 1}, 40) == (0, [0] * 41)
    with pytest.raises(PoleError):
        eval_side_value(rec, "lhs", {"b": 0}, 40)

"""The truncation-order resolver, the boundary to a plain power series,
and the ring laws of the dense oracle that the differential tests compare
the engine against."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dense_oracle import convolve, invert
from qrr import pochhammer
from qrr.bailey import chain_reproduce, symmetrized_identity, unit_pair_x1, verify_pair
from qrr.identities import engine, framework
from qrr.pochhammer import PochProduct, SeriesAccumulator, rr_product_side
from qrr.telescoping import verify_sk_tk, verify_telescoping
from qrr.series import NeedsLaurent, default_truncation, power_series


def test_known_products():
    assert convolve([1, 1], [1, 1], 7) == [1, 2, 1, 0, 0, 0, 0]
    assert invert([1, -1], 7) == [1] * 7


def test_invert_needs_unit_constant_term():
    with pytest.raises(ZeroDivisionError):
        invert([0, 1], 4)


def test_invert_with_fractional_lead():
    s = [Fraction(1, 2), 1]
    assert convolve(s, invert(s, 6), 6) == [1, 0, 0, 0, 0, 0]


def test_default_truncation_env(monkeypatch):
    monkeypatch.delenv("QRR_TRUNC", raising=False)
    assert default_truncation() == 60
    monkeypatch.setenv("QRR_TRUNC", "25")
    assert default_truncation() == 25
    for bad in ("-3", "0"):
        monkeypatch.setenv("QRR_TRUNC", bad)
        with pytest.raises(ValueError):
            default_truncation()


_PAIR = unit_pair_x1()
_FIVE = (1, 1, 1, 1, 1)

# every public call that takes a truncation order, with that order as T
TRUNC_CALLS = {
    "verify": lambda T: engine.verify("ANDREWS1", {"n": 3}, T),
    "verify_grid": lambda T: engine.verify_grid("ANDREWS1", {"n": (0, 2)}, T),
    "eval_side": lambda T: engine.eval_side("ANDREWS1", "lhs", {"n": 3}, T),
    "support_bounds": lambda T: engine.support_bounds("ANDREWS1", "lhs", {"n": 3}, T),
    "rr_limit_check": lambda T: engine.rr_limit_check("RR1", T),
    "liu_counterexample": lambda T: engine.liu_counterexample("LIU1", 2, T),
    "rr_product_side": lambda T: rr_product_side("mod5_14", T),
    "verify_pair": lambda T: verify_pair(_PAIR, n_max=2, trunc=T),
    "chain_reproduce": lambda T: chain_reproduce("ABCDE1", 1, trunc=T),
    "symmetrized_identity": lambda T: symmetrized_identity(_PAIR, 0, 0, 1, T),
    "verify_telescoping": lambda T: verify_telescoping(*_FIVE, T),
    "verify_sk_tk": lambda T: verify_sk_tk(*_FIVE, T),
}


# building a term or a sum, a coefficient pass, or an affine evaluation
WORK = [(PochProduct, "__init__"), (SeriesAccumulator, "__init__"),
        (pochhammer, "mul_binomial"), (pochhammer, "div_binomial"),
        (framework, "div_euler"),
        (framework, "eval_affine")]


@pytest.mark.parametrize("T", [-5, 0, 10001, True, 2.5])
@pytest.mark.parametrize("name", sorted(TRUNC_CALLS))
def test_every_call_refuses_a_bad_truncation_before_any_work(name, T, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} started work at T={T}")

    for owner, attr in WORK:
        monkeypatch.setattr(owner, attr, no_work)
    with pytest.raises(ValueError, match="truncation order"):
        TRUNC_CALLS[name](T)


def test_construction_pads_and_clips():
    # always the T+1 coefficients of q^0 .. q^T: padded when the buffer
    # stops short of q^T, clipped when it runs past
    assert power_series((0, [1, 2, 3]), 5) == [1, 2, 3, 0, 0, 0]
    assert power_series((0, [1, 2, 3, 4]), 2) == [1, 2, 3]
    assert power_series((1, [1, 2, 3]), 5) == [0, 1, 2, 3, 0, 0]
    assert power_series((2, [1, 2, 3]), 3) == [0, 0, 1, 2]


def test_power_series_strips_a_vanishing_laurent_head():
    assert power_series((-2, [0, 0, 1, 2]), 3) == [1, 2, 0, 0]
    assert power_series((2, [1, 2]), 4) == [0, 0, 1, 2, 0]
    assert power_series((-1, [0, 1, 2]), 4) == [1, 2, 0, 0, 0]
    assert power_series((-1, [0, 1, 2, 3, 4]), 2) == [1, 2, 3]
    with pytest.raises(NeedsLaurent, match=r"side retains q\^-1 with coefficient 3"):
        power_series((-2, [0, 3, 1]), 3, "side")


T = 10
coeff_lists = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=8)


def _mk(cs):
    return (cs + [0] * T)[:T + 1]


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws(xs, ys, zs):
    a, b, c = _mk(xs), _mk(ys), _mk(zs)
    n = T + 1
    assert convolve(a, b, n) == convolve(b, a, n)
    assert convolve(convolve(a, b, n), c, n) == convolve(a, convolve(b, c, n), n)
    assert convolve(a, _add(b, c), n) == _add(convolve(a, b, n), convolve(a, c, n))
    assert convolve(a, [1], n) == a


@given(coeff_lists)
def test_inverse_is_two_sided(xs):
    a = _mk(xs)
    if a[0] == 0:
        return
    inv = invert(a, T + 1)
    one = [1] + [0] * T
    assert convolve(a, inv, T + 1) == one
    assert convolve(inv, a, T + 1) == one

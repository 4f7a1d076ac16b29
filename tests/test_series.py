"""The read-only power-series result type, and the ring laws of the dense
oracle that the differential tests compare the engine against."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dense_oracle import convolve, invert
from qrr.series import (
    ExponentExceedsTruncation,
    NeedsLaurent,
    TruncatedSeries,
    default_truncation,
    power_series,
)


def test_construction_pads_and_clips():
    s = TruncatedSeries([1, 2, 3], 5)
    assert s.coeffs == (1, 2, 3, 0, 0, 0)
    assert s.trunc == 5
    t = TruncatedSeries([1, 2, 3, 4], 2)
    assert t.coeffs == (1, 2, 3)


def test_construction_infers_trunc_from_data():
    s = TruncatedSeries([5, 0, 7])
    assert s.trunc == 2
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_whole_fractions_normalise_to_int():
    s = TruncatedSeries([Fraction(4, 2), Fraction(1, 3)], 3)
    assert s.coeffs[0] == 2 and isinstance(s.coeffs[0], int)
    assert s.coeffs[1] == Fraction(1, 3)


def test_coeff_accessor_boundaries():
    s = TruncatedSeries([1, 2], 4)
    assert s.coeff(-3) == 0
    assert s.coeff(1) == 2
    with pytest.raises(ExponentExceedsTruncation):
        s.coeff(5)


def test_known_products():
    assert convolve([1, 1], [1, 1], 7) == [1, 2, 1, 0, 0, 0, 0]
    assert invert([1, -1], 7) == [1] * 7


def test_invert_needs_unit_constant_term():
    with pytest.raises(ZeroDivisionError):
        invert([0, 1], 4)


def test_invert_with_fractional_lead():
    s = [Fraction(1, 2), 1]
    assert convolve(s, invert(s, 6), 6) == [1, 0, 0, 0, 0, 0]


def test_comparison_is_alignment_based():
    a = TruncatedSeries([1, 2, 3], 2)
    b = TruncatedSeries([1, 2, 3, 9], 3)
    # compared through the shorter truncation only
    assert a == b
    assert a != TruncatedSeries([1, 5, 3], 2)


def test_default_truncation_env(monkeypatch):
    monkeypatch.delenv("QRR_TRUNC", raising=False)
    assert default_truncation() == 60
    monkeypatch.setenv("QRR_TRUNC", "25")
    assert default_truncation() == 25
    for bad in ("-3", "0"):
        monkeypatch.setenv("QRR_TRUNC", bad)
        with pytest.raises(ValueError):
            default_truncation()


def test_power_series_strips_a_vanishing_laurent_head():
    assert power_series((-2, [0, 0, 1, 2]), 3).coeffs == (1, 2, 0, 0)
    assert power_series((2, [1, 2]), 4).coeffs == (0, 0, 1, 2, 0)
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

"""Ring behaviour of the truncated power series type."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qrr.series import (
    ExponentExceedsTruncation,
    MonomialParam,
    NeedsLaurent,
    TruncatedSeries,
    ZeroConstantTerm,
    default_truncation,
    monomial,
    series_compare,
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


def test_zero_one_valuation():
    assert TruncatedSeries.zero(4).is_zero()
    assert TruncatedSeries.zero(4).valuation() is None
    one = TruncatedSeries.one(4)
    assert one.coeffs == (1, 0, 0, 0, 0)
    assert TruncatedSeries([0, 0, 3], 4).valuation() == 2


def test_known_products():
    one_plus_q = TruncatedSeries([1, 1], 6)
    assert (one_plus_q * one_plus_q).coeffs[:3] == (1, 2, 1)
    geom = TruncatedSeries([1, -1], 6).invert()
    assert geom.coeffs == (1,) * 7


def test_scalar_multiplication():
    s = TruncatedSeries([1, 2], 3)
    assert (2 * s).coeffs == (2, 4, 0, 0)
    assert (Fraction(1, 2) * s).coeffs == (Fraction(1, 2), 1, 0, 0)


def test_invert_needs_unit_constant_term():
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries([0, 1], 4).invert()


def test_invert_with_fractional_lead():
    s = TruncatedSeries([Fraction(1, 2), 1], 5)
    assert (s * s.invert()) == TruncatedSeries.one(5)


def test_shift_and_truncate():
    s = TruncatedSeries([1, 2, 3], 4)
    assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert s.shift(0) is s
    with pytest.raises(NeedsLaurent):
        s.shift(-1)
    assert s.truncate(2).coeffs == (1, 2, 3)
    with pytest.raises(ExponentExceedsTruncation):
        s.truncate(9)


def test_comparison_is_alignment_based():
    a = TruncatedSeries([1, 2, 3], 2)
    b = TruncatedSeries([1, 2, 3, 9], 3)
    # compared through the shorter truncation only
    assert a == b
    assert series_compare(a, b) is None
    c = TruncatedSeries([1, 5, 3], 2)
    assert series_compare(a, c) == (1, 2, 5)


def test_monomial_bounds():
    p = MonomialParam(Fraction(2, 3), 4)
    s = monomial(p, 6)
    assert s.coeff(4) == Fraction(2, 3) and s.coeff(3) == 0
    with pytest.raises(ExponentExceedsTruncation):
        monomial(MonomialParam.q_power(7), 6)
    with pytest.raises(NeedsLaurent):
        monomial(MonomialParam.q_power(-1), 6)


def test_monomial_param_algebra():
    a = MonomialParam(2, 3) * MonomialParam(Fraction(1, 2), 1)
    assert a == MonomialParam(1, 4)
    assert MonomialParam.q_power(2).shifted(3) == MonomialParam.q_power(5)


def test_default_truncation_env(monkeypatch):
    monkeypatch.delenv("QRR_TRUNC", raising=False)
    assert default_truncation() == 60
    monkeypatch.setenv("QRR_TRUNC", "25")
    assert default_truncation() == 25
    for bad in ("-3", "0"):
        monkeypatch.setenv("QRR_TRUNC", bad)
        with pytest.raises(ValueError):
            default_truncation()


coeff_lists = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=8)


def _mk(cs):
    return TruncatedSeries(cs, 10)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws(xs, ys, zs):
    a, b, c = _mk(xs), _mk(ys), _mk(zs)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + TruncatedSeries.zero(10) == a
    assert a * TruncatedSeries.one(10) == a
    assert a - a == TruncatedSeries.zero(10)


@given(coeff_lists)
def test_inverse_is_two_sided(xs):
    a = _mk(xs)
    if a.coeffs[0] == 0:
        return
    inv = a.invert()
    assert a * inv == TruncatedSeries.one(10)
    assert inv * a == TruncatedSeries.one(10)

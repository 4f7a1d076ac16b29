"""q-shifted factorials, their reciprocals, and the factored-product engine.

The three-state value (series / exactly zero / reciprocal of zero) is what
makes termwise evaluation of quotient sums safe at boundary parameters, so
the zero bookkeeping gets particular attention here.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qrr.pochhammer import (
    PochProduct,
    PoleError,
    NonPositiveExponent,
    SeriesAccumulator,
    inv_qn_coeffs,
    qn_coeffs,
    qpoch,
    qpoch_infinite,
    qpoch_multi,
    qpoch_reciprocal,
    rr_product_side,
    sum_terms,
    terms_to_series,
)
from qrr.series import MonomialParam, NeedsLaurent, TruncatedSeries

Q = MonomialParam.q_power


def test_qn_frozen():
    # (q;q)_3 = 1 - q - q^2 + q^4 + q^5 - q^6
    assert qn_coeffs(3, 8) == (1, -1, -1, 0, 1, 1, -1, 0, 0)
    assert qn_coeffs(0, 4) == (1, 0, 0, 0, 0)


def test_qn_memoised():
    assert qn_coeffs(7, 30) is qn_coeffs(7, 30)


def _direct_qn(n, trunc, inverse=False):
    buf = [1] + [0] * trunc
    for m in range(1, n + 1):
        if inverse:
            for i in range(m, trunc + 1):
                buf[i] += buf[i - m]
        else:
            for i in range(trunc, m - 1, -1):
                buf[i] -= buf[i - m]
    return tuple(buf)


def test_qn_tables_are_iterative():
    # one recursion level per index used to raise RecursionError here
    assert qn_coeffs(1500, 5) == _direct_qn(1500, 5) == (1, -1, -1, 0, 0, 1)
    assert inv_qn_coeffs(1500, 5) == _direct_qn(1500, 5, inverse=True)
    assert qn_coeffs(1500, 40) == _direct_qn(1500, 40)
    # rows below an already-cached one are served from the same table
    assert qn_coeffs(12, 40) == _direct_qn(12, 40)


def test_qpoch_positive_index():
    v = qpoch(Q(2), 2, 10)
    # (q^2;q)_2 = (1-q^2)(1-q^3)
    assert v.is_series
    assert v.series == terms_to_series([PochProduct().factor(2).factor(3)], 10)


def test_qpoch_zero_and_reciprocal_zero():
    assert qpoch(Q(0), 1, 10).is_zero
    assert qpoch(Q(0), 3, 10).is_zero
    assert qpoch_reciprocal(Q(0), 1, 10).is_reciprocal_zero
    # an exact zero materialises as the zero series; a blown-up one refuses
    assert qpoch(Q(0), 1, 10).series_or_zero(10).is_zero()
    with pytest.raises(PoleError):
        qpoch_reciprocal(Q(0), 1, 10).series_or_zero(10)
    # double reciprocal lands back on the exact zero
    assert qpoch_reciprocal(Q(0), 1, 10).reciprocal().is_zero


def test_qpoch_negative_index():
    # (q^5;q)_{-2} = 1/((1-q^3)(1-q^4))
    v = qpoch(Q(5), -2, 20)
    assert v.series == terms_to_series([PochProduct().dfactor(3).dfactor(4)], 20)
    # and it hits the zero denominator exactly when the offset is reached
    assert qpoch(Q(2), -2, 20).is_reciprocal_zero


def test_qpoch_laurent_guard():
    with pytest.raises(NeedsLaurent):
        qpoch(Q(-1), 1, 10)


def test_qpoch_constant_coefficient_parameter():
    # a = 2q: (a;q)_2 = (1-2q)(1-2q^2)
    v = qpoch(MonomialParam(2, 1), 2, 6)
    assert v.series.coeffs == (1, -2, -2, 4, 0, 0, 0)
    # c != 1 keeps q^0 factors honest: (2q^0;q)_1 = 1-2
    w = qpoch(MonomialParam(2, 0), 1, 6)
    assert w.series.coeffs[0] == -1


def test_index_splitting():
    # (a)_{m+n} = (a)_m (a q^m)_n, across sign combinations of the split
    for e in (1, 2, 5):
        a = Q(e)
        for m in range(0, 4):
            for n in range(-2, 4):
                if e + m - 1 < -n:          # would need Laurent factors
                    continue
                whole = qpoch(a, m + n, 30)
                left = qpoch(a, m, 30)
                right = qpoch(a.shifted(m), n, 30)
                if not (whole.is_series and left.is_series and right.is_series):
                    continue
                assert whole.series == left.series * right.series, (e, m, n)


def test_reflection_to_reciprocal():
    # (a q^n)_{-n} = 1/(a)_n
    for e in (1, 3):
        for n in range(0, 5):
            v = qpoch(Q(e + n), -n, 25)
            w = qpoch(Q(e), n, 25)
            assert (v.series * w.series) == TruncatedSeries.one(25)


def test_qpoch_multi_states():
    assert qpoch_multi((Q(0), Q(2)), 2, 15).is_zero
    assert qpoch_multi((Q(2), Q(3)), -2, 15).is_reciprocal_zero
    v = qpoch_multi((Q(1), Q(2)), 2, 15)
    assert v.is_series
    assert v.series == qpoch(Q(1), 2, 15).series * qpoch(Q(2), 2, 15).series


def test_qpoch_infinite_euler():
    # pentagonal numbers: 1 - q - q^2 + q^5 + q^7 - q^12 ...
    s = qpoch_infinite(Q(1), 12)
    assert list(s.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    with pytest.raises(NonPositiveExponent):
        qpoch_infinite(Q(0), 12)


def test_finite_matches_infinite_through_window():
    T = 24
    assert qpoch(Q(1), T, T).series == qpoch_infinite(Q(1), T)
    assert qpoch(Q(2), T, T).series == qpoch_infinite(Q(2), T)


def _partition_counts(residues, top):
    counts = [0] * (top + 1)
    counts[0] = 1
    for part in range(1, top + 1):
        if part % 5 in residues:
            for s in range(part, top + 1):
                counts[s] += counts[s - part]
    return counts


def test_rr_products_against_partition_oracle():
    assert list(rr_product_side("mod5_14", 30).coeffs) == _partition_counts((1, 4), 30)
    assert list(rr_product_side("mod5_23", 30).coeffs) == _partition_counts((2, 3), 30)
    with pytest.raises(ValueError):
        rr_product_side("mod7")


def test_rr_product_frozen_heads():
    assert list(rr_product_side("mod5_14", 12).coeffs) == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9]
    assert list(rr_product_side("mod5_23", 12).coeffs) == [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6]


# ---------------------------------------------------------------------------
# PochProduct
# ---------------------------------------------------------------------------


def test_negative_factor_flip():
    # (1-q^-2) = -q^-2 (1-q^2)
    t = PochProduct().factor(-2)
    assert t.coeff == -1 and t.shift == -2 and t.powers == {2: 1}
    off, coeffs = sum_terms([t], 6)
    assert off == -2
    assert coeffs[0] == -1 and coeffs[2] == 1


def test_zero_and_pole_states():
    assert PochProduct().factor(0).state == "zero"
    assert PochProduct().dfactor(0).state == "pole"
    # numerator and denominator zeros at the same exponent cancel
    assert PochProduct().factor(0).dfactor(0).state == "ok"


def test_poch_builder_matches_qpoch():
    for e in (1, 2, 4):
        for n in (0, 1, 3, -1, -2):
            t = PochProduct().poch(e, n)
            v = qpoch(Q(e), n, 20)
            if t.state != "ok":
                continue
            assert terms_to_series([t], 20) == v.series, (e, n)


def test_poch_negative_argument_uses_flip():
    # (q^-3; q)_2 = (1-q^-3)(1-q^-2) = q^-5 (1-q^3)(1-q^2)
    t = PochProduct().poch(-3, 2)
    assert t.coeff == 1 and t.shift == -5
    assert t.powers == {3: 1, 2: 1}


def test_mul_returns_new_object():
    a = PochProduct().factor(1)
    b = PochProduct().factor(2)
    c = a.mul(b)
    assert c is not a and a.powers == {1: 1}
    assert c.powers == {1: 1, 2: 1}
    # exponents with net power zero are dropped so keys stay canonical
    d = a.mul(PochProduct().dfactor(1))
    assert d.powers == {} and d.as_scalar() == (1, 0)


def test_invert_round_trip():
    t = PochProduct().scale(Fraction(3, 2)).q(4).factor(1, 2).dfactor(3)
    round_trip = t.mul(t.invert())
    assert round_trip.as_scalar() == (1, 0)
    assert PochProduct().scale(-1).invert().coeff == -1


def test_key_is_canonical():
    a = PochProduct().factor(2).factor(1)
    b = PochProduct().factor(1).factor(2)
    assert a.key() == b.key()


def test_render_unit_skips_out_of_window_factors():
    t = PochProduct().factor(3).factor(50)
    assert t.render_unit(10) == [1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(PoleError):
        PochProduct().dfactor(0).render_unit(5)


def test_accumulator_skips_zeros_and_flags_poles():
    acc = SeriesAccumulator(10)
    acc.add(PochProduct().poch(0, 2))         # exactly zero: contributes nothing
    off, coeffs = acc.value()
    assert not any(coeffs)
    with pytest.raises(PoleError):
        acc.add(PochProduct().dfactor(0))


def test_accumulator_laurent_offsets():
    acc = SeriesAccumulator(5)
    acc.add(PochProduct().q(-3))
    acc.add(PochProduct().q(2))
    off, coeffs = acc.value()
    assert off == -3
    assert coeffs[0] == 1 and coeffs[5] == 1
    with pytest.raises(NeedsLaurent):
        acc.series()                          # negative exponents survive


def test_accumulator_series_when_laurent_part_cancels():
    acc = SeriesAccumulator(8)
    acc.add(PochProduct().q(-1))
    acc.add(PochProduct().scale(-1).q(-1))
    acc.add(PochProduct().factor(2))
    s = acc.series()
    assert s.coeffs[:3] == (1, 0, -1)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_qn_index_additivity(m, n):
    # (q;q)_{m+n} = (q;q)_m * (q^{m+1};q)_n
    whole = terms_to_series([PochProduct().qn(m + n)], 20)
    split = terms_to_series([PochProduct().qn(m).poch(m + 1, n)], 20)
    assert whole == split

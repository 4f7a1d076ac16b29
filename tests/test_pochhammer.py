"""The factored-product term algebra and its O(T) rendering.

PochProduct keeps the vanishing factor (1 - q^0) as a multiplicity, which is
what makes termwise evaluation of quotient sums safe at boundary
parameters, so the zero bookkeeping gets particular attention here.  Values
are cross-checked against the dense oracle in ``dense_oracle.py``, which
shares no code with the engine.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from dense_oracle import as_dict, expand, poch
from per_term import render_unit
from qrr.pochhammer import (
    PochProduct,
    PoleError,
    SeriesAccumulator,
    div_binomial,
    div_euler,
    rr_product_side,
    sum_terms,
)
from qrr.series import NeedsLaurent, power_series


def _series(terms, trunc):
    """The coefficients of q^0 .. q^trunc of a sum of products."""
    return power_series(sum_terms(terms, trunc), trunc)


def _coeffs(term, trunc):
    """{exponent: coefficient} of one rendered product through q^trunc."""
    return as_dict(sum_terms([term], trunc), trunc)


def test_qn_frozen():
    # (q;q)_3 = 1 - q - q^2 + q^4 + q^5 - q^6
    assert sum_terms([PochProduct().qn(3)], 8) == (0, [1, -1, -1, 0, 1, 1, -1, 0, 0])
    assert sum_terms([PochProduct().qn(0)], 4) == (0, [1, 0, 0, 0, 0])


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


def _render(term, trunc):
    return tuple(sum_terms([term], trunc)[1])


def test_qn_tables_are_iterative():
    # (q;q)_n far past the window: factors beyond q^trunc are skipped, and
    # nothing recurses once per index
    assert _render(PochProduct().qn(1500), 5) == _direct_qn(1500, 5) == (1, -1, -1, 0, 0, 1)
    assert _render(PochProduct().dqn(1500), 5) == _direct_qn(1500, 5, inverse=True)
    assert _render(PochProduct().qn(1500), 40) == _direct_qn(1500, 40)
    assert _render(PochProduct().qn(12), 40) == _direct_qn(12, 40)


def test_qpoch_positive_index():
    # (q^2;q)_2 = (1-q^2)(1-q^3)
    t = PochProduct().poch(2, 2)
    assert t.state == "ok" and t.powers == {2: 1, 3: 1}
    assert _series([t], 10) == _series([PochProduct().factor(2).factor(3)], 10)
    assert _coeffs(t, 10) == expand(1, 0, [2, 3], [], 10) == {0: 1, 2: -1, 3: -1, 5: 1}


def test_qpoch_zero_and_reciprocal_zero():
    assert PochProduct().poch(0, 1).state == "zero"
    assert PochProduct().poch(0, 3).state == "zero"
    assert PochProduct().dpoch(0, 1).state == "pole"
    # an exact zero sums to the zero series; a pole refuses to render
    assert _series([PochProduct().poch(0, 1)], 10) == [0] * 11
    with pytest.raises(PoleError):
        sum_terms([PochProduct().dpoch(0, 1)], 10)
    # dividing the zero out and back in lands on the exact zero again
    assert PochProduct().poch(0, 1).dpoch(0, 1).poch(0, 1).state == "zero"


def test_qpoch_negative_index():
    # (q^5;q)_{-2} = 1/((1-q^3)(1-q^4))
    t = PochProduct().poch(5, -2)
    assert _series([t], 20) == _series([PochProduct().dfactor(3).dfactor(4)], 20)
    assert _coeffs(t, 20) == expand(1, 0, [], [3, 4], 20)
    # and it hits the zero denominator exactly when the offset is reached
    assert PochProduct().poch(2, -2).state == "pole"


def test_qpoch_laurent_guard():
    # (q^-1;q)_1 = 1 - q^-1 keeps its q^-1 term: no power series
    assert sum_terms([PochProduct().poch(-1, 1)], 3) == (-1, [-1, 1, 0, 0, 0])
    with pytest.raises(NeedsLaurent):
        _series([PochProduct().poch(-1, 1)], 10)


def _form(t):
    return t.state, t.coeff, t.shift, t.powers


def test_index_splitting():
    # (a)_{m+n} = (a)_m (a q^m)_n for a = q^e and every sign of m, n and e:
    # the split cancels to the very same factored form, zeros included
    for e in (-2, 0, 1, 2, 5):
        for m in range(-3, 4):
            for n in range(-3, 4):
                whole = PochProduct().poch(e, m + n)
                split = PochProduct().poch(e, m).poch(e + m, n)
                assert _form(split) == _form(whole), (e, m, n)
                if whole.state == "ok":
                    assert _coeffs(split, 30) == expand(1, 0, *poch(e, m + n), 30), (e, m, n)


def test_reflection_to_reciprocal():
    # (a q^n)_{-n} = 1/(a)_n
    for e in (-1, 1, 3):
        for n in range(0, 5):
            t = PochProduct().poch(e + n, -n)
            assert _form(t.mul(PochProduct().poch(e, n))) == ("ok", 1, 0, {})
            if t.state == "ok":
                assert _coeffs(t, 25) == expand(1, 0, [], poch(e, n)[0], 25), (e, n)


def test_qpoch_multi_states():
    assert PochProduct().poch(0, 2).poch(2, 2).state == "zero"
    assert PochProduct().poch(2, -2).poch(3, -2).state == "pole"
    t = PochProduct().poch(1, 2).poch(2, 2)
    assert _coeffs(t, 15) == expand(1, 0, [1, 2, 2, 3], [], 15)


def _pentagonal(trunc):
    """Euler: (q;q)_inf = sum_k (-1)^k q^(k(3k-1)/2) over all integers k."""
    out = {}
    for k in range(-trunc, trunc + 1):
        e = k * (3 * k - 1) // 2
        if e <= trunc:
            out[e] = -1 if k % 2 else 1
    return out


def test_qpoch_infinite_euler():
    # pentagonal numbers: 1 - q - q^2 + q^5 + q^7 - q^12 ...
    assert _render(PochProduct().qn(12), 12) == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)
    assert _coeffs(PochProduct().qn(60), 60) == _pentagonal(60)


def test_finite_matches_infinite_through_window():
    # (q^e;q)_n no longer changes below q^T once its factors pass the window
    T = 24
    for e in (1, 2):
        want = expand(1, 0, list(range(e, T + 1)), [], T)
        assert _coeffs(PochProduct().poch(e, T), T) == want
        assert _coeffs(PochProduct().poch(e, T + 10), T) == want


def _partition_counts(residues, top):
    counts = [0] * (top + 1)
    counts[0] = 1
    for part in range(1, top + 1):
        if part % 5 in residues:
            for s in range(part, top + 1):
                counts[s] += counts[s - part]
    return counts


def test_rr_products_against_partition_oracle():
    assert rr_product_side("mod5_14", 30) == _partition_counts((1, 4), 30)
    assert rr_product_side("mod5_23", 30) == _partition_counts((2, 3), 30)
    for residues in ((1, 4), (2, 3)):
        t = PochProduct()
        for m in range(1, 31):
            if m % 5 in residues:
                t.dfactor(m)
        assert sum_terms([t], 30) == (0, _partition_counts(residues, 30))
    with pytest.raises(ValueError):
        rr_product_side("mod7")


def test_rr_product_frozen_heads():
    assert rr_product_side("mod5_14", 12) == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9]
    assert rr_product_side("mod5_23", 12) == [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6]


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
    for e in (-2, 1, 2, 4):
        for n in (0, 1, 3, -1, -2):
            t = PochProduct().poch(e, n)
            if t.state != "ok":
                continue
            assert _coeffs(t, 20) == expand(1, 0, *poch(e, n), 20), (e, n)


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
    assert _form(d) == ("ok", 1, 0, {})


def test_render_unit_skips_out_of_window_factors():
    t = PochProduct().factor(3).factor(50)
    assert render_unit(t, 10) == [1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0]
    assert sum_terms([t], 10) == (0, [1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(PoleError):
        render_unit(PochProduct().dfactor(0), 5)


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
        power_series(acc.value(), 5)          # negative exponents survive


def test_accumulator_series_when_laurent_part_cancels():
    acc = SeriesAccumulator(8)
    acc.add(PochProduct().q(-1))
    acc.add(PochProduct().scale(-1).q(-1))
    acc.add(PochProduct().factor(2))
    assert power_series(acc.value(), 8) == [1, 0, -1, 0, 0, 0, 0, 0, 0]


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_qn_index_additivity(m, n):
    # (q;q)_{m+n} = (q;q)_m * (q^{m+1};q)_n
    whole = _series([PochProduct().qn(m + n)], 20)
    split = _series([PochProduct().qn(m).poch(m + 1, n)], 20)
    assert whole == split


_factor = st.tuples(st.integers(min_value=-6, max_value=12),
                    st.integers(min_value=-3, max_value=3))
_product = st.tuples(
    st.sampled_from([1, -1, 2, Fraction(-3, 2)]),
    st.integers(min_value=-8, max_value=8),
    st.lists(_factor, max_size=6))


@given(st.lists(_product, min_size=1, max_size=3), st.integers(min_value=0, max_value=25))
def test_sum_terms_matches_dense_oracle(drawn, trunc):
    terms, want, pole = [], {}, False
    for scale, shift, factors in drawn:
        t = PochProduct().scale(scale).q(shift)
        for m, times in factors:
            t.factor(m, times)
        terms.append(t)
        # (1 - q^0) is a formal symbol: its net multiplicity decides the state
        zeros = sum(times for m, times in factors if m == 0)
        assert t.state == ("zero" if zeros > 0 else "pole" if zeros < 0 else "ok")
        pole = pole or zeros < 0
        if zeros == 0:
            num = [m for m, times in factors if m for _ in range(times)]
            den = [m for m, times in factors if m for _ in range(-times)]
            for e, c in expand(scale, shift, num, den, trunc).items():
                want[e] = want.get(e, 0) + c
    if pole:
        with pytest.raises(PoleError):
            sum_terms(terms, trunc)
        return
    assert as_dict(sum_terms(terms, trunc), trunc) == {e: c for e, c in want.items() if c}


# ---------------------------------------------------------------------------
# division by (q; q)_inf against one binomial pass per factor
# ---------------------------------------------------------------------------


_coeff = st.integers(min_value=-10**30, max_value=10**30)


@given(st.lists(st.tuples(_coeff, st.integers(min_value=0, max_value=30)), max_size=40),
       st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
@example(runs=[(7, 0)], n=0, lo=0)
@example(runs=[(7, 0)], n=1, lo=0)
@example(runs=[(7, 0), (-3, 0)], n=2, lo=0)
@example(runs=[(7, 0), (-3, 0)], n=2, lo=1)
@example(runs=[(10**30, 3), (-10**30, 0)], n=200, lo=17)
def test_div_euler_matches_binomial_passes(runs, n, lo):
    # coefficients with runs of zeros after each, from buf[lo] on
    lo = min(lo, n)
    body = [x for c, zeros in runs for x in [c] + [0] * zeros]
    buf = [0] * lo + (body + [0] * n)[:n - lo]
    want = list(buf)
    for m in range(1, n):
        div_binomial(want, m, lo)
    div_euler(buf, lo)
    assert buf == want


def test_div_euler_gives_partition_numbers():
    buf = [1] + [0] * 100
    div_euler(buf)
    assert buf[:12] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    assert buf[100] == 190569292

"""``compare_side_values`` against the coefficient-by-coefficient loop.

The engine compares two ``(offset, coeffs)`` values by returning at once
when they are held alike and otherwise padding both to the exponents
min(offsets)..T.  ``loop_compare`` below is the walk it replaced, kept as the
oracle: it must give the same ``(exponent, lhs_c, rhs_c)``, or None, on every
pair of values.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from qrr.identities import verify_mutated
from qrr.identities.framework import compare, compare_side_values


def loop_compare(lhs, rhs, trunc):
    """None if equal through q^trunc, else (exponent, lhs_c, rhs_c)."""
    off_l, a = lhs
    off_r, b = rhs
    lo = min(off_l, off_r)
    for e in range(lo, trunc + 1):
        ca = a[e - off_l] if 0 <= e - off_l < len(a) else 0
        cb = b[e - off_r] if 0 <= e - off_r < len(b) else 0
        if ca != cb:
            return e, ca, cb
    return None


_coeff = st.sampled_from([0, 0, 1, -1, 2, -7, Fraction(-3, 2), Fraction(1, 3)])
_value = st.tuples(st.integers(-6, 14), st.lists(_coeff, max_size=16))


def _same(lhs, rhs, trunc):
    got = compare_side_values(lhs, rhs, trunc)
    assert got == loop_compare(lhs, rhs, trunc)
    if got is not None:
        assert type(got[1]) is type(loop_compare(lhs, rhs, trunc)[1])
    return got


@given(_value, _value, st.integers(-8, 20))
def test_matches_loop_on_random_values(lhs, rhs, trunc):
    _same(lhs, rhs, trunc)


@given(_value, st.integers(-6, 14), st.integers(0, 12), st.data())
def test_matches_loop_on_one_changed_coefficient(lhs, shift, trunc, data):
    # the same value written from another offset, with zero padding, then
    # one coefficient changed anywhere in the compared window
    off, coeffs = lhs
    lo = min(off, shift)
    dense = [coeffs[e - off] if 0 <= e - off < len(coeffs) else 0
             for e in range(lo, trunc + 1)]
    assert _same(lhs, (lo, dense), trunc) is None
    if dense:
        i = data.draw(st.integers(0, len(dense) - 1))
        dense[i] += 1
        assert _same(lhs, (lo, dense), trunc) == (lo + i, dense[i] - 1, dense[i])


def test_offsets_and_window_edges():
    cases = [
        ((-2, [1, 0, 3]), (-2, [1, 0, 3]), 5),      # both negative, equal
        ((-3, [0, 1, 0, 3]), (-2, [1, 0, 3]), 5),   # differing offsets, equal
        ((2, [4]), (0, [0, 0, 4, 0, 0]), 3),       # buffers shorter than the window
        ((0, [1, 2]), (0, [5, 2]), 1),             # differ at the first exponent
        ((0, [0, 2, 3]), (1, [2, 4]), 2),          # differ at the last exponent
        ((0, [0, 2, 3]), (1, [2, 3, 9]), 2),       # differ only past trunc
        ((-4, [1]), (3, [1]), 2),                  # differ at a negative exponent
        ((7, [1]), (9, [2]), 5),                   # both wholly past trunc
        ((0, []), (0, []), 0),
    ]
    expected = [None, None, None, (0, 1, 5), (2, 3, 4), None, (-4, 1, 0), None, None]
    assert [_same(*case) for case in cases] == expected


def test_both_mismatch_windows_cover_the_same_exponents():
    # the lhs goes down to q^-1 and differs there; the rhs starts at q^0,
    # yet its window must show q^-1 too
    rep = verify_mutated("ABCDE60", dict(n=1, l=1, m=1, u=1, v=1), "lhs.argnum[-l]", 1, 18)
    assert rep.mismatch_index == -1
    assert rep.lhs_window == [(-1, -1), (0, 0), (1, 0)]
    assert rep.rhs_window == [(-1, 0), (0, 0), (1, 0)]
    rep = compare("X", {}, 5, (0, [0, 0, 0, 1]), (-3, [0, 0, 0, 0, 0, 0, 2]))
    assert rep.mismatch_index == 3
    assert [e for e, _ in rep.lhs_window] == [e for e, _ in rep.rhs_window] == [1, 2, 3, 4, 5]

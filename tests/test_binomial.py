"""Factorial-quotient sums obtained from the identities at q -> 1.

Everything here is exact integer arithmetic; the reference values were
computed by hand from the defining sums.
"""

import math
import re
from fractions import Fraction
from itertools import product

import pytest

from qrr import binomial
from qrr.binomial import (
    MAX_BINOMIAL_N,
    alt_power_sum,
    binom,
    bino4_sides,
    bino5_sides,
    cor57_sides,
    cor58a_sides,
    cor58b_sides,
    divisibility_check,
    general_alt_sum,
    general_divisibility_check,
)
from qrr.identities import EngineError


def test_binom_total():
    assert binom(5, 2) == math.comb(5, 2)
    assert binom(5, -1) == 0
    assert binom(3, 7) == 0


def test_cor57_frozen_and_symmetric():
    assert cor57_sides(0, 0, 0, 0, 0) == (1, 1)
    assert cor57_sides(1, 1, 1, 1, 1) == (30, 30)
    # the left side is symmetric in the first three parameters
    a = cor57_sides(2, 1, 3, 1, 2)
    b = cor57_sides(3, 2, 1, 1, 2)
    assert a == b == (900, 900)


def test_cor57_grid():
    for l in range(3):
        for m in range(3):
            for n in range(3):
                for u in range(3):
                    for v in range(3):
                        lhs, rhs = cor57_sides(l, m, n, u, v)
                        assert lhs == rhs, (l, m, n, u, v)


def _fraction_sum(scale, kmax, summand):
    """The slow path: the same sum in exact rationals."""
    return scale * sum((Fraction(math.prod(map(math.factorial, a)),
                                 math.prod(map(math.factorial, b)))
                        for a, b in map(summand, range(kmax + 1))), Fraction(0))


def test_factorial_sums_are_the_rational_sums():
    # cor57's right side on [0, 4]^5, summed over a common denominator,
    # against the same sum in Fractions
    for l, m, n, u, v in product(range(5), repeat=5):
        def summand(k):
            return (l + m + n - k, u + v + k), (k, l - k, m - k, n - k, u + k, v + k)
        want = _fraction_sum(binom(u + v, u), min(l, m, n), summand)
        assert want.denominator == 1
        assert binomial._factorial_sum("x", binom(u + v, u), min(l, m, n), summand) == want


@pytest.mark.parametrize("scale,kmax,summand,total", [
    (1, 0, lambda k: ((), (2,)), "1/2"),
    (-1, 1, lambda k: ((k,), (3,)), "-1/3"),
    (5, 2, lambda k: ((k + 1,), (k + 2,)), "65/12"),
])
def test_a_non_integral_factorial_sum_raises(scale, kmax, summand, total):
    assert str(_fraction_sum(scale, kmax, summand)) == total
    with pytest.raises(EngineError, match=f"^label accumulated to the non-integer {total}$"):
        binomial._factorial_sum("label", scale, kmax, summand)


def test_cor58_grids():
    for l in range(3):
        for m in range(3):
            for n in range(3):
                for u in range(3):
                    lhs, rhs = cor58a_sides(l, m, n, u)
                    assert lhs == rhs, ("a", l, m, n, u)
                    lhs, rhs = cor58b_sides(l, m, n, u)
                    assert lhs == rhs, ("b", l, m, n, u)


def test_power_sum_identities_frozen():
    assert bino5_sides(0) == (1, 1, 1)
    assert bino5_sides(1) == (30, 30, 30)
    assert bino4_sides(0) == (1, 1, 1)
    assert bino4_sides(1) == (14, 14, 14)


def test_power_sum_identities_range():
    for n in range(13):
        lhs5, r51, r52 = bino5_sides(n)
        assert lhs5 == r51 == r52, ("bino5", n)
        lhs4, r41, r42 = bino4_sides(n)
        assert lhs4 == r41 == r42, ("bino4", n)


def test_alt_power_sum_definition():
    # first power telescopes to zero by the binomial theorem
    assert alt_power_sum(3, 1) == 0
    assert alt_power_sum(0, 5) == 1
    assert alt_power_sum(2, 4) == binom(4, 2) ** 4 - 2 * binom(4, 1) ** 4 + 2
    with pytest.raises(EngineError):
        alt_power_sum(-1, 4)
    for power in (0, -1, 2.0, True):
        with pytest.raises(EngineError, match="power must be an integer >= 1"):
            alt_power_sum(2, power)


def test_divisibility():
    for n in range(13):
        assert divisibility_check(n, 4), n
        assert divisibility_check(n, 5), n
    with pytest.raises(EngineError):
        divisibility_check(3, 6)


def test_general_alt_sum_frozen():
    assert general_alt_sum([0, 0, 0]) == 1
    assert general_alt_sum([1]) == 0
    assert general_alt_sum([1, 1, 1, 1]) == 14
    assert general_alt_sum([1, 1, 1, 1, 1]) == 30


def test_general_divisibility_small_cycles():
    for m in (1, 2, 3, 4):
        entries = [0] * m
        stack = [entries]
        # walk the full {0,1,2}^m grid without recursion helpers
        grids = [[a, b, c, d][:m] for a in range(3) for b in range(3)
                 for c in range(3) for d in range(3)]
        seen = set()
        for g in grids:
            t = tuple(g)
            if t in seen:
                continue
            seen.add(t)
            assert general_divisibility_check(list(t)), t


def test_general_alt_sum_rejects_negatives():
    with pytest.raises(EngineError):
        general_alt_sum([1, -1])
    with pytest.raises(EngineError):
        general_alt_sum([])


def test_binomial_inputs_are_bounded():
    top = MAX_BINOMIAL_N
    for call in (lambda: alt_power_sum(top + 1, 5), lambda: bino4_sides(top + 1),
                 lambda: cor57_sides(1, 1, 1, 1, top + 1),
                 lambda: cor58a_sides(top + 1, 1, 1, 1),
                 lambda: cor58b_sides(1, top + 1, 1, 1),
                 lambda: general_alt_sum([2, top + 1]),
                 lambda: general_alt_sum([1] * (top + 1))):
        with pytest.raises(EngineError, match=f"at most {top}"):
            call()


@pytest.mark.parametrize("fn, args, bad", [
    (bino5_sides, (True,), True),
    (bino5_sides, (2.5,), 2.5),
    (bino4_sides, (False,), False),
    (divisibility_check, (True, 4), True),
    (alt_power_sum, (2.0, 5), 2.0),
    (cor57_sides, (1, 1, 1, 1, 1.0), 1.0),
    (cor58a_sides, (1, True, 1, 1), True),
    (cor58b_sides, (1, 1, "2", 1), "2"),
    (general_alt_sum, ([1, True],), True),
    (general_divisibility_check, ([2, 1.5],), 1.5),
], ids=lambda x: getattr(x, "__name__", None))
def test_binomial_inputs_must_be_integers(fn, args, bad):
    message = f"parameter must be an integer >= 0 and at most 150, got {bad!r}"
    with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
        fn(*args)

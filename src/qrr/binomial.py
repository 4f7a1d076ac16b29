"""Integer consequences of the q-series identities at q -> 1.

Every alternating sum of products of central-ish binomial coefficients here
is evaluated in exact integer arithmetic, with the convention 1/n! = 0 for
n < 0 (so sums terminate by themselves).  The right-hand sides accumulate
as integers over the common denominator of their terms and are asserted
integral before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod

from .identities.framework import EngineError, bounded_int

# The largest parameter or cycle entry, and the most entries of one cycle:
# each sum has O(n) terms of O(n) digits, with a factor per entry, and a
# sweep repeats it for every n (the acceptance sweeps stop at 20).
MAX_BINOMIAL_N = 150

__all__ = [
    "binom",
    "cor57_sides",
    "cor58a_sides",
    "cor58b_sides",
    "bino5_sides",
    "bino4_sides",
    "alt_power_sum",
    "divisibility_check",
    "general_alt_sum",
    "general_divisibility_check",
]


def binom(n: int, k: int) -> int:
    """Binomial coefficient as a total function: zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_range(values) -> None:
    """Raise EngineError unless every value is an integer in 0..MAX_BINOMIAL_N."""
    for value in values:
        bounded_int("parameter", value, 0, MAX_BINOMIAL_N)


def _factorial_sum(label: str, scale: int, kmax: int, summand) -> int:
    """scale * sum_{k=0}^{kmax} prod_i a_i! / prod_j b_j!, where
    summand(k) gives the tuples (a_i) and (b_j); raises EngineError naming
    ``label`` unless the total is an integer.  The terms are summed over
    the least common multiple of their denominators, in integers."""
    terms = [(prod(map(factorial, a)), prod(map(factorial, b)))
             for a, b in map(summand, range(kmax + 1))]
    den = lcm(*(b for _, b in terms))
    total, rest = divmod(scale * sum(a * (den // b) for a, b in terms), den)
    if rest:
        raise EngineError(f"{label} accumulated to the non-integer "
                          f"{Fraction(total * den + rest, den)}")
    return total


def _alt_cycle_sum(*cycles: tuple[int, ...]) -> int:
    """sum_k (-1)^k prod over the cycles (a_1, ..., a_r) of
    prod_i binom(a_i + a_(i+1), a_i + k), where a_(r+1) = a_1.  A factor is
    0 unless -a_i <= k <= a_(i+1), so k runs over |k| <= the least entry."""
    pairs = [(a, a + b) for c in cycles for a, b in zip(c, c[1:] + c[:1])]
    cap = min(a for a, _ in pairs)
    return sum((-1 if k & 1 else 1) * prod(binom(top, a + k) for a, top in pairs)
               for k in range(-cap, cap + 1))


def cor57_sides(l: int, m: int, n: int, u: int, v: int) -> tuple[int, int]:
    """Both sides of the five-fold alternating binomial identity."""
    _check_range((l, m, n, u, v))
    return _alt_cycle_sum((l, m, n), (u, v)), _factorial_sum(
        "cor57 right side", binom(u + v, u), min(l, m, n), lambda k: (
            (l + m + n - k, u + v + k), (k, l - k, m - k, n - k, u + k, v + k)))


def cor58a_sides(l: int, m: int, n: int, u: int) -> tuple[int, int]:
    """The four-fold variant with a single central column."""
    _check_range((l, m, n, u))
    return _alt_cycle_sum((l, m, n), (u,)), _factorial_sum(
        "cor58a right side", factorial(2 * u) // factorial(u), min(l, m, n), lambda k: (
            (l + m + n - k,), (k, l - k, m - k, n - k, u + k)))


def cor58b_sides(m: int, n: int, u: int, v: int) -> tuple[int, int]:
    """The four-fold variant with a doubled m+n column."""
    _check_range((m, n, u, v))
    return _alt_cycle_sum((m, n), (u, v)), _factorial_sum(
        "cor58b right side", binom(u + v, u), min(m, n), lambda k: (
            (m + n, u + v + k), (k, m - k, n - k, u + k, v + k)))


def alt_power_sum(n: int, power: int) -> int:
    """sum_{k=-n}^{n} (-1)^k binom(2n, n+k)^power, for a power >= 1."""
    _check_range((n,))
    bounded_int("power", power, 1)
    return _alt_cycle_sum(*[(n,)] * power)


def bino5_sides(n: int) -> tuple[int, int, int]:
    """The fifth-power alternating sum and its two positive expansions."""
    lhs = alt_power_sum(n, 5)
    central = binom(2 * n, n)
    rhs1 = central * sum(
        binom(3 * n - k, n - k) * binom(2 * n + k, k) * binom(2 * n, n + k) ** 2
        for k in range(0, n + 1)
    )
    rhs2 = central * sum(
        binom(3 * n - k, n - k) * binom(2 * n + k, k) * binom(2 * n, k) ** 2
        for k in range(0, n + 1)
    )
    return lhs, rhs1, rhs2


def bino4_sides(n: int) -> tuple[int, int, int]:
    """The fourth-power alternating sum and its two positive expansions."""
    lhs = alt_power_sum(n, 4)
    central = binom(2 * n, n)
    rhs1 = central * sum(
        binom(3 * n - k, n - k) * binom(2 * n, n + k) * binom(n, k)
        for k in range(0, n + 1)
    )
    rhs2 = central * sum(
        binom(2 * n + k, k) * binom(2 * n, n + k) ** 2
        for k in range(0, n + 1)
    )
    return lhs, rhs1, rhs2


def _nonnegative_multiple(s: int, divisors) -> bool:
    """Is s >= 0 and a multiple of every nonzero divisor?"""
    return s >= 0 and all(s % d == 0 for d in divisors if d)


def divisibility_check(n: int, power: int) -> bool:
    """Is the alternating power sum a nonnegative multiple of binom(2n, n)?"""
    if power not in (4, 5):
        raise EngineError("the divisibility statement covers powers 4 and 5")
    return _nonnegative_multiple(alt_power_sum(n, power), (binom(2 * n, n),))


def general_alt_sum(entries: list[int] | tuple[int, ...]) -> int:
    """sum_k (-1)^k prod_i binom(n_i + n_{i+1}, n_i + k), cyclically, over
    1 to MAX_BINOMIAL_N entries."""
    ns = tuple(entries)
    if not 1 <= len(ns) <= MAX_BINOMIAL_N:
        raise EngineError(f"need 1 to at most {MAX_BINOMIAL_N} entries, got {len(ns)}")
    _check_range(ns)
    return _alt_cycle_sum(ns)


def general_divisibility_check(entries: list[int] | tuple[int, ...]) -> bool:
    """Nonnegative and divisible by every cyclic binom(n_j + n_{j+1}, n_j)."""
    ns = list(entries)
    return _nonnegative_multiple(general_alt_sum(ns), [
        binom(a + b, a) for a, b in zip(ns, ns[1:] + ns[:1])])

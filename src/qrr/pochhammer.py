"""q-Pochhammer symbols over the truncated series ring.

The public entry points (:func:`qpoch`, :func:`qpoch_reciprocal`,
:func:`qpoch_multi`, :func:`qpoch_infinite`, :func:`rr_product_side`) follow
the usual conventions:

    (a; q)_0 = 1
    (a; q)_n = (1-a)(1-aq)...(1-aq^{n-1})          for n > 0
    (a; q)_n = 1 / ((aq^n; q)_{-n})                for n < 0

so that (a; q)_n * (aq^n; q)_m = (a; q)_{n+m} for all integer n, m whenever
both sides make sense.  A negative index can place a genuine zero in a
denominator — (q; q)_{-1} involves 1/(1-q^0) — so results are wrapped in a
three-state :class:`PochValue`: an honest series, an exact zero, or the
reciprocal of zero.

Internally, sums of quotients of Pochhammer symbols are manipulated as
:class:`PochProduct` values: a scalar, a power of q, and a multiset of
factors (1-q^m) with integer multiplicities.  Cancelling zeros between
numerator and denominator happens exactly (multiplicities of the m=0 factor
cancel), and rendering to coefficients is a sequence of O(T) passes, one per
factor, rather than a generic series product.
"""

from __future__ import annotations

from fractions import Fraction

from .series import (
    Coeff,
    MonomialParam,
    NeedsLaurent,
    SeriesError,
    TruncatedSeries,
    default_truncation,
)


class NonPositiveExponent(SeriesError):
    """Raised for infinite products (a; q)_inf that need a.exp >= 1 to converge."""


class PoleError(SeriesError):
    """A term evaluated to the reciprocal of zero where a series was required."""


# ---------------------------------------------------------------------------
# three-state values
# ---------------------------------------------------------------------------


class PochValue:
    """Either a series, an exact zero, or the reciprocal of an exact zero."""

    __slots__ = ("kind", "_series")

    SERIES = "series"
    ZERO = "zero"
    RECIPROCAL_ZERO = "reciprocal_zero"

    def __init__(self, kind: str, series: TruncatedSeries | None = None):
        if kind == PochValue.SERIES and series is None:
            raise ValueError("series kind requires a payload")
        self.kind = kind
        self._series = series

    @staticmethod
    def of(series: TruncatedSeries) -> "PochValue":
        return PochValue(PochValue.SERIES, series)

    @staticmethod
    def zero() -> "PochValue":
        return PochValue(PochValue.ZERO)

    @staticmethod
    def reciprocal_zero() -> "PochValue":
        return PochValue(PochValue.RECIPROCAL_ZERO)

    @property
    def is_series(self) -> bool:
        return self.kind == PochValue.SERIES

    @property
    def is_zero(self) -> bool:
        return self.kind == PochValue.ZERO

    @property
    def is_reciprocal_zero(self) -> bool:
        return self.kind == PochValue.RECIPROCAL_ZERO

    @property
    def series(self) -> TruncatedSeries:
        if self.kind != PochValue.SERIES:
            raise PoleError(f"no series payload for a {self.kind} value")
        return self._series

    def series_or_zero(self, trunc: int) -> TruncatedSeries:
        """The series payload, with an exact zero materialised at `trunc`."""
        if self.kind == PochValue.SERIES:
            return self._series
        if self.kind == PochValue.ZERO:
            return TruncatedSeries.zero(trunc)
        raise PoleError("reciprocal of zero has no series expansion")

    def reciprocal(self) -> "PochValue":
        if self.kind == PochValue.ZERO:
            return PochValue.reciprocal_zero()
        if self.kind == PochValue.RECIPROCAL_ZERO:
            return PochValue.zero()
        return PochValue.of(self._series.invert())

    def __repr__(self) -> str:
        if self.kind == PochValue.SERIES:
            return f"PochValue({self._series!r})"
        return f"PochValue<{self.kind}>"


# ---------------------------------------------------------------------------
# O(T) coefficient kernels
# ---------------------------------------------------------------------------


def mul_binomial(buf: list, m: int, c: Coeff = 1) -> None:
    """In place: buf *= (1 - c*q^m), m >= 1."""
    n = len(buf)
    if m >= n:
        return
    if c == 1:
        for i in range(n - 1, m - 1, -1):
            if buf[i - m]:
                buf[i] -= buf[i - m]
    else:
        for i in range(n - 1, m - 1, -1):
            if buf[i - m]:
                buf[i] -= c * buf[i - m]


def div_binomial(buf: list, m: int, c: Coeff = 1) -> None:
    """In place: buf /= (1 - c*q^m), m >= 1."""
    n = len(buf)
    if m >= n:
        return
    if c == 1:
        for i in range(m, n):
            if buf[i - m]:
                buf[i] += buf[i - m]
    else:
        for i in range(m, n):
            if buf[i - m]:
                buf[i] += c * buf[i - m]


# ---------------------------------------------------------------------------
# memoised (q; q)_n tables
# ---------------------------------------------------------------------------

_QN_CACHE: dict[int, list[tuple[int, ...]]] = {}
_INV_QN_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _qn_table(cache: dict, kernel, n: int, trunc: int) -> tuple[int, ...]:
    """Row n of the table for this trunc, extended by a loop from the largest
    cached row.  A factor (1-q^m) with m > trunc cannot reach the window, so
    rows past n = trunc repeat and the table never grows beyond trunc + 1."""
    table = cache.setdefault(trunc, [(1,) + (0,) * trunc])
    n = min(n, trunc)
    while len(table) <= n:
        buf = list(table[-1])
        kernel(buf, len(table))
        table.append(tuple(buf))
    return table[n]


def qn_coeffs(n: int, trunc: int) -> tuple[int, ...]:
    """Coefficients of (q; q)_n through q^trunc, cached."""
    if n < 0:
        raise ValueError("qn_coeffs is for n >= 0")
    return _qn_table(_QN_CACHE, mul_binomial, n, trunc)


def inv_qn_coeffs(n: int, trunc: int) -> tuple[int, ...]:
    """Coefficients of 1/(q; q)_n through q^trunc, cached."""
    if n < 0:
        raise ValueError("inv_qn_coeffs is for n >= 0")
    return _qn_table(_INV_QN_CACHE, div_binomial, n, trunc)


# ---------------------------------------------------------------------------
# public finite and infinite products
# ---------------------------------------------------------------------------


def qpoch(a: MonomialParam, n: int, trunc: int | None = None) -> PochValue:
    """(a; q)_n for a = c*q^e, as a three-state value."""
    if trunc is None:
        trunc = default_truncation()
    c, e = a.coeff, a.exp

    if n >= 0:
        exps = [e + j for j in range(n)]
        if c == 1 and any(x == 0 for x in exps):
            return PochValue.zero()
        if any(x < 0 for x in exps):
            raise NeedsLaurent(
                f"({a!r}; q)_{n} has a factor with a negative q-exponent"
            )
        if c == 1 and e == 1 and n >= 0:
            return PochValue.of(TruncatedSeries(qn_coeffs(n, trunc), trunc))
        buf: list[Coeff] = [0] * (trunc + 1)
        buf[0] = 1
        for x in exps:
            if x == 0:
                # c != 1 here: a constant factor (1 - c)
                for i in range(trunc + 1):
                    if buf[i]:
                        buf[i] = buf[i] * (1 - c)
            else:
                mul_binomial(buf, x, c)
        return PochValue.of(TruncatedSeries(buf, trunc))

    # negative index: reciprocal of the product over (1 - c*q^{e-j}), j = 1..-n
    exps = [e - j for j in range(1, -n + 1)]
    if c == 1 and any(x == 0 for x in exps):
        return PochValue.reciprocal_zero()
    if any(x < 0 for x in exps):
        raise NeedsLaurent(
            f"({a!r}; q)_{n} has a factor with a negative q-exponent"
        )
    buf = [0] * (trunc + 1)
    buf[0] = 1
    for x in exps:
        if x == 0:
            inv = 1 - c
            for i in range(trunc + 1):
                if buf[i]:
                    buf[i] = Fraction(buf[i], 1) / inv
        else:
            div_binomial(buf, x, c)
    return PochValue.of(TruncatedSeries(buf, trunc))


def qpoch_reciprocal(a: MonomialParam, n: int, trunc: int | None = None) -> PochValue:
    """1/(a; q)_n; in particular exactly zero when the symbol itself blows up."""
    return qpoch(a, n, trunc).reciprocal()


def qpoch_multi(params: list[MonomialParam] | tuple[MonomialParam, ...],
                n: int, trunc: int | None = None) -> PochValue:
    """Product (a_1; q)_n (a_2; q)_n ... as a combined three-state value."""
    if trunc is None:
        trunc = default_truncation()
    zeros = 0
    series_parts: list[TruncatedSeries] = []
    for a in params:
        v = qpoch(a, n, trunc)
        if v.is_zero:
            zeros += 1
        elif v.is_reciprocal_zero:
            zeros -= 1
        else:
            series_parts.append(v.series)
    if zeros > 0:
        return PochValue.zero()
    if zeros < 0:
        return PochValue.reciprocal_zero()
    out = TruncatedSeries.one(trunc)
    for s in series_parts:
        out = out * s
    return PochValue.of(out)


def qpoch_infinite(a: MonomialParam, trunc: int | None = None) -> TruncatedSeries:
    """(a; q)_inf truncated at q^trunc; needs a.exp >= 1 so the product converges."""
    if trunc is None:
        trunc = default_truncation()
    c, e = a.coeff, a.exp
    if e < 1:
        raise NonPositiveExponent(
            f"(a; q)_inf requires a q-exponent >= 1, got {e}"
        )
    buf: list[Coeff] = [0] * (trunc + 1)
    buf[0] = 1
    x = e
    while x <= trunc:
        mul_binomial(buf, x, c)
        x += 1
    return TruncatedSeries(buf, trunc)


def rr_product_side(which: str, trunc: int | None = None) -> TruncatedSeries:
    """The Rogers-Ramanujan product sides.

    mod5_14: 1 / ((q; q^5)_inf (q^4; q^5)_inf)  — parts congruent to 1, 4 mod 5
    mod5_23: 1 / ((q^2; q^5)_inf (q^3; q^5)_inf) — parts congruent to 2, 3 mod 5
    """
    if trunc is None:
        trunc = default_truncation()
    if which == "mod5_14":
        residues = (1, 4)
    elif which == "mod5_23":
        residues = (2, 3)
    else:
        raise ValueError(f"unknown product side {which!r}")
    buf: list[Coeff] = [0] * (trunc + 1)
    buf[0] = 1
    for m in range(1, trunc + 1):
        if m % 5 in residues:
            div_binomial(buf, m)
    return TruncatedSeries(buf, trunc)


# ---------------------------------------------------------------------------
# factored products of (1 - q^m): the engine's term representation
# ---------------------------------------------------------------------------


def _sign(k: int) -> int:
    """(-1)^k, the sign of the k-th term of an alternating sum."""
    return -1 if k & 1 else 1


class PochProduct:
    """scalar * q^shift * prod_m (1-q^m)^powers[m], with exact bookkeeping.

    Factors (1-q^m) with m < 0 are rewritten on entry via
    (1-q^m) = -q^m (1-q^{-m}), so `powers` only ever holds keys m >= 0.
    The key 0 tracks the net multiplicity of vanishing factors: a positive
    net count means the whole product is exactly zero, a negative one means
    it is a pole.  Same-exponent zeros occurring in both numerator and
    denominator cancel exactly, which is what makes termwise evaluation of
    quotient sums safe at boundary parameter values.
    """

    __slots__ = ("coeff", "shift", "powers")

    def __init__(self):
        self.coeff: Coeff = 1
        self.shift = 0
        self.powers: dict[int, int] = {}

    # fluent builders ------------------------------------------------------

    def scale(self, c: Coeff) -> "PochProduct":
        self.coeff *= c
        return self

    def q(self, e: int) -> "PochProduct":
        """Multiply by q^e."""
        self.shift += e
        return self

    def factor(self, m: int, times: int = 1) -> "PochProduct":
        """Multiply by (1-q^m)^times for any integer m."""
        if times == 0:
            return self
        if m < 0:
            if times % 2:
                self.coeff = -self.coeff
            self.shift += m * times
            m = -m
        self.powers[m] = self.powers.get(m, 0) + times
        if not self.powers[m]:
            del self.powers[m]
        return self

    def dfactor(self, m: int) -> "PochProduct":
        return self.factor(m, -1)

    def poch(self, e: int, n: int, times: int = 1) -> "PochProduct":
        """Multiply by (q^e; q)_n^times."""
        if n >= 0:
            for j in range(n):
                self.factor(e + j, times)
        else:
            for j in range(1, -n + 1):
                self.factor(e - j, -times)
        return self

    def dpoch(self, e: int, n: int) -> "PochProduct":
        return self.poch(e, n, -1)

    def qn(self, n: int, times: int = 1) -> "PochProduct":
        """Multiply by (q; q)_n^times."""
        return self.poch(1, n, times)

    def dqn(self, n: int) -> "PochProduct":
        return self.poch(1, n, -1)

    # state ----------------------------------------------------------------

    @property
    def state(self) -> str:
        z = self.powers.get(0, 0)
        if z > 0:
            return "zero"
        if z < 0:
            return "pole"
        return "ok"

    def copy(self) -> "PochProduct":
        out = PochProduct()
        out.coeff = self.coeff
        out.shift = self.shift
        out.powers = dict(self.powers)
        return out

    def mul(self, other: "PochProduct") -> "PochProduct":
        out = self.copy()
        out.coeff *= other.coeff
        out.shift += other.shift
        for m, t in other.powers.items():
            out.powers[m] = out.powers.get(m, 0) + t
            if not out.powers[m]:
                del out.powers[m]
        return out

    def invert(self) -> "PochProduct":
        out = PochProduct()
        out.coeff = Fraction(1, 1) / self.coeff if self.coeff not in (1, -1) else self.coeff
        out.shift = -self.shift
        out.powers = {m: -t for m, t in self.powers.items()}
        return out

    def as_scalar(self):
        """coeff * q^shift if no binomial factors remain, else None."""
        if any(t for m, t in self.powers.items()):
            return None
        return (self.coeff, self.shift)

    def key(self):
        return (
            self.coeff,
            self.shift,
            tuple(sorted((m, t) for m, t in self.powers.items() if t)),
        )

    # rendering --------------------------------------------------------------

    def render_unit(self, length: int) -> list:
        """Coefficients 0..length of prod (1-q^m)^powers[m] (scalar and shift
        excluded).  Factors with m > length cannot touch the window and are
        skipped, which keeps each pass O(length)."""
        if self.state != "ok":
            raise PoleError(f"cannot render a {self.state} product")
        buf: list[Coeff] = [0] * (length + 1)
        buf[0] = 1
        for m in sorted(self.powers):
            if m == 0 or m > length:
                continue
            t = self.powers[m]
            if t > 0:
                for _ in range(t):
                    mul_binomial(buf, m)
            else:
                for _ in range(-t):
                    div_binomial(buf, m)
        return buf

    def __repr__(self) -> str:
        parts = []
        if self.coeff != 1:
            parts.append(str(self.coeff))
        if self.shift:
            parts.append(f"q^{self.shift}")
        for m in sorted(self.powers):
            t = self.powers[m]
            parts.append(f"(1-q^{m})^{t}" if t != 1 else f"(1-q^{m})")
        return "PochProduct[" + " ".join(parts or ["1"]) + "]"


class SeriesAccumulator:
    """Sums PochProduct terms, allowing negative q-exponents while summing.

    Individual terms of a bilateral sum may carry negative powers of q even
    when the total is an honest power series; the accumulator keeps a wide
    enough window for the most negative shift seen and lets the caller
    decide what to do with any surviving negative part.
    """

    def __init__(self, trunc: int):
        self.trunc = trunc
        self.terms: list[PochProduct] = []

    def add(self, term: PochProduct) -> None:
        st = term.state
        if st == "zero":
            return
        if st == "pole":
            raise PoleError(f"pole term reached the accumulator: {term!r}")
        self.terms.append(term)

    def value(self) -> tuple[int, list]:
        """(offset, coeffs) with coeffs[i] the coefficient of q^(offset+i)."""
        offset = 0
        for t in self.terms:
            if t.shift < offset:
                offset = t.shift
        out: list[Coeff] = [0] * (self.trunc - offset + 1)
        for t in self.terms:
            if t.shift > self.trunc:
                continue
            unit = t.render_unit(self.trunc - t.shift)
            base = t.shift - offset
            c = t.coeff
            if c == 1:
                for i, u in enumerate(unit):
                    if u:
                        out[base + i] += u
            elif c == -1:
                for i, u in enumerate(unit):
                    if u:
                        out[base + i] -= u
            else:
                for i, u in enumerate(unit):
                    if u:
                        out[base + i] += c * u
        return offset, out

    def series(self) -> TruncatedSeries:
        """The sum as a power series; raises NeedsLaurent if a negative
        q-exponent survives in the total."""
        offset, out = self.value()
        if offset < 0:
            head, tail = out[:-offset], out[-offset:]
            if any(head):
                first = next(i for i, c in enumerate(head) if c)
                raise NeedsLaurent(
                    f"sum retains q^{offset + first} with coefficient {head[first]}"
                )
            out = tail
        return TruncatedSeries(out, self.trunc)


def sum_terms(terms: list[PochProduct], trunc: int) -> tuple[int, list]:
    acc = SeriesAccumulator(trunc)
    for t in terms:
        acc.add(t)
    return acc.value()


def terms_to_series(terms: list[PochProduct], trunc: int) -> TruncatedSeries:
    acc = SeriesAccumulator(trunc)
    for t in terms:
        acc.add(t)
    return acc.series()

"""Truncated formal power series in q with exact rational coefficients.

A :class:`TruncatedSeries` stores the coefficients of q^0 .. q^T for some
truncation order T.  All arithmetic is exact: coefficients are Python ints,
promoted to :class:`fractions.Fraction` only when division forces it, and
normalised back to int whenever the denominator is 1.  Two series with
different truncation orders combine at the smaller order.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Union

Coeff = Union[int, Fraction]

DEFAULT_TRUNCATION = 60


def env_truncation() -> int | None:
    """The truncation order set by the QRR_TRUNC environment variable, or
    None when it is unset; raises ValueError unless it is an integer >= 1."""
    raw = os.environ.get("QRR_TRUNC")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"QRR_TRUNC must be an integer >= 1, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"QRR_TRUNC must be >= 1, got {value}")
    return value


def default_truncation() -> int:
    """Truncation order used when a caller does not pass one.

    Reads the QRR_TRUNC environment variable so the whole suite can be
    re-run at a different precision without touching call sites.
    """
    value = env_truncation()
    return DEFAULT_TRUNCATION if value is None else value


class SeriesError(Exception):
    """Base class for series arithmetic failures."""


class ZeroConstantTerm(SeriesError):
    """Raised when inverting a series whose constant term is zero."""


class ExponentExceedsTruncation(SeriesError):
    """Raised when a requested monomial exponent lies beyond the truncation."""


class NeedsLaurent(SeriesError):
    """Raised when a value has genuinely negative q-exponents.

    The core ring is a power-series ring; anything that retains a nonzero
    coefficient on a negative power of q cannot be represented in it.
    """


def _norm(x: Coeff) -> Coeff:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    return x


class TruncatedSeries:
    """A power series in q known exactly through q^trunc."""

    __slots__ = ("_c", "trunc")

    def __init__(self, coeffs: Iterable[Coeff], trunc: int | None = None):
        data = [_norm(c) for c in coeffs]
        if trunc is None:
            trunc = len(data) - 1
            if trunc < 0:
                raise ValueError("a series needs at least the q^0 coefficient")
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        if len(data) < trunc + 1:
            data.extend([0] * (trunc + 1 - len(data)))
        elif len(data) > trunc + 1:
            data = data[: trunc + 1]
        self._c = tuple(data)
        self.trunc = trunc

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(trunc: int) -> "TruncatedSeries":
        return TruncatedSeries([0], trunc)

    @staticmethod
    def one(trunc: int) -> "TruncatedSeries":
        return TruncatedSeries([1], trunc)

    # -- inspection ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Coeff, ...]:
        return self._c

    def coeff(self, i: int) -> Coeff:
        if i < 0:
            return 0
        if i > self.trunc:
            raise ExponentExceedsTruncation(
                f"coefficient of q^{i} unknown at truncation {self.trunc}"
            )
        return self._c[i]

    def is_zero(self) -> bool:
        return not any(self._c)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None for the zero series."""
        for i, c in enumerate(self._c):
            if c:
                return i
        return None

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        return TruncatedSeries(
            [self._c[i] + other._c[i] for i in range(t + 1)], t
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        return TruncatedSeries(
            [self._c[i] - other._c[i] for i in range(t + 1)], t
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._c], self.trunc)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            t = min(self.trunc, other.trunc)
            out: list[Coeff] = [0] * (t + 1)
            a, b = self._c, other._c
            for i in range(t + 1):
                ai = a[i]
                if not ai:
                    continue
                for j in range(t + 1 - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
            return TruncatedSeries(out, t)
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self._c], self.trunc)
        return NotImplemented

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self._c
        if not a[0]:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        t = self.trunc
        inv0 = Fraction(1, 1) / a[0] if a[0] != 1 else 1
        out: list[Coeff] = [0] * (t + 1)
        out[0] = _norm(inv0)
        for i in range(1, t + 1):
            acc: Coeff = 0
            for j in range(1, i + 1):
                aj = a[j]
                if aj:
                    acc += aj * out[i - j]
            out[i] = _norm(-acc * inv0 if acc else 0)
        return TruncatedSeries(out, t)

    def truncate(self, t: int) -> "TruncatedSeries":
        if t > self.trunc:
            raise ExponentExceedsTruncation(
                f"cannot extend truncation {self.trunc} to {t}"
            )
        return TruncatedSeries(self._c[: t + 1], t)

    def shift(self, m: int) -> "TruncatedSeries":
        """Multiply by q^m (m >= 0), keeping the truncation order."""
        if m < 0:
            raise NeedsLaurent("negative shift leaves the power-series ring")
        if m == 0:
            return self
        out = [0] * (self.trunc + 1)
        for i in range(self.trunc + 1 - m):
            out[i + m] = self._c[i]
        return TruncatedSeries(out, self.trunc)

    # -- comparison ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        return all(self._c[i] == other._c[i] for i in range(t + 1))

    __hash__ = None  # mutable-feeling value type; comparisons are by alignment

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self._c):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"q^{i}" if i > 1 else "q")
            else:
                terms.append(f"{c}*q^{i}" if i > 1 else f"{c}*q")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{body} (mod q^{self.trunc + 1})>"


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return a + b


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return a * b


def series_invert(a: TruncatedSeries) -> TruncatedSeries:
    return a.invert()


def series_compare(a: TruncatedSeries, b: TruncatedSeries):
    """None when equal through the common truncation, else (i, a_i, b_i)."""
    t = min(a.trunc, b.trunc)
    for i in range(t + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return i, a.coeffs[i], b.coeffs[i]
    return None


class MonomialParam:
    """A parameter specialised to c * q^e for an exact rational c and integer e.

    Identity parameters in this package are always powers of q, so a pair
    (coefficient, exponent) captures them exactly; products and quotients of
    parameters stay in the same family.
    """

    __slots__ = ("coeff", "exp")

    def __init__(self, coeff: Coeff = 1, exp: int = 1):
        self.coeff = _norm(coeff)
        self.exp = exp

    @staticmethod
    def q_power(e: int) -> "MonomialParam":
        return MonomialParam(1, e)

    def __mul__(self, other: "MonomialParam") -> "MonomialParam":
        return MonomialParam(self.coeff * other.coeff, self.exp + other.exp)

    def shifted(self, de: int) -> "MonomialParam":
        """The parameter times q^de."""
        return MonomialParam(self.coeff, self.exp + de)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialParam)
            and self.coeff == other.coeff
            and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.coeff, self.exp))

    def __repr__(self) -> str:
        if self.coeff == 1:
            return f"q^{self.exp}"
        return f"{self.coeff}*q^{self.exp}"


def monomial(p: MonomialParam, trunc: int) -> TruncatedSeries:
    """The series c * q^e for p = (c, e), with 0 <= e <= trunc."""
    if p.exp < 0:
        raise NeedsLaurent(f"monomial exponent {p.exp} is negative")
    if p.exp > trunc:
        raise ExponentExceedsTruncation(
            f"monomial exponent {p.exp} exceeds truncation {trunc}"
        )
    out: list[Coeff] = [0] * (trunc + 1)
    out[p.exp] = p.coeff
    return TruncatedSeries(out, trunc)

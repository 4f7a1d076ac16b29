"""The truncation order and the read-only power-series result type.

The engine computes with :class:`~qrr.pochhammer.PochProduct` terms summed
into ``(offset, coeffs)`` buffers, where ``coeffs[i]`` is the coefficient of
q^(offset+i).  A :class:`TruncatedSeries` is what the public evaluators hand
back: the coefficients of q^0 .. q^T of such a value, built by
:func:`power_series`, which refuses a value that keeps a nonzero coefficient
on a negative power of q.  Coefficients are exact: Python ints, or
:class:`fractions.Fraction` normalised back to int whenever the denominator
is 1.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Union

Coeff = Union[int, Fraction]

DEFAULT_TRUNCATION = 60

# The highest truncation order any call, QRR_TRUNC and the command line
# accept.  Every check works on O(T) buffers with O(T) passes per term, so a
# mistyped T of millions would run for hours.  The deepest order in regular use is T=300
# (the Rogers-Ramanujan limit checks).
MAX_TRUNCATION = 10_000


def env_truncation() -> int | None:
    """The truncation order set by the QRR_TRUNC environment variable, or
    None when it is unset; raises ValueError unless it is an integer in
    1..MAX_TRUNCATION."""
    raw = os.environ.get("QRR_TRUNC")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"QRR_TRUNC must be an integer >= 1, got {raw!r}") from None
    if not 1 <= value <= MAX_TRUNCATION:
        raise ValueError(f"QRR_TRUNC must be in 1..{MAX_TRUNCATION}, got {value}")
    return value


def default_truncation(trunc: int | None = None, *,
                       fallback: int = DEFAULT_TRUNCATION) -> int:
    """The truncation order a call works at: ``trunc`` when the caller passes
    one, else the QRR_TRUNC environment variable (so the whole suite can be
    re-run at a different precision without touching call sites), else
    ``fallback`` (a record's own default, or 60).

    Raises ValueError unless the order is an integer in 1..MAX_TRUNCATION;
    a negative order would make a check that compares no coefficient pass.
    """
    if trunc is None:
        value = env_truncation()
        return fallback if value is None else value
    if (isinstance(trunc, bool) or not isinstance(trunc, int)
            or not 1 <= trunc <= MAX_TRUNCATION):
        raise ValueError(f"the truncation order must be an integer in "
                         f"1..{MAX_TRUNCATION}, got {trunc!r}")
    return trunc


class SeriesError(Exception):
    """Base class for evaluation failures."""


class ExponentExceedsTruncation(SeriesError):
    """Raised when a requested coefficient lies beyond the truncation."""


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self.trunc, other.trunc)
        return all(self._c[i] == other._c[i] for i in range(t + 1))

    __hash__ = None  # equality is by alignment, which a hash cannot follow

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


def power_series(value: tuple[int, list], trunc: int,
                 what: str = "sum") -> TruncatedSeries:
    """The (offset, coeffs) value as a power series through q^trunc.

    Raises NeedsLaurent if a negative q-exponent keeps a nonzero coefficient
    (individual terms may pass through negative exponents; only the total
    matters).  `what` names the value in that message.
    """
    offset, buf = value
    if offset < 0:
        head, buf = buf[:-offset], buf[-offset:]
        if any(head):
            first = next(i for i, c in enumerate(head) if c)
            raise NeedsLaurent(
                f"{what} retains q^{offset + first} with coefficient {head[first]}"
            )
    else:
        buf = [0] * offset + buf
    return TruncatedSeries(buf, trunc)

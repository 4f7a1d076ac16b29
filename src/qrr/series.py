"""The truncation order and the one boundary to a plain power series.

The engine computes with :class:`~qrr.pochhammer.PochProduct` terms summed
into ``(offset, coeffs)`` buffers, where ``coeffs[i]`` is the coefficient of
q^(offset+i).  The public evaluators hand back the plain list of the
coefficients of q^0 .. q^T of such a value, built by :func:`power_series`,
which refuses a value that keeps a nonzero coefficient on a negative power
of q.  Coefficients are exact integers.
"""

from __future__ import annotations

import os
from contextlib import suppress

DEFAULT_TRUNCATION = 60

# The highest truncation order any call, QRR_TRUNC and the command line
# accept.  Every check of term lists with int coefficients, the EULER
# records and the certificates included, is decided at one integer point
# (``framework.sum_sides``), but past its degree bound that point is a
# residue of O(T b) bits, and the Rogers-Ramanujan limits, every MISMATCH
# window and every side evaluation work on O(T) buffers with O(T) passes
# per term, so a mistyped T of millions would run for hours.  The deepest
# order in regular use is T=300 (the Rogers-Ramanujan limit checks).
MAX_TRUNCATION = 10_000


def checked_truncation(name: str, value) -> int:
    """``value`` if it is an integer in 1..MAX_TRUNCATION, else ValueError
    naming ``name``; a negative order would make a check that compares no
    coefficient pass."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 1 <= value <= MAX_TRUNCATION):
        raise ValueError(f"{name} must be an integer in 1..{MAX_TRUNCATION}, got {value!r}")
    return value


def env_truncation() -> int | None:
    """The truncation order set by the QRR_TRUNC environment variable, or
    None when it is unset; checked by :func:`checked_truncation`."""
    raw = os.environ.get("QRR_TRUNC")
    if raw is None:
        return None
    with suppress(ValueError):
        raw = int(raw)
    return checked_truncation("QRR_TRUNC", raw)


def default_truncation(trunc: int | None = None, *,
                       fallback: int = DEFAULT_TRUNCATION) -> int:
    """The truncation order a call works at: ``trunc`` when the caller passes
    one, else the QRR_TRUNC environment variable (so the whole suite can be
    re-run at a different precision without touching call sites), else
    ``fallback`` (a record's own default, or 60).  A given order is checked
    by :func:`checked_truncation`.
    """
    if trunc is None:
        value = env_truncation()
        return fallback if value is None else value
    return checked_truncation("the truncation order", trunc)


class SeriesError(Exception):
    """Base class for evaluation failures."""


class NeedsLaurent(SeriesError):
    """Raised when a value has genuinely negative q-exponents.

    The core ring is a power-series ring; anything that retains a nonzero
    coefficient on a negative power of q cannot be represented in it.
    """


def power_series(value: tuple[int, list], trunc: int, what: str = "sum") -> list:
    """The coefficients of q^0 .. q^trunc of the (offset, coeffs) value, as
    a list of trunc + 1 entries, padded with zeros or clipped.

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
    return buf[:trunc + 1] + [0] * (trunc + 1 - len(buf))

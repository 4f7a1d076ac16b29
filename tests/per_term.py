"""The per-term renderer, kept as a slow cross-check of the nested summation.

Each product is rendered on its own, one O(T) binomial pass per factor, and
added into the output with its scalar and shift.  This is how
``SeriesAccumulator.value`` summed before it evaluated over term ratios; the
differential tests compare the two on random products and on every registry
side, and the image of its sum of the L-cleared terms with the packed
route's ``pochhammer.packed_sum`` on every registry side.
"""

from qrr import pochhammer
from qrr.pochhammer import PoleError


def render_unit(term, length):
    """Coefficients 0..length of prod (1-q^m)^powers[m] (scalar and shift
    excluded).  Factors with m > length cannot touch the window and are
    skipped, which keeps each pass O(length)."""
    if term.state != "ok":
        raise PoleError(f"cannot render a {term.state} product")
    buf = [0] * (length + 1)
    buf[0] = 1
    for m in sorted(term.powers):
        if m == 0 or m > length:
            continue
        t = term.powers[m]
        kernel = pochhammer.mul_binomial if t > 0 else pochhammer.div_binomial
        for _ in range(abs(t)):
            kernel(buf, m, 0)
    return buf


def passes(terms, trunc):
    """Kernel passes the per-term renderer makes on `terms` (zero terms are
    skipped before rendering)."""
    return sum(abs(t) for term in terms
               if term.state == "ok" and term.shift <= trunc
               for m, t in term.powers.items() if 0 < m <= trunc - term.shift)


def sum_per_term(terms, trunc):
    """(offset, coeffs) of the sum of `terms` through q^trunc; zero terms are
    skipped and the first pole raises PoleError, with the accumulator's
    message."""
    for t in terms:
        if t.state == "pole":
            raise PoleError(f"pole term reached the accumulator: {t!r}")
    kept = [t for t in terms if t.state == "ok"]
    offset = min([0] + [t.shift for t in kept])
    out = [0] * (trunc - offset + 1)
    for t in kept:
        if t.shift > trunc:
            continue
        unit = render_unit(t, trunc - t.shift)
        base = t.shift - offset
        for i, u in enumerate(unit):
            if u:
                out[base + i] += t.coeff * u
    return offset, out

"""A naive dense oracle for differential tests of the term algebra.

It imports nothing from qrr and shares none of its (1 - q^m) kernels.  A
product  scale * q^shift * prod_{m in num} (1-q^m) / prod_{m in den} (1-q^m)
is expanded by multiplying plain coefficient lists with a generic
convolution and dividing by generic power-series inversion, exactly.
"""

from fractions import Fraction


def convolve(a, b, n):
    """The first n coefficients of the product of coefficient lists a, b."""
    out = [0] * n
    for j, y in enumerate(b[:n]):
        if y:
            for i, x in enumerate(a[:n - j]):
                out[i + j] += x * y
    return out


def invert(a, n):
    """The first n coefficients of 1/a; needs a nonzero constant term."""
    if not a or not a[0]:
        raise ZeroDivisionError("no inverse without a constant term")
    out = []
    for i in range(n):
        acc = (i == 0) - sum(a[j] * out[i - j] for j in range(1, min(i, len(a) - 1) + 1))
        c = Fraction(acc) / a[0]
        out.append(c.numerator if c.denominator == 1 else c)
    return out


def binomial(m):
    """Coefficients of (1 - q^m) / q^min(m, 0), for any integer m."""
    out = [0] * (abs(m) + 1)
    out[0] += 1 if m >= 0 else -1
    out[-1] += -1 if m >= 0 else 1
    return out


def poch(e, n):
    """(num, den): the factor exponents of (q^e; q)_n for any integer n."""
    if n >= 0:
        return list(range(e, e + n)), []
    return [], list(range(e + n, e))


def expand(scale, shift, num, den, trunc):
    """{exponent: coefficient} of the nonzero terms through q^trunc.

    A zero factor (m = 0) in `num` makes the value zero; one in `den` raises
    ZeroDivisionError."""
    low = shift + sum(min(m, 0) for m in num) - sum(min(m, 0) for m in den)
    n = trunc - low + 1
    if n <= 0:
        return {}
    top, bottom = [1], [1]
    for m in num:
        top = convolve(top, binomial(m), n)
    for m in den:
        bottom = convolve(bottom, binomial(m), n)
    coeffs = convolve(top, invert(bottom, n), n)
    return {low + i: scale * c for i, c in enumerate(coeffs) if c}


def as_dict(value, trunc):
    """{exponent: coefficient} of the nonzero terms of an (offset, coeffs)
    value through q^trunc."""
    off, buf = value
    return {off + i: c for i, c in enumerate(buf) if c and off + i <= trunc}

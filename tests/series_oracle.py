"""The series route, kept as the slow oracle of the point routes.

``framework.sum_sides`` decides a check at one integer point: term by term
at q = 2^b, or on one packed integer modulo 2^(b(T + 1 - s_min)).  This
oracle takes the same values the old way, on the list kernels, and
compares them coefficient by coefficient.  Each side is rendered term by
term by ``per_term.sum_per_term``, one binomial pass per factor of each
term, and then divided once by (q; q)_inf for each division it owes, with
``div_euler`` through ``framework``'s binding.  It shares none of the
nested plans of ``SeriesAccumulator`` and ``pochhammer.packed_sum`` (their
ratios, pass counts and chains) and divides by no unit, so a fault there
cannot move the packed route and its oracle together.

The depth is the program's: min(T, B + 2), B the degree bound read through
``framework.shared_unit``, where no side owes a (q; q)_inf division, and T
otherwise; so a test that patches ``shared_unit`` moves the oracle too.
:func:`sum_sides` returns a :class:`Sums` of :class:`Value`s, which
``compare_sides``, ``compare_checks`` and the certificates of
``telescoping`` take as they take the point routes' ints.
"""

import per_term
from qrr import telescoping
from qrr.identities import framework


class Value:
    """A sum through q^depth as (offset, coeffs), coeffs[i] the coefficient
    of q^(offset+i), with + and - and truthiness: true when some
    coefficient is nonzero.  0 adds as the zero sum."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs):
        self.offset, self.coeffs = offset, coeffs

    def combine(self, other, scale):
        """self + scale * other, aligned to the lower offset."""
        if isinstance(other, int) and other == 0:
            return self
        off = min(self.offset, other.offset)
        out = [0] * (self.offset - off) + self.coeffs
        at = other.offset - off
        out += [0] * (at + len(other.coeffs) - len(out))
        for i, c in enumerate(other.coeffs):
            out[at + i] += scale * c
        return Value(off, out)

    def __add__(self, other):
        return self.combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self.combine(other, -1)

    def __bool__(self):
        return any(self.coeffs)


class Sums(framework.Sums):
    """The oracle's values, whose :meth:`first` reads the lowest nonzero
    coefficient of a residue's buffer."""

    def first(self, d):
        return d.offset + next(i for i, c in enumerate(d.coeffs) if c)


def side_value(terms, euler, trunc):
    """The sum of ``terms`` through q^trunc, each rendered on its own,
    divided ``euler`` times by (q; q)_inf, as (offset, coeffs)."""
    offset, buf = per_term.sum_per_term(terms, trunc)
    for _ in range(euler):
        framework.div_euler(buf)
    return offset, buf


def sum_sides(sides, trunc):
    """Each side, given as (terms, euler), summed through the depth of
    ``framework.sum_sides`` by :func:`side_value` as a :class:`Value`; the
    :class:`Sums` has no base and no modulus."""
    lists = [terms for terms, _ in sides]
    bound, low, _ = framework.shared_unit(*lists)
    euler = any(e for _, e in sides)
    depth = bound + 2 if not euler and bound is not None and bound + 2 <= trunc else trunc
    values = [Value(*side_value(terms, e, depth)) for terms, e in sides]
    return Sums(values, depth, 0, low or 0, 0)


def install(monkeypatch, oracle=sum_sides):
    """Put ``oracle``, by default :func:`sum_sides`, at every binding the
    program calls ``sum_sides`` by."""
    for module in (framework, telescoping):
        monkeypatch.setattr(module, "sum_sides", oracle)

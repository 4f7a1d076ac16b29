"""The point route: a check decided by one exact integer evaluation.

Where no side owes a (q; q)_inf division, every coefficient is an int and
the degree bound B of ``pochhammer.shared_unit`` satisfies B + 2 <= T,
``framework.sum_sides`` evaluates each term list, every term times
q^-s_min prod (1-q^m)^-lambda_m, at q = 2^b with 2^b above the coefficient
majorant H (``pochhammer.point_values``), and no kernel pass is made.

Here the point route is cross-checked against the series route, which the
``series_route`` fixture forces: on every default-grid point at T = 40 and
the deep-window sample at T = 160, on every mutation probe of the
benchmark's mutation control at T = 18, and on both certificates at every
default point.  Negative controls show that b matters and that one term
off by one factor, by its scalar or by its shift is caught.
"""

from fractions import Fraction
from itertools import product

import pytest

from qrr import cli, pochhammer, telescoping
from qrr.identities import REGISTRY, engine, framework
from qrr.identities.framework import compare_sides, side_terms
from qrr.pochhammer import PochProduct, PoleError, point_value, point_values
from qrr.series import SeriesError
from test_degree_bound import _deep_window_points
from test_nested import _report
from test_telescoping import DEFAULT_POINTS


@pytest.fixture
def taken(monkeypatch):
    """framework.point_values, recorded: the base b of each check it
    decides, or None for each it declines."""
    bases = []

    def recorded(*args):
        out = pochhammer.point_values(*args)
        bases.append(None if out is None else out[0])
        return out

    monkeypatch.setattr(framework, "point_values", recorded)
    return bases


def _series(monkeypatch, run):
    """``run()`` with every check forced onto the series route."""
    with monkeypatch.context() as mp:
        mp.setattr(framework, "point_values", lambda *args: None)
        return run()


# ---------------------------------------------------------------------------
# the point route against the series route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sample,decided", [("sweep", 10_191), ("deep-window", 909)])
def test_point_route_reports_are_the_series_reports(sample, decided, taken, monkeypatch):
    if sample == "sweep":
        points, trunc = [(ident, p) for ident in engine.list_identities()
                         for p in engine.grid_points(engine.get_record(ident))], 40
    else:
        points, trunc = _deep_window_points()

    def reports():
        return [cli.report_json(engine.verify(ident, params, trunc))
                for ident, params in points]

    got = reports()
    assert sum(b is not None for b in taken) == decided
    assert got == _series(monkeypatch, reports)


MUTATION_T = 18


def _probe(ident, params, site, delta):
    try:
        rep = engine.verify_mutated(ident, params, site, delta, MUTATION_T)
    except SeriesError as exc:
        return type(exc).__name__
    return rep.verdict, rep.mismatch_index, rep.lhs_window, rep.rhs_window


def test_mutation_probes_report_alike_on_both_routes(taken, monkeypatch):
    # every site of every record at its floor plus 1, bumped by +1 and -1
    # at the floor plus 1 and plus 2: the probes of the benchmark's
    # mutation control, each run to its outcome
    probes = []
    for ident, rec in sorted(REGISTRY.items()):
        base = {p.name: p.low + 1 for p in rec.params}
        points = (base, {p.name: p.low + 2 for p in rec.params})
        for site in engine.identity_sites(ident, base, MUTATION_T):
            probes += [(ident, params, site, delta)
                       for delta, params in product((1, -1), points)]

    def outcomes():
        return [_probe(*probe) for probe in probes]

    got = outcomes()
    decided = sum(b is not None for b in taken)
    mismatches = sum(isinstance(o, tuple) and o[0] == "MISMATCH" for o in got)
    assert (len(probes), decided, mismatches) == (3212, 1413, 3074)
    assert got == _series(monkeypatch, outcomes)


def test_certificate_reports_are_alike_on_both_routes(taken, monkeypatch):
    certificates = (telescoping.verify_telescoping, telescoping.verify_sk_tk)

    def reports(certify):
        return [certify(*point, 40) for point in DEFAULT_POINTS]

    got = []
    # B + 2 <= T at 491 telescoping and 524 termwise points
    for certify, decided in zip(certificates, (491, 524)):
        del taken[:]
        got.append(reports(certify))
        assert len(taken) == decided and None not in taken
    assert all(rep.equal for reps in got for rep in reps)
    assert got == _series(monkeypatch, lambda: [reports(c) for c in certificates])


class _Combination:
    """A formal integer combination of a certificate's term lists, standing
    in for their values; comparing two records their difference and reads
    equal."""

    def __init__(self, coeffs, checks):
        self.coeffs, self.checks = coeffs, checks

    def __add__(self, other):
        if isinstance(other, int):
            assert other == 0
            return self
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return _Combination({i: c for i, c in out.items() if c}, self.checks)

    __radd__ = __add__

    def __rmul__(self, scale):
        return _Combination({i: scale * c for i, c in self.coeffs.items()}, self.checks)

    def __eq__(self, other):
        self.checks.append((self + -1 * other).coeffs)
        return True


@pytest.mark.parametrize("certify", [telescoping.verify_telescoping, telescoping.verify_sk_tk])
@pytest.mark.parametrize("point", [(0, 0, 0, 1, 1), (1, 2, 3, 1, 2), (3, 3, 3, 3, 3)])
def test_every_certificate_check_is_a_signed_combination_of_distinct_lists(
        certify, point, monkeypatch):
    # so the one majorant H of all the lists' terms bounds every check
    checks = []

    def formal(sides, trunc):
        return framework.Sums([_Combination({i: 1}, checks) for i in range(len(sides))],
                              0, {}, 1, 0)

    monkeypatch.setattr(telescoping, "sum_sides", formal)
    rep = certify(*point, 40)
    assert len(checks) == len(rep.checks) > 0
    for combination in checks:
        assert combination and set(combination.values()) <= {1, -1}


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------


def test_a_base_at_or_below_the_majorant_reads_an_unequal_pair_equal(monkeypatch):
    # 2 against q: R = 2 - q vanishes at q = 2, so b = 1 (2^b = 2 <= H = 3)
    # is blind to it, and point_values takes b = 2
    two, q = [PochProduct().scale(2)], [PochProduct().q(1)]
    assert point_value(two, 1, 0, {}) == point_value(q, 1, 0, {}) == 2
    assert point_values([two, q], 0, {}) == (2, [2, 4])
    rep = compare_sides("X", {}, 30, (two, 0), (q, 0))
    assert (rep.verdict, rep.mismatch_index) == ("MISMATCH", 0)
    monkeypatch.setattr(framework, "point_values", lambda lists, low, clear: (
        1, [point_value(terms, 1, low, clear) for terms in lists]))
    assert compare_sides("X", {}, 30, (two, 0), (q, 0)).verdict == "EQUAL"


def _off_by_one(term, kind, delta):
    t = term.copy()
    if kind == "scalar":
        t.coeff += delta
    elif kind == "shift":
        t.shift += delta
    else:
        t.factor(min(t.powers, default=1), delta)
    return t


@pytest.mark.parametrize("kind", ["factor", "scalar", "shift"])
@pytest.mark.parametrize("delta", [1, -1])
def test_a_term_off_by_one_is_caught(kind, delta, taken, monkeypatch):
    caught = 0
    for ident in ("ABCDE1", "ANDREWS1", "LMNR1", "LMNRS3", "QINV1"):
        rec = REGISTRY[ident]
        env = {p.name: p.low + 2 for p in rec.params}
        (lhs, _), rhs = (side_terms(rec, side, env, 200) for side in ("lhs", "rhs"))
        for i in {0, len(lhs) // 2, len(lhs) - 1}:
            sides = ([_off_by_one(t, kind, delta) if j == i else t
                      for j, t in enumerate(lhs)], 0), rhs
            del taken[:]
            rep = compare_sides(ident, env, 200, *sides)
            assert taken[0] is not None, (ident, i)
            assert rep.verdict == "MISMATCH", (ident, i)
            assert _report(rep) == _report(
                _series(monkeypatch, lambda: compare_sides(ident, env, 200, *sides)))
            caught += 1
    assert caught >= 10


def test_a_coefficient_that_is_not_an_int_takes_the_series_route(taken):
    half = PochProduct().scale(Fraction(1, 2))
    rep = compare_sides("X", {}, 30, ([half.copy().factor(1)], 0),
                        ([half, half.copy().q(1).scale(-1)], 0))
    assert rep.equal and taken == [None]
    rep = compare_sides("X", {}, 30, ([half], 0), ([half.copy().q(1)], 0))
    assert (rep.verdict, rep.mismatch_index, rep.lhs_window[0]) == (
        "MISMATCH", 0, (0, Fraction(1, 2)))


def test_a_pole_raises_alike_on_both_routes(monkeypatch):
    pole = PochProduct().factor(0, -1)
    sides = ([PochProduct(), pole], 0), ([PochProduct()], 0)
    with pytest.raises(PoleError, match="pole term reached the accumulator") as point:
        compare_sides("X", {}, 30, *sides)
    with pytest.raises(PoleError) as series:
        _series(monkeypatch, lambda: compare_sides("X", {}, 30, *sides))
    assert str(point.value) == str(series.value)


def test_a_point_that_disagrees_with_the_series_raises(monkeypatch):
    # a point value off by one in the last digit reads a difference that the
    # sums of the pair do not show
    real = pochhammer.point_values

    def skewed(lists, low, clear):
        base, values = real(lists, low, clear)
        return base, values[:-1] + [values[-1] + 1]

    monkeypatch.setattr(framework, "point_values", skewed)
    with pytest.raises(framework.EngineError, match="the point and the series disagree"):
        engine.verify("ANDREWS1", {"n": 2}, 40)
    assert engine.verify("EULERN1", {"n": 2}, 40).equal       # the series route

"""The degree bound B of a check, and the depth its two sides are summed to.

Besides s_min and the clearing L, ``pochhammer.shared_unit`` reads the
degree bound B off the terms of a check: D = prod (1-q^m)^d_m, with d_m the largest
denominator multiplicity of (1-q^m), clears every denominator, and every
term times D is a Laurent polynomial of degree at most B.  D is a unit with
D(0) = 1, so the two sums are equal or first differ at some q^e with
e <= B.  ``framework.compare_sides`` sums neither side: it decides the
check at one integer point, term by term where B + 2 <= T and no side owes
a (q; q)_inf division and on one packed integer modulo
2^(b(T + 1 - s_min)) otherwise, and sums only a MISMATCH pair, through
q^min(T, e+2).  The series route of ``series_oracle`` sums both sides
through q^min(T, B + 2) when neither owes that division.

Here B is checked against the dense oracle, which shares no kernel with
the program; the capped reports against the full-depth ones, on every
route at the edges of the bound and on the series and packed routes at
every default-grid point; and the kernel work against T.
"""

from pathlib import Path

import pytest

import series_oracle
from dense_oracle import expand
from qrr import cli
from qrr.identities import engine, framework
from qrr.identities.framework import compare, compare_sides, side_value
from qrr.pochhammer import PochProduct, shared_unit
from test_nested import _corner_sides, _count_kernels, _full_depth, _report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _term(coeff, shift, *factors):
    t = PochProduct().scale(coeff).q(shift)
    for m, times in factors:
        t.factor(m, times)
    return t


# ---------------------------------------------------------------------------
# B against the dense oracle
# ---------------------------------------------------------------------------


def test_every_cleared_term_stays_within_the_bound():
    checked = 0
    for ident, _, env, sides in _corner_sides(40):
        lists = [terms for terms, _ in sides.values()]
        bound, _, _ = shared_unit(*lists)
        terms = [t for terms in lists for t in terms if t.state == "ok"]
        if not terms:
            assert bound is None, (ident, env)
            continue
        clear = {}
        for t in terms:
            for m, e in t.powers.items():
                clear[m] = max(clear.get(m, 0), -e)
        top = None
        for t in terms:
            num = [m for m in clear.keys() | t.powers.keys()
                   for _ in range(t.powers.get(m, 0) + clear.get(m, 0))]
            poly = expand(t.coeff, t.shift, num, [], bound + 8)
            assert poly and max(poly) <= bound, (ident, env, t)
            top = max(poly) if top is None else max(top, max(poly))
            checked += 1
        # each cleared term's leading coefficient is +-c, so the bound is met
        assert top == bound, (ident, env)
    assert checked > 2000


# ---------------------------------------------------------------------------
# negative controls at the edges of the bound
# ---------------------------------------------------------------------------


def _as_full_compare(lhs, rhs, trunc, monkeypatch):
    """compare_sides' report on the oracle's series route and on a point
    route, each of which must be compare's on the undivided sums through
    q^trunc; returns it, the depth both sides were summed to on the series
    route, and the depths of the sums of the MISMATCH pair (none for an
    EQUAL), which both routes sum alike."""
    want = compare("X", {}, trunc, side_value(*lhs, trunc), side_value(*rhs, trunc))
    depths = []

    def recorded(real):
        def summed(terms, euler, trunc):
            depths.append(trunc)
            return real(terms, euler, trunc)
        return summed

    # the oracle's own sums, then those of the pair
    for module in (series_oracle, framework):
        monkeypatch.setattr(module, "side_value", recorded(module.side_value))
    with monkeypatch.context() as mp:
        series_oracle.install(mp)
        got = compare_sides("X", {}, trunc, lhs, rhs)
    depth, *series = depths
    del depths[:]
    assert _report(got) == _report(want)
    assert _report(compare_sides("X", {}, trunc, lhs, rhs)) == _report(want)
    assert series == [depth] + depths
    return got, depth, depths


# L - R = q^5 / (1 - q^3): D = 1 - q^3, and the cleared terms have degrees
# 5, 3 and 4, so the first difference lies exactly at q^B
AT_B = ([_term(1, 3, (1, 2), (3, -1))], 0), ([_term(1, 3, (3, -1)), _term(-2, 4, (3, -1))], 0)


def test_a_difference_exactly_at_the_bound(monkeypatch):
    bound, _, _ = shared_unit(AT_B[0][0], AT_B[1][0])
    assert bound == 5
    rep, depth, pair = _as_full_compare(*AT_B, 30, monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", 5, 7, [7, 7])
    assert [e for e, _ in rep.lhs_window] == [3, 4, 5, 6, 7]
    # with the difference added to the right side the two agree
    lhs, (terms, _) = AT_B
    rep, depth, pair = _as_full_compare(lhs, (terms + [_term(1, 5, (3, -1))], 0), 30,
                                        monkeypatch)
    assert (rep.verdict, depth, pair) == ("EQUAL", 7, [])


def test_a_bound_at_or_past_the_truncation_order_sums_through_it(monkeypatch):
    # B + 2 > T: the series route sums through q^T, and the packed route
    # sums only a MISMATCH pair, through q^min(T, e+2)
    rep, depth, pair = _as_full_compare(*AT_B, 5, monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", 5, 5, [5, 5])
    assert [e for e, _ in rep.rhs_window] == [3, 4, 5]
    rep, depth, pair = _as_full_compare(*AT_B, 4, monkeypatch)
    assert (rep.verdict, depth, pair) == ("EQUAL", 4, [])
    # B + 2 = T: both
    rep, depth, pair = _as_full_compare(*AT_B, 7, monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", 5, 7, [7, 7])


def test_a_negative_bound(monkeypatch):
    # q^-7 (1 - q) against q^-7 - 2 q^-6: B = -6, summed through q^-4
    lhs = ([_term(1, -7, (1, 1))], 0)
    rep, depth, pair = _as_full_compare(lhs, ([_term(1, -7), _term(-2, -6)], 0), 30,
                                        monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", -6, -4, [-4, -4])
    assert [e for e, _ in rep.lhs_window] == [-7, -6, -5, -4]
    rep, depth, pair = _as_full_compare(lhs, ([_term(1, -7), _term(-1, -6)], 0), 30,
                                        monkeypatch)
    assert (rep.verdict, depth, pair) == ("EQUAL", -4, [])


def test_an_empty_side(monkeypatch):
    # LIU1's closed form at a = q^3, (q; q)_2, against 0: B = 3, and the
    # pair differs first at q^0, so the point route sums it through q^2
    closed = ([engine.liu_closed_form("LIU1", 3)], 0)
    rep, depth, pair = _as_full_compare(closed, ([], 0), 30, monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", 0, 5, [2, 2])
    rep, depth, pair = _as_full_compare(([], 0), closed, 30, monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", 0, 5, [2, 2])
    # no term at all: no bound, and on the packed route nothing to sum
    rep, depth, pair = _as_full_compare(([], 0), ([], 0), 30, monkeypatch)
    assert (rep.verdict, depth, pair) == ("EQUAL", 30, [])


def test_a_side_divided_by_the_euler_product_is_summed_through_t(monkeypatch):
    # 1 / (q; q)_inf against 1 / ((1 - q)(1 - q^2)): the terms give B = 3,
    # but a (q; q)_inf division is no finite term, so both go to q^T on the
    # series route, and the packed route decides the check through q^T
    rhs = ([_term(1, 0, (1, -1), (2, -1))], 0)
    rep, depth, pair = _as_full_compare(([PochProduct()], 1), rhs, 30, monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", 3, 30, [5, 5])
    rep, depth, pair = _as_full_compare(rhs, ([PochProduct()], 1), 30, monkeypatch)
    assert (depth, pair) == (30, [5, 5])
    # 1 / prod_(m<=30) (1 - q^m) agrees with it through q^30: the packed
    # route reads EQUAL and sums nothing
    through_t = ([_term(1, 0, *((m, -1) for m in range(1, 31)))], 0)
    rep, depth, pair = _as_full_compare(([PochProduct()], 1), through_t, 30, monkeypatch)
    assert (rep.verdict, depth, pair) == ("EQUAL", 30, [])
    rep, depth, pair = _as_full_compare(([PochProduct()], 1), through_t, 31, monkeypatch)
    assert (rep.verdict, rep.mismatch_index, depth, pair) == ("MISMATCH", 31, 31, [31, 31])


# ---------------------------------------------------------------------------
# the work no longer grows with T; the reports do not change
# ---------------------------------------------------------------------------


def _verify_work(calls, ident, params, trunc):
    calls.clear()
    assert engine.verify(ident, params, trunc).equal, (ident, params, trunc)
    return dict(calls)


@pytest.mark.parametrize("ident", ["ABCDE1", "ANDREWS1", "LMNRS3", "QINV1"])
def test_an_in_scope_point_does_the_same_work_at_any_depth(ident, monkeypatch):
    calls = _count_kernels(monkeypatch)
    params = {ps.name: ps.low + 2 for ps in engine.get_record(ident).params}
    # on the series route, its passes
    with monkeypatch.context() as mp:
        series_oracle.install(mp)
        work = _verify_work(calls, ident, params, 160)
        assert work["coeff_updates"] > 0
        assert _verify_work(calls, ident, params, 10_000) == work
    # on the point route, none
    assert _verify_work(calls, ident, params, 160) == {}
    assert _verify_work(calls, ident, params, 10_000) == {}


def test_the_euler_records_work_grows_with_t(monkeypatch):
    calls = _count_kernels(monkeypatch)
    params = {"m": 4, "n": 5}
    # on the series route, through q^T
    with monkeypatch.context() as mp:
        series_oracle.install(mp)
        shallow = _verify_work(calls, "EULERMN1", params, 160)
        deep = _verify_work(calls, "EULERMN1", params, 10_000)
        assert deep["div_euler"] == shallow["div_euler"] == 1
        assert deep["coeff_updates"] > 50 * shallow["coeff_updates"]
    # on the packed route, no pass at either depth
    assert _verify_work(calls, "EULERMN1", params, 160) == {}
    assert _verify_work(calls, "EULERMN1", params, 10_000) == {}


def _reports(points, trunc):
    return [cli.report_json(engine.verify(ident, params, trunc)) for ident, params in points]


def _deep_window_points():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads.deep_window_points(1), workloads.DEEP_T


@pytest.mark.parametrize("sample", ["sweep", "deep-window"])
def test_capped_reports_are_the_full_depth_reports(sample, monkeypatch, series_route):
    if sample == "sweep":
        points, trunc = [(ident, p) for ident in engine.list_identities()
                         for p in engine.grid_points(engine.get_record(ident))], 40
    else:
        points, trunc = _deep_window_points()
    capped = _reports(points, trunc)
    _full_depth(monkeypatch)
    assert capped == _reports(points, trunc)
    assert len(capped) > (10_000 if sample == "sweep" else 900)


@pytest.mark.parametrize("sample", ["sweep", "deep-window"])
def test_full_depth_reports_take_no_pass_on_the_packed_route(sample, monkeypatch):
    # the counterpart of the test above: with no degree bound every check
    # is decided on the packed route through q^T, with no kernel pass
    if sample == "sweep":
        points, trunc = [(ident, p) for ident in engine.list_identities()
                         for p in engine.grid_points(engine.get_record(ident))], 40
    else:
        points, trunc = _deep_window_points()
    capped = _reports(points, trunc)
    calls = _count_kernels(monkeypatch)
    _full_depth(monkeypatch)
    assert capped == _reports(points, trunc)
    assert not calls

"""The point routes: a check decided by exact integer evaluation.

``framework.sum_sides`` evaluates each term list, every term times
q^-s_min prod (1-q^m)^-lambda_m, at q = 2^b with 2^b above the coefficient
majorant H, and no kernel pass is made; every coefficient must be an int.
Where no side owes a (q; q)_inf division and the degree bound B of
``pochhammer.shared_unit`` satisfies B + 2 <= T, each term is evaluated on
its own (``pochhammer.point_values``).  Any other such check takes the
packed route (``pochhammer.packed_values``): each side is summed over its
term ratios on one integer modulo 2^(bK), K = T + 1 - s_min, and a side
that owes fewer (q; q)_inf divisions than another is multiplied by the
image of Euler's pentagonal series.

Here both routes are cross-checked against the series route, the slow
oracle of ``series_oracle`` that sums each side on the list kernels: on
every default-grid point at T = 40 and the deep-window sample at T = 160,
on every mutation probe of the benchmark's mutation control at T = 18, on
both certificates at every default point, and at six points off the grids,
unperturbed and with one site moved, a MISMATCH read at a base above 50.
On each of these checks that takes the packed route, its residues are also
compared with the per-term ``point_value`` of each side reduced modulo
2^(bK), times the pentagonal image (the ``taken`` fixture).  Negative controls show that b matters on
both routes, that the pentagonal multiplication and every doubling step of
a division matter, that one term off by one factor, by its scalar or by its
shift is caught, and that a corrupted oracle fails the cross-checks.  A
coefficient that is not an int is refused by name.
"""

from fractions import Fraction
from itertools import product

import pytest

import series_oracle
from qrr import bailey, cli, pochhammer, telescoping
from qrr.identities import REGISTRY, engine, framework
from qrr.identities.framework import compare_sides, side_terms
from qrr.pochhammer import (PochProduct, PoleError, packed_sum, packed_values, point_value,
                            point_values)
from qrr.series import SeriesError
from test_degree_bound import _deep_window_points
from test_nested import _report
from test_telescoping import DEFAULT_POINTS


def _per_term_residues(sides, trunc, low, clear, base):
    """Each side's per-term ``point_value`` at q = 2^base, times the image
    of (q; q)_inf = sum_k (-1)^k q^(k(3k-1)/2), over all integers k, once
    for each division it owes fewer than the most, modulo 2^(base K),
    K = trunc + 1 - low."""
    width = max(trunc + 1 - low, 0)
    modulus = 1 << base * width
    euler = sum((-1) ** (k & 1) << base * (k * (3 * k - 1) // 2)
                for k in range(-width, width + 1) if k * (3 * k - 1) // 2 < width)
    most = max(e for _, e in sides)
    return [point_value(terms, base, low, clear) * euler ** (most - e) % modulus
            for terms, e in sides]


def _first_difference(got, want, base, low):
    """None if the residues ``got`` and ``want`` are equal, else the
    exponent of their first differing digit, low + v_2(got - want) // base:
    a small number where the residues hold thousands of digits."""
    d = got - want
    return low + ((d & -d).bit_length() - 1) // base if d else None


@pytest.fixture
def taken(monkeypatch):
    """framework.point_values and framework.packed_values, recorded: for
    each check they decide, (route, b).  Every packed residue must equal
    the per-term one; a side that does not is named by its index and the
    first exponent where they differ."""
    bases = []

    def point(*args):
        out = pochhammer.point_values(*args)
        bases.append(("point", out[0]))
        return out

    def packed(sides, trunc, low, clear):
        base, got = out = pochhammer.packed_values(sides, trunc, low, clear)
        want = _per_term_residues(sides, trunc, low, clear, base)
        assert len(got) == len(want) == len(sides)
        for i, (g, w) in enumerate(zip(got, want)):
            first = _first_difference(g, w, base, low)
            assert first is None, f"side {i} of {len(sides)} differs first at q^{first}"
        bases.append(("packed", base))
        return out

    monkeypatch.setattr(framework, "point_values", point)
    monkeypatch.setattr(framework, "packed_values", packed)
    return bases


def _sample(sample):
    """(points, T): every default-grid point at T = 40 for the sweep, or
    the deep-window sample at its T."""
    if sample == "sweep":
        return [(ident, p) for ident in engine.list_identities()
                for p in engine.grid_points(engine.get_record(ident))], 40
    return _deep_window_points()


def _decided(taken):
    """(per term, packed): the checks each point route decided."""
    return tuple(sum(r == route for r, _ in taken) for route in ("point", "packed"))


def _series(monkeypatch, run, oracle=series_oracle.sum_sides):
    """``run()`` with every check on the series route of ``oracle``."""
    with monkeypatch.context() as mp:
        series_oracle.install(mp, oracle)
        return run()


# ---------------------------------------------------------------------------
# the point route against the series route
# ---------------------------------------------------------------------------


# the checks of each sample that take the packed route, every other being
# decided term by term
PACKED = {"sweep": 473, "deep-window": 85}


@pytest.mark.parametrize("sample,decided", [("sweep", 10_191), ("deep-window", 909)])
def test_point_route_reports_are_the_series_reports(sample, decided, taken, monkeypatch):
    points, trunc = _sample(sample)

    def reports():
        return [cli.report_json(engine.verify(ident, params, trunc))
                for ident, params in points]

    got = reports()
    assert _decided(taken) == (decided, PACKED[sample])
    assert decided + PACKED[sample] == len(points)
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
    mismatches = sum(isinstance(o, tuple) and o[0] == "MISMATCH" for o in got)
    assert (len(probes), _decided(taken), mismatches) == (3212, (1413, 1791), 3074)
    assert got == _series(monkeypatch, outcomes)


def test_certificate_reports_are_alike_on_both_routes(taken, monkeypatch):
    certificates = (telescoping.verify_telescoping, telescoping.verify_sk_tk)

    def reports(certify):
        return [certify(*point, 40) for point in DEFAULT_POINTS]

    got = []
    # B + 2 <= T at 491 telescoping and 524 termwise points, and every
    # other point takes the packed route
    for certify, decided in zip(certificates, ((491, 85), (524, 52))):
        del taken[:]
        got.append(reports(certify))
        assert _decided(taken) == decided and len(taken) == len(DEFAULT_POINTS)
    assert all(rep.equal for reps in got for rep in reps)
    assert got == _series(monkeypatch, lambda: [reports(c) for c in certificates])


# points past the default grids and depths past the benchmark's, where a
# per-term or a series evaluation would be dearer
OFF_GRID = [("ANDREWS1", {"n": 48}, 40), ("ANDREWS1", {"n": 48}, 400),
            ("ANDREWS2", {"n": 30}, 160), ("EULERMN1", {"m": 6, "n": 6}, 1000),
            ("EULERN2", {"n": 20}, 600), ("LMNRS3", dict.fromkeys("lmnuv", 10), 300)]


@pytest.mark.parametrize("ident,params,trunc", OFF_GRID)
def test_off_grid_reports_are_alike_on_both_routes(ident, params, trunc, taken, monkeypatch):
    def report():
        return cli.report_json(engine.verify(ident, params, trunc))

    got = report()
    assert _decided(taken) == (0, 1)
    assert got == _series(monkeypatch, report)


@pytest.mark.parametrize("ident,params,trunc", OFF_GRID)
def test_off_grid_mismatches_are_alike_on_both_routes(ident, params, trunc, taken,
                                                       monkeypatch):
    # the first site of each point moved by one: a MISMATCH read off a
    # residue at a wide base, far above the grids'
    site = engine.identity_sites(ident, params, trunc)[0]

    def report():
        return cli.report_json(engine.verify_mutated(ident, params, site, 1, trunc))

    got = report()
    assert '"MISMATCH"' in got and min(b for _, b in taken) > 50
    assert got == _series(monkeypatch, report)


class _Combination:
    """A formal integer combination of a certificate's term lists, standing
    in for their values; reducing one modulo anything records it and reads
    0."""

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

    def __sub__(self, other):
        return self + -1 * other

    def __mod__(self, modulus):
        self.checks.append(self.coeffs)
        return 0


@pytest.mark.parametrize("certify", [telescoping.verify_telescoping, telescoping.verify_sk_tk])
@pytest.mark.parametrize("point", [(0, 0, 0, 1, 1), (1, 2, 3, 1, 2), (3, 3, 3, 3, 3)])
def test_every_certificate_check_is_a_signed_combination_of_distinct_lists(
        certify, point, monkeypatch):
    # so the one majorant H of all the lists' terms bounds every check
    checks = []

    def formal(sides, trunc):
        return framework.Sums([_Combination({i: 1}, checks) for i in range(len(sides))],
                              0, 1, 0, 1)

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


def test_a_packed_base_one_bit_short_reads_an_unequal_pair_equal(monkeypatch):
    # the same pair through q^1: B + 2 > T, so the packed route decides it
    # modulo 2^(2b), and b = 2; at b = 1 both sides read 2 modulo 4
    two, q = ([PochProduct().scale(2)], 0), ([PochProduct().q(1)], 0)
    assert packed_values([two, q], 1, 0, {}) == (2, [2, 4])
    rep = compare_sides("X", {}, 1, two, q)
    assert (rep.verdict, rep.mismatch_index) == ("MISMATCH", 0)

    def short(sides, trunc, low, clear):
        base = pochhammer.packed_values(sides, trunc, low, clear)[0] - 1
        mask = (1 << base * (trunc + 1 - low)) - 1
        return base, [packed_sum(terms, trunc, clear, base, low, mask) & mask
                      for terms, _ in sides]

    monkeypatch.setattr(framework, "packed_values", short)
    assert compare_sides("X", {}, 1, two, q).verdict == "EQUAL"


EULER_RECORDS = ("EULERMN1", "EULERMN2", "EULERN1", "EULERN2")


def test_every_euler_record_needs_the_pentagonal_multiplication(monkeypatch):
    # each EULER record's lhs owes one (q; q)_inf division; with the
    # pentagonal image left off, its two residues differ, a MISMATCH that
    # the sums of the pair refute
    real = pochhammer.packed_values
    monkeypatch.setattr(framework, "packed_values", lambda sides, *rest: real(
        [(terms, 0) for terms, _ in sides], *rest))
    for ident in EULER_RECORDS:
        rec = REGISTRY[ident]
        env = {p.name: p.low + 2 for p in rec.params}
        sides = [side_terms(rec, side, env, 40) for side in ("lhs", "rhs")]
        assert [euler for _, euler in sides] == [1, 0], ident
        sums = framework.sum_sides(sides, 40)
        assert sums.base and (sums.values[0] - sums.values[1]) % sums.modulus, ident
        with pytest.raises(framework.EngineError, match="the point and the series disagree"):
            engine.verify(ident, env, 40)


def _one_doubling_short(x, powers, reach, base, mask):
    """pochhammer._packed_apply with the last doubling step of every
    division left out."""
    for m, t in powers.items():
        if 0 < m <= reach:
            for _ in range(abs(t)):
                if t > 0:
                    x = (x - (x << base * m)) & mask
                else:
                    for j in range((reach // m).bit_length() - 1):
                        x = (x + (x << (base * m << j))) & mask
    return x


def test_a_division_one_doubling_short_is_caught(monkeypatch):
    assert engine.verify("EULERN1", {"n": 2}, 40).equal
    monkeypatch.setattr(pochhammer, "_packed_apply", _one_doubling_short)
    with pytest.raises(framework.EngineError, match="the point and the series disagree"):
        engine.verify("EULERN1", {"n": 2}, 40)


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
            assert len(taken) == 1, (ident, i)
            assert rep.verdict == "MISMATCH", (ident, i)
            assert _report(rep) == _report(
                _series(monkeypatch, lambda: compare_sides(ident, env, 200, *sides)))
            caught += 1
    assert caught >= 10


def test_a_coefficient_that_is_not_an_int_is_refused_by_name(taken):
    half = PochProduct().scale(Fraction(1, 2))
    with pytest.raises(framework.EngineError,
                       match=r"coefficient Fraction\(1, 2\) of .* is not an int"):
        compare_sides("X", {}, 30, ([half.copy().factor(1)], 0), ([PochProduct()], 0))
    # a user pair whose alpha carries 1/2, before any evaluation
    pair = bailey.BaileyPair("one_sided", 0, lambda r: [half.copy()] if r == 0 else [],
                             lambda n: [PochProduct()] if n == 0 else [], "half")
    with pytest.raises(framework.EngineError, match=r"coefficient Fraction\(1, 2\)"):
        bailey.verify_pair(pair, n_max=2, trunc=30)
    assert taken == []


def test_a_pole_raises_alike_on_both_routes(monkeypatch):
    pole = PochProduct().factor(0, -1)
    sides = ([PochProduct(), pole], 0), ([PochProduct()], 0)
    # B + 2 <= T at T = 30, the per-term route, and B + 2 > T at T = 1, the
    # packed route
    for trunc in (30, 1):
        with pytest.raises(PoleError, match="pole term reached the accumulator") as point:
            compare_sides("X", {}, trunc, *sides)
        with pytest.raises(PoleError) as series:
            _series(monkeypatch, lambda: compare_sides("X", {}, trunc, *sides))
        assert str(point.value) == str(series.value)


def _last_side_shifted(sides, trunc):
    """The oracle with the last side's offset moved up by one."""
    sums = series_oracle.sum_sides(sides, trunc)
    *values, last = sums.values
    return sums._replace(values=values + [series_oracle.Value(last.offset + 1,
                                                               last.coeffs[:-1])])


def _one_term_off_by_a_factor(sides, trunc):
    """The oracle with the first term of the first side off by one factor:
    one numerator factor of its least m dropped, or one denominator factor
    where it has none in the numerator, or times (1 - q) where it has no
    factor at all."""
    (terms, euler), *rest = sides
    if terms:
        t = terms[0]
        m = min(t.powers, default=1)
        terms = [t.copy().factor(m, -1 if t.powers.get(m, -1) > 0 else 1), *terms[1:]]
    return series_oracle.sum_sides([(terms, euler), *rest], trunc)


def _outcome(run):
    try:
        return run()
    except SeriesError as exc:
        return type(exc).__name__


# the sweep's ABCDE60 at (0, 1, 0, 0, 1) sums to 0 on both sides, which no
# shift moves
@pytest.mark.parametrize("corrupt,failed", [(_last_side_shifted, (10, 10, 6)),
                                            (_one_term_off_by_a_factor, (11, 10, 6))],
                         ids=["last-side-shifted", "one-term-off-by-a-factor"])
def test_a_corrupted_oracle_fails_the_cross_checks(corrupt, failed, monkeypatch):
    # every 1,000th sweep point, every 100th deep-window point and both
    # certificates at every 200th default point: the sound oracle agrees
    # with the point routes on each, and the corrupted one must not
    runs = []
    for sample in ("sweep", "deep-window"):
        points, trunc = _sample(sample)
        step = 1000 if sample == "sweep" else 100
        runs.append([lambda ident=ident, params=params, trunc=trunc: cli.report_json(
            engine.verify(ident, params, trunc)) for ident, params in points[::step]])
    runs.append([lambda certify=certify, point=point: certify(*point, 40)
                 for certify in (telescoping.verify_telescoping, telescoping.verify_sk_tk)
                 for point in DEFAULT_POINTS[::200]])
    caught = []
    for group in runs:
        got = [_outcome(run) for run in group]
        assert got == _series(monkeypatch, lambda: [_outcome(run) for run in group])
        bad = _series(monkeypatch, lambda: [_outcome(run) for run in group], corrupt)
        caught.append(sum(g != b for g, b in zip(got, bad)))
    assert tuple(caught) == failed


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
    assert engine.verify("EULERN1", {"n": 2}, 40).equal       # the packed route

"""Nested summation over term ratios against two slow paths.

``SeriesAccumulator.value`` sums a term list from the last term down,
multiplying one buffer by the ratio of consecutive terms.  Here it is
compared with the dense oracle (``dense_oracle.py``) on random term lists
and with the per-term renderer (``per_term.py``) on every registry side at
its default-grid corners; its kernel passes are counted against the
per-term renderer's, and a copy that drops one ratio factor must be caught.

``engine.verify``, the Bailey checks and the LIU refutation decide each
check at one integer point (``framework.compare_sides``,
``tests/test_point_route.py``): term by term where B + 2 <= T, and
otherwise on one packed integer that sums each side over its term ratios
divided by the check's clearing L, the unit that makes every term a
polynomial (``pochhammer.packed_sum``, one chain through every term).
Their reports are compared with those of the true values, unperturbed and
corrupted, and each side summed divided by L on one packed integer with
the image of the per-term renderer's sum of the cleared terms; the factor
passes of those chains are pinned, and in sum stay below the per-term
renderer's.  On the packed route, a unit put on one side only and a ratio
missing one factor must be caught; on the per-term route, a clearing put
on one side only and a factor dropped from a point evaluation.
"""

import contextlib
import dataclasses
import functools
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import per_term
from dense_oracle import as_dict, expand
from qrr import bailey, pochhammer, telescoping
from qrr.bailey import (bailey_step, chain_reproduce, lattice_seed_pair,
                        symmetrized_identity, unit_bilateral_x1, unit_bilateral_xq,
                        unit_pair_x1, verify_pair)
from qrr.identities import REGISTRY, EngineError, engine, framework
from qrr.identities.framework import EvalCtx, eval_side_value, side_terms, side_value
from qrr.pochhammer import (PochProduct, PoleError, SeriesAccumulator, shared_unit,
                            sum_terms)
from qrr.series import SeriesError
from test_bailey import _with_extra_beta_2
from test_prefactor import _corners

_SPEC = importlib.util.spec_from_file_location(
    "kernel_passes", Path(__file__).resolve().parent.parent / "tools" / "kernel_passes.py")
kernel_passes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kernel_passes)


@contextlib.contextmanager
def counted_kernels():
    """Count the kernel passes made through qrr.pochhammer's bindings, the
    accumulator's."""
    count = [0]
    originals = pochhammer.mul_binomial, pochhammer.div_binomial

    def counting(kernel):
        def wrapper(buf, m, *rest):
            count[0] += 1
            return kernel(buf, m, *rest)
        return wrapper

    pochhammer.mul_binomial, pochhammer.div_binomial = map(counting, originals)
    try:
        yield count
    finally:
        pochhammer.mul_binomial, pochhammer.div_binomial = originals


# ---------------------------------------------------------------------------
# random term lists against the dense oracle
# ---------------------------------------------------------------------------


_factor = st.tuples(st.integers(min_value=-6, max_value=30),
                    st.integers(min_value=-3, max_value=3))
_term = st.tuples(
    st.sampled_from([1, -1, 1, -1, 2, -7, Fraction(-3, 2)]),
    st.integers(min_value=-12, max_value=40),        # past T when T is small
    st.lists(_factor, max_size=4),                   # this term's own factors
    st.booleans(),                                   # takes the shared factors
    st.sampled_from([0, 0, 0, 0, 1, 2, -1]))         # net (1 - q^0) power


def _build(shared, drawn, trunc):
    """The PochProducts of a drawn list, and the oracle's value of their sum
    ({exponent: coefficient}, or None when some term is a pole)."""
    terms, want = [], {}
    for scale, shift, own, share, zeros in drawn:
        factors = own + (shared if share else []) + [(0, zeros)]
        t = PochProduct().scale(scale).q(shift)
        for m, times in factors:
            t.factor(m, times)
        terms.append(t)
        net = sum(times for m, times in factors if m == 0)
        assert t.state == ("zero" if net > 0 else "pole" if net < 0 else "ok")
        if net < 0:
            want = None
        elif net == 0 and want is not None:
            num = [m for m, times in factors if m for _ in range(times)]
            den = [m for m, times in factors if m for _ in range(-times)]
            for e, c in expand(scale, shift, num, den, trunc).items():
                want[e] = want.get(e, 0) + c
    return terms, want


def _oracle_disagreement(shared, drawn, trunc):
    """None if the nested sum matches the dense oracle (or both refuse a
    pole), else a description of the difference."""
    terms, want = _build(shared, drawn, trunc)
    if want is None:
        with pytest.raises(PoleError):
            sum_terms(terms, trunc)
        return None
    got = as_dict(sum_terms(terms, trunc), trunc)
    want = {e: c for e, c in want.items() if c}
    return None if got == want else (got, want)


@given(st.lists(_factor, max_size=8), st.lists(_term, min_size=1, max_size=8),
       st.integers(min_value=0, max_value=30))
def test_nested_sum_matches_dense_oracle(shared, drawn, trunc):
    assert _oracle_disagreement(shared, drawn, trunc) is None


@given(st.lists(_factor, max_size=8), st.lists(_term, min_size=1, max_size=8),
       st.integers(min_value=0, max_value=30))
def test_nested_sum_matches_per_term_and_takes_no_more_passes(shared, drawn, trunc):
    terms, want = _build(shared, drawn, trunc)
    if want is None:
        for summed in (sum_terms, per_term.sum_per_term):
            with pytest.raises(PoleError):
                summed(terms, trunc)
        return
    with counted_kernels() as count:
        got = sum_terms(terms, trunc)
    assert got == per_term.sum_per_term(terms, trunc)
    assert count[0] <= per_term.passes(terms, trunc)


def test_mid_list_zero_splits_the_chain():
    # (q)_k q^(k^2) for k = 0..5 with the k = 3 term made exactly zero
    terms = [PochProduct().q(k * k).qn(k) for k in range(6)]
    terms[3].factor(0)
    assert terms[3].state == "zero"
    want = per_term.sum_per_term(terms, 30)
    with counted_kernels() as count:
        assert sum_terms(terms, 30) == want
    assert 0 < count[0] < per_term.passes(terms, 30)


def test_chain_counts_the_passes_a_lower_floor_costs_a_term():
    # walking up from (1-q^3)^2 at q^0, the ratio to q^25 (1-q^3)(1-q^20)
    # costs 2 passes, no more than closing; but (1-q^20) cannot reach q^30
    # from q^25 and can from the chain's floor q^0, so joining would cost 4
    # passes in all against 3 for rendering each term on its own
    terms = [PochProduct().q(25).factor(3).factor(20), PochProduct().factor(3, 2)]
    assert per_term.passes(terms, 30) == 3
    want = per_term.sum_per_term(terms, 30)
    with counted_kernels() as count:
        assert sum_terms(terms, 30) == want
    assert count[0] == 3


# ---------------------------------------------------------------------------
# every registry side at its default-grid corners
# ---------------------------------------------------------------------------


@functools.cache
def registry_sums(trunc):
    """(label, terms, window, nested value, nested passes) for every summed
    registry side at its grid corners, captured from the accumulator."""
    seen = []
    value = SeriesAccumulator.value

    def capture(acc):
        with counted_kernels() as count:
            out = value(acc)
        # an unpaired 1/(q^b; q)_inf goes on to divide the returned buffer
        # in place
        seen.append((list(acc.terms), acc.trunc, (out[0], list(out[1])), count[0]))
        return out

    SeriesAccumulator.value = capture
    try:
        out = []
        for ident, rec in sorted(REGISTRY.items()):
            for env in _corners(rec):
                for side in ("lhs", "rhs"):
                    del seen[:]
                    try:
                        eval_side_value(rec, side, env, trunc)
                    except SeriesError:
                        continue
                    out += [((ident, side, env), *s) for s in seen]
    finally:
        SeriesAccumulator.value = value
    return out


@pytest.mark.parametrize("trunc", [40, 160])
def test_registry_sides_match_per_term_renderer(trunc):
    sums = registry_sums(trunc)
    assert len(sums) > 1000
    for label, terms, window, value, _ in sums:
        assert value == per_term.sum_per_term(terms, window), label


@pytest.mark.parametrize("trunc", [40, 160])
def test_registry_sides_take_no_more_kernel_passes(trunc):
    nested = flat = 0
    for label, terms, window, _, passes in registry_sums(trunc):
        bound = per_term.passes(terms, window)
        assert passes <= bound, label
        nested += passes
        flat += bound
    assert nested < flat


# exact kernel passes, by kernel, through pochhammer's binomial and
# framework's div_euler bindings, and the coefficient updates of the
# binomial passes: the registry sides at their grid corners, by T, and the
# Rogers-Ramanujan limits (sums and products) at T=300
PINNED_WORK = {
    40: {"mul_binomial": 3650, "div_binomial": 5519, "div_euler": 12,
         "coeff_updates": 328247},
    160: {"mul_binomial": 3702, "div_binomial": 5725, "div_euler": 12,
          "coeff_updates": 1447931},
    "RR": {"div_binomial": 272, "coeff_updates": 42472},
}


def _count_kernels(monkeypatch) -> Counter:
    """Count the kernel passes through pochhammer's binomial and
    framework's div_euler bindings, by kernel, in the Counter returned, and
    under "coeff_updates" the buffer entries the binomial passes visit
    (``tools/kernel_passes.coeff_updates``)."""
    calls = Counter()
    for owner, name in ((pochhammer, "mul_binomial"), (pochhammer, "div_binomial"),
                        (framework, "div_euler")):
        def counted(*args, kernel=getattr(owner, name), name=name):
            calls[name] += 1
            if name != "div_euler":
                calls["coeff_updates"] += kernel_passes.coeff_updates(*args)
            return kernel(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_kernel_work_is_pinned(monkeypatch):
    # the test above bounds the passes from above only; this catches a
    # change that alters nothing but the work
    calls = _count_kernels(monkeypatch)
    work = {}
    for trunc in (40, 160):
        for ident, rec in sorted(REGISTRY.items()):
            for env in _corners(rec):
                for side in ("lhs", "rhs"):
                    with contextlib.suppress(SeriesError):
                        eval_side_value(rec, side, env, trunc)
        work[trunc] = dict(calls)
        calls.clear()
    for which in ("RR1", "RR2"):
        assert engine.rr_limit_check(which, 300).equal
    work["RR"] = dict(calls)
    assert work == PINNED_WORK


# exact kernel passes, by kernel, and coefficient updates of engine.verify,
# which decides every check of int coefficients at one integer point, term
# by term where B + 2 <= T and no side owes a (q; q)_inf division, and
# otherwise on one packed integer, with no pass at all: every record at its
# grid corners, by T; and of one telescoping and one termwise certificate
# at T=40, each deciding every term list by the same rule (at (3,3,3,3,3)
# B + 2 > T, so on the packed route)
PINNED_VERIFY_WORK = {40: {}, 160: {}, "telescoping": {}, "termwise": {}}


def test_verify_work_is_pinned(monkeypatch):
    calls = _count_kernels(monkeypatch)
    work = {}
    for trunc in (40, 160):
        for ident, rec in sorted(REGISTRY.items()):
            for env in _corners(rec):
                with contextlib.suppress(SeriesError):
                    assert engine.verify(ident, env, trunc).equal
        work[trunc] = dict(calls)
        calls.clear()
    for name, certify in (("telescoping", telescoping.verify_telescoping),
                          ("termwise", telescoping.verify_sk_tk)):
        assert certify(3, 3, 3, 3, 3, 40).equal
        work[name] = dict(calls)
        calls.clear()
    assert work == PINNED_VERIFY_WORK


# ---------------------------------------------------------------------------
# both sides of a check divided by one shared unit, the clearing L
# ---------------------------------------------------------------------------


def _corner_sides(trunc):
    """(ident, record, env, {side: (terms, euler)}) for every record at its
    grid corners where both sides can be built."""
    for ident, rec in sorted(REGISTRY.items()):
        for env in _corners(rec):
            with contextlib.suppress(SeriesError):
                yield ident, rec, env, {side: side_terms(rec, side, env, trunc)
                                        for side in ("lhs", "rhs")}


def _report(rep):
    return (rep.ident, rep.params, rep.trunc, rep.verdict, rep.mismatch_index,
            rep.lhs_window, rep.rhs_window, rep.checks)


@pytest.mark.parametrize("trunc", [40, 160])
def test_verify_reports_as_the_true_values_compare(trunc):
    # unperturbed, and with the first of the point's sites moved by 1, which
    # turns most points into a MISMATCH whose windows come from the true
    # values of the pair
    verdicts = Counter()
    for ident, rec, env, _ in _corner_sides(trunc):
        for mutations in ({}, {engine.identity_sites(ident, env, trunc)[0]: 1}):
            true = [eval_side_value(rec, side, env, trunc, EvalCtx(mutations))
                    for side in ("lhs", "rhs")]
            want = framework.compare(ident, env, trunc, *true)
            got = engine.verify(ident, env, trunc, EvalCtx(mutations))
            assert _report(got) == _report(want), (ident, env, mutations)
            verdicts[want.verdict] += 1
    assert verdicts["EQUAL"] >= 800 and verdicts["MISMATCH"] > 500


def _full_depth(monkeypatch):
    """framework.shared_unit with no degree bound: every check decided on
    the packed route through q^T."""
    real = framework.shared_unit

    def unbounded(*lists):
        _, low, clear = real(*lists)
        return None, low, clear

    monkeypatch.setattr(framework, "shared_unit", unbounded)


def _cleared(terms, clear):
    """Each of ``terms`` divided by L = prod (1-q^m)^clear[m]."""
    inverse = PochProduct()
    for m, e in clear.items():
        inverse.factor(m, -e)
    return [t.mul(inverse) for t in terms]


def _packed_image(value, base, low, mask):
    """The image of the sum ``value``, (offset, coeffs), in the ring of
    ``packed_sum``: at q = 2^base, times q^-low, modulo mask + 1."""
    offset, coeffs = value
    return sum(c << base * (offset + i - low) for i, c in enumerate(coeffs) if c) & mask


# the factor passes of the packed route's chains, each one (1-q^m) applied
# by a shift-subtract or divided by a few shift-adds, over every registry
# side at its grid corners, by T
PINNED_PACKED_PASSES = {40: 5562, 160: 5986}


@pytest.mark.parametrize("trunc", [40, 160])
def test_unit_divided_sides_match_the_slow_paths(trunc, monkeypatch):
    # each side summed by the packed route's chain, divided by the clearing
    # L of its check, against the per-term renderer of the L-cleared terms;
    # the factor passes of every chain stay below the per-term renderer's
    # in sum, and are pinned
    apply, applied = pochhammer._packed_apply, [0]

    def counted(x, powers, reach, *rest):
        applied[0] += pochhammer._passes(powers, reach)
        return apply(x, powers, reach, *rest)

    monkeypatch.setattr(pochhammer, "_packed_apply", counted)
    nested = flat = cleared = 0
    for ident, rec, env, sides in _corner_sides(trunc):
        lists = [terms for terms, _ in sides.values()]
        _, low, clear = shared_unit(*lists)
        low = low or 0       # None when no term is nonzero
        base = pochhammer.packed_values(list(sides.values()), trunc, low, clear)[0]
        mask = (1 << base * (trunc + 1 - low)) - 1
        cleared += bool(clear)
        applied[0] = 0
        for side, (terms, _) in sides.items():
            value = pochhammer.packed_sum(terms, trunc, clear, base, low, mask) & mask
            slow = _cleared(terms, clear)
            assert value == _packed_image(per_term.sum_per_term(slow, trunc), base, low,
                                          mask), (ident, side, env)
            flat += per_term.passes(slow, trunc)
        nested += applied[0]
    assert nested < flat and cleared > 100
    assert nested == PINNED_PACKED_PASSES[trunc]


def test_shared_unit_reads_the_bound_the_lowest_shift_and_the_clearing():
    a = PochProduct().factor(1, 2).factor(2).factor(3, -1)
    b = PochProduct().factor(1).factor(3, -2).factor(4)
    c = PochProduct().factor(1, 3).factor(3, -1).q(5)
    zero = PochProduct().factor(1, 9).factor(0)
    # (1-q^1): 1, 2, 3; (1-q^2): 0, 0, 1; (1-q^3): -2, -1, -1; (1-q^4): 0, 0, 1
    # and the degree bound: D = (1-q^3)^2 clears every denominator, and the
    # cleared terms have degrees 7 (a), 5 (b) and 11 (c); the lowest shift
    # is 0, and the least multiplicities are 1 for (1-q^1) and -2 for (1-q^3)
    assert shared_unit([a, zero], [b, c]) == (11, 0, {1: 1, 3: -2})
    assert shared_unit([a, b]) == (7, 0, {1: 1, 3: -2})
    assert shared_unit([c.copy().q(-9), a]) == (4, -4, {1: 2, 3: -1})
    assert shared_unit() == shared_unit([zero]) == (None, None, {})


def _unit_on_one_side(monkeypatch, change):
    """Every check on the packed route, each second packed_sum call, the
    rhs of a two-sided check, dividing by ``change(unit)`` in place of the
    unit; returns the unit of every call."""
    real, calls = pochhammer.packed_sum, []

    def patched(terms, trunc, unit, *rest):
        calls.append(unit)
        return real(terms, trunc, change(unit) if len(calls) % 2 == 0 else unit, *rest)

    _full_depth(monkeypatch)
    monkeypatch.setattr(pochhammer, "packed_sum", patched)
    return calls


def _drop_first_factor(unit):
    if not unit:                 # L = 1 has no factor to drop
        return unit
    m = min(unit)
    out = dict(unit)
    out[m] -= 1 if out[m] > 0 else -1
    return {m: e for m, e in out.items() if e}


DISAGREE = "the point and the series disagree"


@pytest.mark.parametrize("change", [lambda unit: {}, _drop_first_factor],
                         ids=["rhs-undivided", "rhs-drops-a-factor"])
def test_a_unit_on_one_side_only_is_caught(change, monkeypatch):
    # the rhs's residue, divided by another unit than the lhs's clearing,
    # reads a difference that the sums of the pair do not show, and the
    # check raises
    calls = _unit_on_one_side(monkeypatch, change)
    for ident in ("ABCDE1", "ANDREWS1", "EULERN1", "LMNRS3", "QINV1"):
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        del calls[:]
        with pytest.raises(EngineError, match=DISAGREE):
            engine.verify(ident, params, 30)
        assert min(calls[0]) <= 30, ident        # L is not 1 through q^30
    # the Bailey checks, at points where L is not 1 through q^30 and both
    # values are nonzero (a unit pair's beta_n is 0 for n >= 1)
    for target, exps in (("ABCDE1", (2, 2, 2, 2)), ("ABCDE3", (2, 2, 1, 1))):
        del calls[:]
        with pytest.raises(EngineError, match=DISAGREE):
            chain_reproduce(target, 2, *exps, trunc=30)
        assert min(calls[0]) <= 30, target
    stepped = bailey_step(unit_bilateral_x1(), -1, -2)
    for n in (1, 2, 3):
        del calls[:]
        with pytest.raises(EngineError, match=DISAGREE):
            framework.compare_sides("pair", {"n": n}, 30, (stepped.beta_terms(n), 0),
                                    (stepped.relation_terms(n), 0))
        assert min(calls[0]) <= 30, n
    del calls[:]
    with pytest.raises(EngineError, match=DISAGREE):
        symmetrized_identity(stepped, -1, -2, 3, 30)
    assert min(calls[0]) <= 30
    del calls[:]
    with pytest.raises(EngineError, match=DISAGREE):
        engine.liu_counterexample("LIU2", 3, 30)
    assert min(calls[0]) <= 30


# at their floors plus 2 each has B + 2 <= 60
POINT_IDENTS = ("ABCDE1", "ANDREWS1", "LMNRS3", "QINV1")


@pytest.mark.parametrize("change", [lambda clear: {}, _drop_first_factor],
                         ids=["rhs-uncleared", "rhs-drops-a-factor"])
def test_a_clearing_on_one_side_only_is_caught(change, monkeypatch):
    # the point route's counterpart: the rhs's point value, cleared by
    # ``change(clear)``, reads a difference that the sums of the pair do not
    # show, and the check raises
    value, calls = pochhammer.point_value, []

    def patched(terms, base, low, clear):
        calls.append(clear)
        return value(terms, base, low, change(clear) if len(calls) % 2 == 0 else clear)

    monkeypatch.setattr(pochhammer, "point_value", patched)
    for ident in POINT_IDENTS:
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        del calls[:]
        with pytest.raises(EngineError, match=DISAGREE):
            engine.verify(ident, params, 60)
        assert calls[0] and len(calls) == 2, ident


@pytest.mark.parametrize("count", [0, 1])
def test_a_check_of_fewer_than_two_sides_raises(count):
    # a check that compares nothing must never read EQUAL
    sides = [([PochProduct()], 0)] * count
    with pytest.raises(EngineError, match="needs two sides or more"):
        framework.compare_sides("X", {}, 30, *sides)


def test_chain_routes_and_target_are_summed_once_with_one_unit(monkeypatch):
    # on the packed route, whose sums divide by the clearing L
    real, made = pochhammer.packed_sum, []

    def recorded(terms, trunc, clear, *rest):
        made.append((terms, clear))
        return real(terms, trunc, clear, *rest)

    _full_depth(monkeypatch)
    monkeypatch.setattr(pochhammer, "packed_sum", recorded)
    assert chain_reproduce("ABCDE3", 2, 2, 2, 1, 1, trunc=30).equal
    # the relation sum, the transformed beta and the closed form, then the target
    assert len(made) == 4
    env = {"n": 2, "l": 1, "m": 1, "u": 0, "v": 0}
    target = side_terms(REGISTRY["ABCDE3"], "lhs", env, 30)[0]
    assert repr(made[-1][0]) == repr(target)
    # the one unit is the check's L, read off the terms of all four sums
    clear = shared_unit(*(terms for terms, _ in made))[2]
    assert clear and made[0][1] == clear
    assert all(unit is made[0][1] for _, unit in made)


def test_chain_routes_and_target_are_evaluated_at_one_point(monkeypatch):
    value, calls = pochhammer.point_values, []

    def recorded(lists, low, clear):
        calls.append(lists)
        return value(lists, low, clear)

    monkeypatch.setattr(framework, "point_values", recorded)
    monkeypatch.setattr(framework, "side_value", None)      # no sum at all
    assert chain_reproduce("ABCDE3", 2, 2, 2, 1, 1, trunc=30).equal
    # one evaluation of the relation sum, the transformed beta and the
    # closed form, then the target
    assert len(calls) == 1 and len(calls[0]) == 4
    env = {"n": 2, "l": 1, "m": 1, "u": 0, "v": 0}
    target = side_terms(REGISTRY["ABCDE3"], "lhs", env, 30)[0]
    assert repr(calls[0][-1]) == repr(target)


# ---------------------------------------------------------------------------
# the Bailey and LIU checks against compare of the undivided sums
# ---------------------------------------------------------------------------


def _recorded_checks(monkeypatch):
    """compare_sides in bailey and engine, wrapped: each check appends its
    report and, as the oracle, framework.compare's report on the undivided
    sums of the first side whose sum differs from the last side's, or of
    the last two sides when none does."""
    real, checks = framework.compare_sides, []

    def recorded(ident, params, trunc, *sides):
        rep = real(ident, params, trunc, *sides)
        rhs = side_value(*sides[-1], trunc)
        for lhs in sides[:-1]:
            want = framework.compare(ident, params, trunc, side_value(*lhs, trunc), rhs)
            if not want.equal:
                break
        checks.append((_report(rep), _report(want)))
        return rep

    for module in (bailey, engine):
        monkeypatch.setattr(module, "compare_sides", recorded)
    return checks


def _assert_undivided_reports(checks, corrupted):
    verdicts = Counter(want[3] for _, want in checks)
    for got, want in checks:
        assert got == want
    # a corrupted run has MISMATCH windows to compare
    assert verdicts["MISMATCH"] > 0 if corrupted else verdicts["EQUAL"] > 0


def _alpha_1_times_factor_3(pair):
    """The pair with the first term of alpha_1 times (1-q^3)."""
    alpha = pair.alpha_terms

    def corrupted(r):
        terms = alpha(r)
        return [terms[0].mul(PochProduct().factor(3))] + terms[1:] if r == 1 else terms

    return dataclasses.replace(pair, alpha_terms=corrupted)


PAIR_CORRUPTIONS = {"unperturbed": lambda pair: pair,
                    "extra-beta-2": _with_extra_beta_2,
                    "alpha-1-times-factor-3": _alpha_1_times_factor_3}
STOCK_PAIRS = (unit_pair_x1, unit_bilateral_x1, unit_bilateral_xq, lattice_seed_pair)


@pytest.mark.parametrize("corrupt", list(PAIR_CORRUPTIONS.values()), ids=list(PAIR_CORRUPTIONS))
def test_pair_checks_report_as_the_undivided_compare(corrupt, monkeypatch):
    checks = _recorded_checks(monkeypatch)
    for make in STOCK_PAIRS:
        verify_pair(corrupt(make()), n_max=10, trunc=30)
        for rho1, rho2, N in ((-3, -4, 3), (-2, -3, 2), (-5, -5, 5)):
            symmetrized_identity(corrupt(make()), rho1, rho2, N, 30)
    assert len(checks) == 4 * (11 + 3)
    _assert_undivided_reports(checks, corrupt is not PAIR_CORRUPTIONS["unperturbed"])


def _chain_pairs_corrupted(corrupt):
    def apply(monkeypatch):
        for name in ("unit_bilateral_x1", "unit_bilateral_xq", "lattice_seed_pair"):
            make = getattr(bailey, name)
            monkeypatch.setattr(bailey, name, lambda make=make: corrupt(make()))
    return apply


def _closed_plus_q5(monkeypatch):
    closed = bailey._closed_beta_via_lattice
    monkeypatch.setattr(bailey, "_closed_beta_via_lattice",
                        lambda *a: closed(*a) + [PochProduct().q(5)])


CHAIN_CORRUPTIONS = {"unperturbed": None,
                     "extra-beta-2": _chain_pairs_corrupted(_with_extra_beta_2),
                     "alpha-1-times-factor-3": _chain_pairs_corrupted(_alpha_1_times_factor_3),
                     "closed-plus-q5": _closed_plus_q5}


@pytest.mark.parametrize("corrupt", list(CHAIN_CORRUPTIONS.values()), ids=list(CHAIN_CORRUPTIONS))
def test_chain_checks_report_as_the_undivided_compare(corrupt, monkeypatch):
    if corrupt:
        corrupt(monkeypatch)
    checks = _recorded_checks(monkeypatch)
    for target in bailey.CHAIN_TARGETS:
        for N in range(4):
            # exponents >= 3, and >= 4 for ABCDE3's first step, keep beta_2
            # in the transformed beta: (q^(1-b); q)_r is 0 for r >= b
            for exps in ((1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 4, 4)):
                chain_reproduce(target, N, *exps, trunc=30)
    _assert_undivided_reports(checks, corrupt is not None)


def _liu_sum_plus_q5(monkeypatch):
    terms = engine._sum_terms
    monkeypatch.setattr(engine, "_sum_terms", lambda *a: terms(*a) + [PochProduct().q(5)])


def _liu_closed_times_factor_3(monkeypatch):
    closed = engine.liu_closed_form
    monkeypatch.setattr(engine, "liu_closed_form", lambda *a: closed(*a).factor(3))


LIU_CORRUPTIONS = {"unperturbed": None, "sum-plus-q5": _liu_sum_plus_q5,
                   "closed-times-factor-3": _liu_closed_times_factor_3}


@pytest.mark.parametrize("corrupt", list(LIU_CORRUPTIONS.values()), ids=list(LIU_CORRUPTIONS))
def test_liu_checks_report_as_the_undivided_compare(corrupt, monkeypatch):
    if corrupt:
        corrupt(monkeypatch)
    checks = _recorded_checks(monkeypatch)
    for which in ("LIU1", "LIU2"):
        for a in range(1, 6):
            if corrupt:
                with pytest.raises(EngineError, match="disagrees with its closed form"):
                    engine.liu_counterexample(which, a, 30)
            else:
                assert engine.liu_counterexample(which, a, 30).verdict == "MISMATCH"
    # the sum against its closed form, then (unperturbed) the closed form against 0
    assert len(checks) == (10 if corrupt else 20)
    _assert_undivided_reports(checks, True)


# ---------------------------------------------------------------------------
# negative control: a ratio missing one factor
# ---------------------------------------------------------------------------


def _drop_one_factor(ratio):
    def dropped(lower, upper):
        out = ratio(lower, upper)
        for m in sorted(out):
            if m > 0:
                out[m] -= 1 if out[m] > 0 else -1
                if not out[m]:
                    del out[m]
                break
        return out
    return dropped


def test_a_dropped_ratio_factor_is_caught(monkeypatch):
    monkeypatch.setattr(pochhammer, "_ratio", _drop_one_factor(pochhammer._ratio))
    shared = [(4, 1), (9, -1)]
    drawn = [(1, k * k, [(k, 1), (k + 1, -1)], True, 0) for k in range(1, 6)]
    assert _oracle_disagreement(shared, drawn, 30) is not None
    # on the packed route, which sums over the same ratios
    _full_depth(monkeypatch)
    outcomes = []
    for ident in ("ABCDE1", "ANDREWS1", "EULERN1", "LMNRS3", "QINV1"):
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        try:
            outcomes.append(engine.verify(ident, params, 30).verdict)
        except EngineError as exc:
            assert DISAGREE in str(exc), ident
            outcomes.append("EngineError")
    # a raise for each: the windows, which SeriesAccumulator sums over its
    # own chains of the same wrong ratios from the last term, first differ
    # elsewhere than the residues, which packed_sum chains from the first
    # term; never EQUAL
    assert outcomes == ["EngineError"] * 5


def test_a_dropped_point_factor_is_caught(monkeypatch):
    # the point route's counterpart: an evaluation that leaves one factor off
    # the first term of each list reads a difference that the sums do not
    # show, and the check raises
    value = pochhammer.point_value

    def dropped(terms, base, low, clear):
        terms = list(terms)
        for i, t in enumerate(terms):
            if t.powers:
                m = min(t.powers)
                terms[i] = t.copy().factor(m, -1 if t.powers[m] > 0 else 1)
                break
        return value(terms, base, low, clear)

    monkeypatch.setattr(pochhammer, "point_value", dropped)
    for ident in POINT_IDENTS:
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        with pytest.raises(EngineError, match=DISAGREE):
            engine.verify(ident, params, 60)

"""Nested summation over term ratios against two slow paths.

``SeriesAccumulator.value`` sums a term list from the last term down,
multiplying one buffer by the ratio of consecutive terms.  Here it is
compared with the dense oracle (``dense_oracle.py``) on random term lists
and with the per-term renderer (``per_term.py``) on every registry side at
its default-grid corners; its kernel passes are counted against the
per-term renderer's, and a copy that drops one ratio factor must be caught.
"""

import contextlib
import functools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import per_term
from dense_oracle import as_dict, expand
from qrr import pochhammer
from qrr.identities import REGISTRY, engine, framework
from qrr.identities.framework import eval_side_value
from qrr.pochhammer import PochProduct, PoleError, SeriesAccumulator, sum_terms
from qrr.series import SeriesError
from test_prefactor import _corners


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
# framework's div_euler bindings: the registry sides at their grid corners,
# by T, and the Rogers-Ramanujan limits (sums and products) at T=300
PINNED_WORK = {
    40: {"mul_binomial": 3650, "div_binomial": 5519, "div_euler": 12},
    160: {"mul_binomial": 3702, "div_binomial": 5725, "div_euler": 12},
    "RR": {"div_binomial": 272},
}


def test_kernel_work_is_pinned(monkeypatch):
    # the test above bounds the passes from above only; this catches a
    # change that alters nothing but the work
    calls = Counter()
    for owner, name in ((pochhammer, "mul_binomial"), (pochhammer, "div_binomial"),
                        (framework, "div_euler")):
        def counted(*args, kernel=getattr(owner, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(owner, name, counted)

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
    for ident in ("ABCDE1", "ANDREWS1", "EULERN1", "LMNRS3", "QINV1"):
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        assert engine.verify(ident, params, 30).verdict == "MISMATCH", ident

"""Term chains against the per-k builders of ``direct_terms.py``.

``framework._sum_terms`` keeps one running product per side and multiplies
in only the change of each index from one k to the next.  Here
every term they build is compared, coefficient, shift and factor powers,
with the term built from scratch at its k: on every registry side at every
corner of its default grid, and under every exponent-site perturbation the
mutation control makes.  A chain step that is off by one must be caught by
this comparison and by ``engine.verify``.
"""

from itertools import product

import pytest
from hypothesis import given, strategies as st

import direct_terms
from qrr import bailey, telescoping
from qrr.identities import REGISTRY, engine, framework
from qrr.identities.framework import EngineError, EvalCtx, eval_side_value
from qrr.pochhammer import PochProduct
from qrr.series import SeriesError
from test_prefactor import _corners


_slot = st.tuples(st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=-9, max_value=9),
                  st.sampled_from([1, -1, 2, -3, 0]))


@given(st.lists(_slot, min_size=1, max_size=6))
def test_poch_matches_one_factor_call_per_index(slots):
    fast, slow = PochProduct(), PochProduct()
    for e, n, times in slots:
        fast.poch(e, n, times)
        direct_terms.poch_by_factor(slow, e, n, times)
    assert (fast.coeff, fast.shift, fast.powers) == (slow.coeff, slow.shift, slow.powers)


@given(st.integers(min_value=-6, max_value=6),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
       st.sampled_from([1, -1, 2]))
def test_steps_reach_the_direct_product(e, indices, times):
    # walking one slot through any sequence of indices, from index 0
    run, old = PochProduct(), 0
    for n in indices:
        run.step(e, old, n, times)
        old = n
        want = PochProduct().poch(e, n, times)
        assert (run.coeff, run.shift, run.powers) == (want.coeff, want.shift, want.powers)


def _outcome(build, *args):
    """The terms as (coeff, shift, powers) triples, or the name of the
    exception the build raised."""
    try:
        terms = build(*args)
    except SeriesError as exc:
        return type(exc).__name__
    return [(t.coeff, t.shift, t.powers) for t in terms]


@pytest.fixture
def compared(monkeypatch):
    """While active, every sum built through ``_sum_terms`` is built both
    ways, at each module's binding of it; returns the list of (tag, chained
    outcome, direct outcome) it fills."""
    seen = []
    chained, direct = framework._sum_terms, direct_terms.sum_terms

    def both(spec, env, ctx, tag, trunc):
        got = _outcome(chained, spec, env, ctx, tag, trunc)
        seen.append((tag, got, _outcome(direct, spec, env, ctx, tag, trunc)))
        return chained(spec, env, ctx, tag, trunc)

    for module in (framework, engine, telescoping, bailey):
        assert module._sum_terms is chained
        monkeypatch.setattr(module, "_sum_terms", both)
    return seen


def _eval_both_sides(rec, env, trunc, ctx=framework.UNPERTURBED):
    for side in ("lhs", "rhs"):
        try:
            eval_side_value(rec, side, env, trunc, ctx)
        except SeriesError:
            pass


@pytest.mark.parametrize("trunc", [40, 160])
def test_registry_sides_chain_to_the_direct_terms(compared, trunc):
    sides = terms = 0
    for ident, rec in sorted(REGISTRY.items()):
        for env in _corners(rec):
            del compared[:]
            _eval_both_sides(rec, env, trunc)
            for tag, got, want in compared:
                assert got == want, (ident, env, tag)
                sides += 1
                terms += len(got)
    assert sides > 1500 and terms > 2000


@pytest.mark.parametrize("check, tags", [
    (lambda: engine.rr_limit_check("RR1", 20), {"RR1"}),
    (lambda: engine.liu_counterexample("LIU1", 2, 20), {"LIU1"}),
    (lambda: bailey.chain_reproduce("ABCDE3", 2, trunc=20), {"lattice", "lhs"}),
], ids=["rr-limit", "liu", "lattice-closed-form"])
def test_sums_outside_the_registry_chain_to_the_direct_terms(compared, check, tags):
    check()
    assert tags <= {tag for tag, _, _ in compared}
    for tag, got, want in compared:
        assert got == want, tag


def _mutation_probes():
    """(ident, point, site, delta) for every exponent site of every record at
    its first off-minimum point, bumped by +1 and -1."""
    out = []
    for ident, rec in sorted(REGISTRY.items()):
        point = {ps.name: ps.low + 1 for ps in rec.params}
        for site in engine.identity_sites(ident, point, 20):
            out += [(ident, point, site, delta) for delta in (1, -1)]
    return out


def test_every_perturbed_site_chains_to_the_direct_terms(compared):
    probes = _mutation_probes()
    assert len(probes) > 1400
    built = 0
    for ident, point, site, delta in probes:
        del compared[:]
        _eval_both_sides(REGISTRY[ident], point, 20, EvalCtx({site: delta}))
        for tag, got, want in compared:
            assert got == want, (ident, site, delta, tag)
        built += len(compared)
    assert built > len(probes)


def _chained_certificate_terms(l, m, n, u, v, count):
    params = {"l": l, "m": m, "n": n, "u": u, "v": v}
    cores = {"A": telescoping._core(telescoping._A_SUM, "A", params, count),
             "B": telescoping._core(telescoping._B_SUM, "B", params, count),
             "C0": telescoping._core(telescoping._C0_SUM, "C0", params, 1)}
    for k in range(count):
        names = ["f", "g", "F", "S", "T"] + (["L0", "R0"] if k == 0 else [])
        yield k, {name: telescoping._terms(name, cores, params, k) for name in names}


def _as_built(terms, in_support):
    """Each term's (coeff, shift, powers) inside the support of its core, and
    past it only its state, which must be zero."""
    if in_support:
        return [(t.coeff, t.shift, t.powers) for t in terms]
    return [t.state for t in terms]


def test_certificate_terms_chain_to_the_direct_terms():
    # u, v >= 1, as both certificates require before building any term; k
    # runs three places past the support, where every term is zero
    for point in product(range(4), range(4), range(4), range(1, 4), range(1, 4)):
        l, m, n, u, v = point
        caps = {"A": min(point), "B": min(l, m, n, u - 1, v - 1)}
        for k, chained in _chained_certificate_terms(*point, min(point) + 4):
            direct = direct_terms.certificate_terms(*point, k)
            for name, terms in chained.items():
                inside = k <= caps["B" if name in "ST" else "A"]
                got = _as_built(terms, inside)
                assert got == _as_built(direct[name], inside), (point, k, name)
                assert inside or set(got) == {"zero"}, (point, k, name)


# ---------------------------------------------------------------------------
# negative control: a chain step off by one
# ---------------------------------------------------------------------------


def _off_by_one(self, e, old, new, times=1):
    # from a nonzero index, start the change at q^(e+old-1), not q^(e+old)
    start = e + old - 1 if old else e
    return self.poch(start, new - old, times)


def test_an_off_by_one_step_is_caught(monkeypatch, compared):
    monkeypatch.setattr(PochProduct, "step", _off_by_one)
    rec = REGISTRY["ANDREWS1"]
    _eval_both_sides(rec, {"n": 4}, 30)
    assert any(got != want for _, got, want in compared)
    # the bad step leaves a zero term inside a certificate core's support,
    # which the core refuses instead of shifting every later k
    params = dict.fromkeys("lmnuv", 2)
    for spec in (telescoping._A_SUM, telescoping._B_SUM):
        with pytest.raises(EngineError, match="zero term"):
            telescoping._core(spec, "core", params, 4)
    with pytest.raises(EngineError, match="zero term"):
        telescoping.verify_telescoping(2, 2, 2, 2, 2, 30)
    for ident in ("ABCDE1", "ANDREWS1", "EULERN1", "LMNRS3", "QINV1"):
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        try:
            verdict = engine.verify(ident, params, 30).verdict
        except SeriesError as exc:
            verdict = type(exc).__name__
        assert verdict != "EQUAL", ident

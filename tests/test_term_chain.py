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
    ways, from the same start product, at each module's binding of it;
    returns the list of (tag, chained
    outcome, direct outcome) it fills."""
    seen = []
    chained, direct = framework._sum_terms, direct_terms.sum_terms

    def both(spec, env, ctx, tag, trunc, start=None):
        got = _outcome(chained, spec, env, ctx, tag, trunc, start)
        seen.append((tag, got, _outcome(direct, spec, env, ctx, tag, trunc, start)))
        return chained(spec, env, ctx, tag, trunc, start)

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


@pytest.mark.parametrize("ident", ["ABCDE3", "ABCDE4", "COR52A", "COR52B", "SEC33PAIR"])
def test_written_flip_pairs_keep_the_exact_support(ident):
    # the engine's written slots bound k as the rewrite of each pair does
    rec = REGISTRY[ident]
    flipped = 0
    for env in engine.grid_points(rec):
        for side in ("lhs", "rhs"):
            spec = rec.side(side).sum
            if not spec.flips:
                continue
            num = [framework.eval_affine(a, env) for a in spec.argnum]
            den = [framework.eval_affine(b, env) for b in spec.argden]
            assert (engine.support_bounds(ident, side, env, 40)
                    == direct_terms.exact_support(spec, env, 40, num, den)), (env, side)
            flipped += 1
    assert flipped >= 243         # every point of the grid, 3^5 or 4^4 of them


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


def _chained_certificate_terms(point, caps, count):
    params = dict(zip("lmnuv", point))
    cores = {name: telescoping._core(spec, name, params, caps[name])
             for name, spec in (("A", telescoping._A_SUM), ("B", telescoping._B_SUM),
                                ("C0", telescoping._C0_SUM))}
    env = dict(params)
    for k in range(count):
        names = ["f", "g", "F", "S", "T"] + (["L0", "R0"] if k == 0 else [])
        yield k, {name: telescoping._terms(name, cores, env, k) for name in names}


def test_certificate_terms_chain_to_the_direct_terms():
    # u, v >= 1, as both certificates require before building any term; k
    # runs three places past the support, where every direct term is zero
    # and the chain builds none
    for point in product(range(4), range(4), range(4), range(1, 4), range(1, 4)):
        l, m, n, u, v = point
        caps = {"A": min(point), "B": min(l, m, n, u - 1, v - 1), "C0": 0}
        for k, chained in _chained_certificate_terms(point, caps, min(point) + 4):
            direct = direct_terms.certificate_terms(*point, k)
            for name, terms in chained.items():
                want, where = direct[name], (point, k, name)
                if k <= caps[telescoping._FAMILIES[name].base]:
                    assert ([(t.coeff, t.shift, t.powers) for t in terms]
                            == [(t.coeff, t.shift, t.powers) for t in want]), where
                else:
                    assert not terms and {t.state for t in want} == {"zero"}, where


# ---------------------------------------------------------------------------
# negative control: a chain step off by one
# ---------------------------------------------------------------------------


def _off_by_one(self, e, old, new, times=1):
    # from a nonzero index, start the change at q^(e+old-1), not q^(e+old)
    start = e + old - 1 if old else e
    return self.poch(start, new - old, times)


def test_an_off_by_one_step_is_caught(monkeypatch, compared):
    # each core at its true cap, min(l, m, n, u, v) for A and
    # min(l, m, n, u-1, v-1) for B; the correct step builds both
    params = dict.fromkeys("lmnuv", 2)
    cores = ((telescoping._A_SUM, 2), (telescoping._B_SUM, 1))
    for spec, cap in cores:
        assert len(telescoping._core(spec, "core", params, cap)) == cap + 1
    monkeypatch.setattr(PochProduct, "step", _off_by_one)
    rec = REGISTRY["ANDREWS1"]
    _eval_both_sides(rec, {"n": 4}, 30)
    assert any(got != want for _, got, want in compared)
    # the bad step leaves a zero term inside a certificate core's support,
    # which the core refuses instead of shifting every later k
    for spec, cap in cores:
        with pytest.raises(EngineError, match="zero term"):
            telescoping._core(spec, "core", params, cap)
    with pytest.raises(EngineError, match="zero term"):
        telescoping.verify_telescoping(2, 2, 2, 2, 2, 30)
    for ident in ("ABCDE1", "ANDREWS1", "EULERN1", "LMNRS3", "QINV1"):
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        try:
            verdict = engine.verify(ident, params, 30).verdict
        except SeriesError as exc:
            verdict = type(exc).__name__
        assert verdict != "EQUAL", ident


# ---------------------------------------------------------------------------
# the compiled plans
# ---------------------------------------------------------------------------


def _built_under(spec, params, tag, ctx=None):
    """(terms as triples, the sites passed) of ``spec`` built under ``tag``."""
    sites = set()
    ctx = ctx or EvalCtx(recorder=sites)
    terms = framework._sum_terms(spec, params, ctx, tag, 0)
    return [(t.coeff, t.shift, t.powers) for t in terms], sites


def test_one_sum_under_two_tags_keeps_each_tags_site_names():
    # a plan is compiled per (sum, tag), so a name formatted for one tag
    # never reaches a build under the other, in either order
    spec, params = telescoping._SPLIT_SUMS[0], dict(zip("lmnuv", (2, 3, 2, 1, 2)))
    first, split0 = _built_under(spec, params, "split0")
    second, other = _built_under(spec, params, "other")
    again, split0_again = _built_under(spec, params, "split0")
    assert first == second == again and len(first) == 3
    assert split0 == split0_again and split0 and other
    assert all(name.startswith("split0.") for name in split0)
    assert other == {"other." + name.removeprefix("split0.") for name in split0}
    # a perturbation of a site under one tag moves only the build under it
    site = "other.num[l+m+n-k]"
    assert site in other
    for tag, moved in (("split0", False), ("other", True)):
        ctx = EvalCtx({site: 1})
        assert (_built_under(spec, params, tag, ctx)[0] != first) is moved
        assert ctx.hits == (len(first) if moved else 0)


def _one_factor_off(self, e, old, new, times=1):
    """PochProduct.step with its in-place one-factor branch updating
    (1-q^(m+1)) in place of (1-q^m); every other change as before."""
    d = new - old
    m = e + old if d == 1 else e + new
    if d in (1, -1) and m >= 1:
        powers = self.powers
        c = powers.get(m + 1, 0) + d * times
        if c:
            powers[m + 1] = c
        else:
            del powers[m + 1]
        return self
    return self.poch(e + old, d, times)


def test_a_one_factor_step_off_by_one_is_caught(monkeypatch, compared):
    monkeypatch.setattr(PochProduct, "step", _one_factor_off)
    _eval_both_sides(REGISTRY["ANDREWS1"], {"n": 4}, 30)
    assert any(got != want for _, got, want in compared)
    for ident in ("ANDREWS1", "LMNRS3", "EULERN1"):
        params = {ps.name: ps.low + 2 for ps in REGISTRY[ident].params}
        try:
            verdict = engine.verify(ident, params, 30).verdict
        except SeriesError as exc:
            verdict = type(exc).__name__
        assert verdict != "EQUAL", ident


def test_each_plan_is_built_once_per_process(monkeypatch):
    # every (sum, tag) the registry builds, and every (prefactor, tag),
    # has one plan, compiled at its first build and reused after
    built = set()
    real = framework._sum_terms

    def recorded(spec, env, ctx, tag, trunc, start=None):
        built.add((spec, tag))
        return real(spec, env, ctx, tag, trunc, start)

    monkeypatch.setattr(framework, "_sum_terms", recorded)
    prefactors = {(rec.side(side).pre, side) for rec in REGISTRY.values()
                  for side in ("lhs", "rhs") if rec.side(side).pre is not None}
    framework._plan.cache_clear()
    framework._prefactor_plan.cache_clear()

    def sweep():
        for ident, rec in sorted(REGISTRY.items()):
            engine.verify(ident, {ps.name: ps.low + 1 for ps in rec.params}, 20)

    sweep()
    plans, pres = framework._plan.cache_info(), framework._prefactor_plan.cache_info()
    assert plans.misses == plans.currsize == len(built) > 50
    assert pres.misses == pres.currsize == len(prefactors) > 10
    sweep()
    assert framework._plan.cache_info().misses == plans.misses
    assert framework._prefactor_plan.cache_info().misses == pres.misses
    assert framework._plan.cache_info().hits >= plans.hits + len(built)


"""The two summation certificates and the quartic polynomial identity."""

import dataclasses
from collections import Counter
from itertools import product

import pytest

import series_oracle
from qrr import telescoping
from qrr.identities import EngineError
from qrr.identities.framework import MAX_PARAMETER, EvalCtx
from qrr.pochhammer import PochProduct
from qrr.series import SeriesError
from test_nested import _count_kernels, _full_depth
from qrr.telescoping import (
    quartic_sides,
    verify_quartic_identity,
    verify_sk_tk,
    verify_telescoping,
)


def test_telescoping_at_symmetric_point():
    rep = verify_telescoping(1, 1, 1, 1, 1, 40)
    assert rep.equal
    names = [name for name, _ in rep.checks]
    # the difference f_k - g_k must telescope at every index, and the
    # boundary/clearing comparisons close the argument
    assert "difference k=0" in names
    assert "partial-sum k=0" in names
    assert "boundary" in names
    assert "sum-splitting" in names
    assert "lhs-clearing" in names
    assert "rhs-clearing" in names
    assert all(v == "EQUAL" for _, v in rep.checks)


def test_telescoping_grid_sample():
    for point in ((0, 0, 0, 1, 1), (3, 2, 1, 2, 3), (2, 3, 1, 1, 2), (0, 3, 2, 3, 1)):
        rep = verify_telescoping(*point, trunc=40)
        assert rep.equal, (point, rep.checks)


def test_termwise_certificate():
    rep = verify_sk_tk(1, 1, 1, 1, 1, 40)
    assert rep.equal
    names = [name for name, _ in rep.checks]
    assert "termwise k=0" in names
    assert "lhs-assembly" in names
    assert "rhs-assembly" in names


def test_termwise_asymmetric_point():
    rep = verify_sk_tk(3, 0, 1, 2, 1, 40)
    assert rep.equal


def _failed(rep):
    return {name for name, verdict in rep.checks if verdict == "MISMATCH"}


def _patch_family(monkeypatch, name, change):
    """Route the terms of family ``name`` through change(terms, k)."""
    terms = telescoping._terms

    def patched(which, cores, params, k):
        out = terms(which, cores, params, k)
        return change(out, k) if which == name else out

    monkeypatch.setattr(telescoping, "_terms", patched)


def test_telescoping_detects_a_corrupted_increment(monkeypatch):
    # F(k) times q: the differences and partial sums that involve a nonzero
    # F(k) break, the checks that never use F do not
    _patch_family(monkeypatch, "F", lambda terms, k: [t.q(1) for t in terms])
    rep = verify_telescoping(1, 1, 1, 1, 1, 30)
    assert rep.verdict == "MISMATCH"
    assert rep.mismatch_index is None
    assert _failed(rep) == {"difference k=0", "difference k=1", "partial-sum k=0",
                            "partial-sum k=1", "partial-sum k=2", "partial-sum k=3"}
    assert len(rep.checks) == 12


def test_telescoping_detects_a_corrupted_f_term(monkeypatch):
    # one extra q^5 in f_1 alone: its difference, every partial sum from
    # k=1 on and every check that reads the reassembled left side break
    _patch_family(monkeypatch, "f", lambda terms, k: terms + (
        [PochProduct().q(5)] if k == 1 else []))
    rep = verify_telescoping(1, 1, 1, 1, 1, 30)
    assert rep.verdict == "MISMATCH"
    assert _failed(rep) == {"difference k=1", "partial-sum k=1", "partial-sum k=2",
                            "partial-sum k=3", "boundary", "sum-splitting",
                            "lhs-clearing"}


def test_telescoping_clearing_checks_bite(monkeypatch):
    # without the cleared factor (1 - q^(l+m+n+u+v+1)) both registry sides
    # disagree with the reassembled sums, and nothing else changes: each
    # registry term comes back divided by the factor the clearing multiplies in
    terms_of = telescoping.side_terms

    def uncleared(record, side, env, trunc):
        terms, euler = terms_of(record, side, env, trunc)
        return [t.dfactor(sum(env.values()) + 1) for t in terms], euler

    monkeypatch.setattr(telescoping, "side_terms", uncleared)
    rep = verify_telescoping(1, 1, 1, 1, 1, 30)
    assert rep.verdict == "MISMATCH"
    assert _failed(rep) == {"lhs-clearing", "rhs-clearing"}


def test_termwise_detects_a_corrupted_s_factor(monkeypatch):
    # one more (1 - q^(k+1)) on every S_k: each termwise check with a nonzero
    # S_k breaks, and so does the left assembly, but not the right one
    _patch_family(monkeypatch, "S", lambda terms, k: [t.factor(k + 1) for t in terms])
    rep = verify_sk_tk(1, 1, 1, 2, 2, 30)
    assert rep.verdict == "MISMATCH"
    assert _failed(rep) == {"termwise k=0", "termwise k=1", "lhs-assembly"}


def test_termwise_assembly_checks_bite(monkeypatch):
    # every registry term times one factor (1 - q^(l+m+n+u+v+1)): both
    # assemblies break, and no termwise check reads the registry
    terms_of = telescoping.side_terms

    def cleared(record, side, env, trunc):
        terms, euler = terms_of(record, side, env, trunc)
        return [t.factor(sum(env.values()) + 1) for t in terms], euler

    monkeypatch.setattr(telescoping, "side_terms", cleared)
    rep = verify_sk_tk(1, 1, 1, 2, 2, 30)
    assert rep.verdict == "MISMATCH"
    assert _failed(rep) == {"lhs-assembly", "rhs-assembly"}


def test_termwise_detects_a_corrupted_t_term(monkeypatch):
    _patch_family(monkeypatch, "T", lambda terms, k: terms + [PochProduct().q(k + 2)])
    rep = verify_sk_tk(1, 1, 1, 1, 1, 30)
    assert rep.verdict == "MISMATCH"
    assert rep.mismatch_index is None
    assert _failed(rep) == {"termwise k=0", "termwise k=1", "termwise k=2",
                            "rhs-assembly"}


def test_telescoping_detects_a_corrupted_a_spec(monkeypatch):
    # q^k more in every A(k): the increments, the partial sums and every
    # check that reads the reassembled sides break
    monkeypatch.setattr(telescoping, "_A_SUM",
                        dataclasses.replace(telescoping._A_SUM, quad=(5, 1)))
    rep = verify_telescoping(1, 1, 1, 1, 1, 30)
    assert rep.verdict == "MISMATCH"
    assert _failed(rep) == {"difference k=0", "partial-sum k=0", "partial-sum k=1",
                            "partial-sum k=2", "partial-sum k=3", "boundary",
                            "sum-splitting", "lhs-clearing", "rhs-clearing"}


def test_telescoping_detects_a_corrupted_split_spec(monkeypatch):
    first, second = telescoping._SPLIT_SUMS
    monkeypatch.setattr(telescoping, "_SPLIT_SUMS",
                        (first, dataclasses.replace(second, quad=(2, 0))))
    rep = verify_telescoping(1, 1, 1, 1, 1, 30)
    assert rep.verdict == "MISMATCH"
    assert _failed(rep) == {"sum-splitting"}


def test_termwise_detects_a_corrupted_b_spec(monkeypatch):
    # q^k more in every B(k) scales S_k and T_k alike, so each termwise
    # check holds and only the assemblies against the registry break
    monkeypatch.setattr(telescoping, "_B_SUM",
                        dataclasses.replace(telescoping._B_SUM, quad=(5, 5)))
    rep = verify_sk_tk(1, 1, 1, 2, 2, 30)
    assert rep.verdict == "MISMATCH"
    assert _failed(rep) == {"lhs-assembly", "rhs-assembly"}


def test_telescoping_detects_a_split_spec_that_drops_a_term(monkeypatch):
    # (q)_(l-k-1) puts a zero at k = l inside the support: refused by name,
    # not a crash of the interleaving
    first, second = telescoping._SPLIT_SUMS
    den = ("k", "l-k-1") + second.den[2:]
    monkeypatch.setattr(telescoping, "_SPLIT_SUMS",
                        (first, dataclasses.replace(second, den=den)))
    with pytest.raises(EngineError, match=r"split1: zero term in k = 0..1 at .*'l': 1"):
        verify_telescoping(1, 1, 1, 1, 1, 30)


@pytest.mark.parametrize("name", sorted(telescoping._FAMILIES))
def test_every_declared_family_bites(name, monkeypatch):
    # one more in the last exponent of the family's last term
    family = telescoping._FAMILIES[name]
    last = family.terms[-1]
    slot = "den" if last.den else "num" if last.num else "qpow"
    if slot == "qpow":
        last = dataclasses.replace(last, qpow=last.qpow + "+1")
    else:
        exps = getattr(last, slot)
        last = dataclasses.replace(last, **{slot: exps[:-1] + (exps[-1] + "+1",)})
    monkeypatch.setitem(telescoping._FAMILIES, name, dataclasses.replace(
        family, terms=family.terms[:-1] + (last,)))
    certify = verify_sk_tk if family.base == "B" else verify_telescoping
    assert certify(1, 1, 1, 2, 2, 30).verdict == "MISMATCH"


def test_every_site_belongs_to_one_declaration(monkeypatch):
    names = set()
    monkeypatch.setattr(telescoping, "_CTX", EvalCtx(recorder=names))
    for certify in (verify_telescoping, verify_sk_tk):
        assert certify(2, 2, 2, 2, 2, 30).equal
    # the tag before the first "." names the declaration a site belongs to
    declared = {"A", "B", "C0", "split0", "split1", *telescoping._FAMILIES}
    assert {name.split(".")[0] for name in names} == declared
    # and within a declaration no two slots share a name
    for family in telescoping._FAMILIES.values():
        _, sites, _ = family.row
        assert len(set(sites)) == len(sites), family.name
    for spec in (telescoping._A_SUM, telescoping._B_SUM, telescoping._C0_SUM,
                 *telescoping._SPLIT_SUMS):
        assert len(set(spec.num)) == len(spec.num)
        assert len(set(spec.den)) == len(spec.den)


def test_every_certificate_site_bites(monkeypatch):
    # every site either certificate passes at two points, each moved by +1
    # and by -1: the probe must read MISMATCH or raise
    outcomes, blind = Counter(), set()
    for certify, point in product((verify_telescoping, verify_sk_tk),
                                  ((1, 1, 1, 2, 2), (2, 3, 2, 2, 3))):
        sites = set()
        monkeypatch.setattr(telescoping, "_CTX", EvalCtx(recorder=sites))
        assert certify(*point, 30).equal
        for site, delta in product(sorted(sites), (1, -1)):
            monkeypatch.setattr(telescoping, "_CTX", EvalCtx({site: delta}))
            try:
                got = certify(*point, 30).verdict
            except SeriesError as exc:
                got = type(exc).__name__
            outcomes[got] += 1
            if got == "EQUAL":
                blind.add((certify.__name__, point, site, delta))
    assert outcomes == {"MISMATCH": 478, "EngineError": 26, "EQUAL": 4}
    # a .qpow site moves by d*k, and C0 has only the term k = 0, so its
    # power of q cannot move; every other site bites
    assert blind == {("verify_telescoping", point, "C0.qpow", delta)
                     for point in ((1, 1, 1, 2, 2), (2, 3, 2, 2, 3)) for delta in (1, -1)}


# ---------------------------------------------------------------------------
# every term list of a certificate summed by the rule compare_sides uses
# ---------------------------------------------------------------------------


# the default grid of both certificates: l, m, n in 0..3 and u, v in 1..3
DEFAULT_POINTS = [(l, m, n, u, v) for l, m, n in product(range(4), repeat=3)
                  for u, v in product((1, 2, 3), repeat=2)]


def _recorded_depths(monkeypatch):
    """telescoping.sum_sides, wrapped: the depth of each call is appended."""
    real, depths = telescoping.sum_sides, []

    def recorded(sides, trunc):
        out = real(sides, trunc)
        depths.append(out[1])
        return out

    monkeypatch.setattr(telescoping, "sum_sides", recorded)
    return depths


def _both_certificates(points):
    return [certify(*point, 40) for point in points
            for certify in (verify_telescoping, verify_sk_tk)]


def test_capped_certificates_report_as_at_full_depth(monkeypatch, series_route):
    depths = _recorded_depths(monkeypatch)
    capped = _both_certificates(DEFAULT_POINTS)
    # B + 2 < T at most points, so the cap is not vacuous
    assert sum(d < 40 for d in depths[0::2]) == 488
    assert sum(d < 40 for d in depths[1::2]) == 524
    del depths[:]
    _full_depth(monkeypatch)
    assert _both_certificates(DEFAULT_POINTS) == capped
    assert set(depths) == {40}
    assert all(rep.equal for rep in capped)


def test_full_depth_certificates_take_no_pass_on_the_packed_route(monkeypatch):
    # the counterpart of the test above: with no degree bound every
    # certificate is decided on the packed route through q^T, with no pass
    capped = _both_certificates(DEFAULT_POINTS)
    real, routes = telescoping.sum_sides, []

    def recorded(sides, trunc):
        out = real(sides, trunc)
        routes.append((out.depth, out.base > 0, out.modulus > 0))
        return out

    monkeypatch.setattr(telescoping, "sum_sides", recorded)
    calls = _count_kernels(monkeypatch)
    _full_depth(monkeypatch)
    assert _both_certificates(DEFAULT_POINTS) == capped
    assert set(routes) == {(40, True, True)} and not calls


CORRUPTED_FACTORS = pytest.mark.parametrize("certify,depth,site,failed", [
    (verify_telescoping, 16, "F.0.num[l+m+n+k+1]",
     {"difference k=0", "partial-sum k=0", "difference k=1", "partial-sum k=1",
      "partial-sum k=2", "partial-sum k=3"}),
    (verify_sk_tk, 12, "S.0.num[k+k+1]", {"termwise k=0", "lhs-assembly"}),
], ids=["telescoping-F", "termwise-S"])


@CORRUPTED_FACTORS
def test_a_corrupted_factor_fails_alike_capped_and_at_full_depth(
        certify, depth, site, failed, monkeypatch, series_route):
    depths = _recorded_depths(monkeypatch)
    assert certify(1, 1, 1, 1, 1, 40).equal
    assert depths == [depth]
    monkeypatch.setattr(telescoping, "_CTX", EvalCtx({site: 1}))
    capped = certify(1, 1, 1, 1, 1, 40)
    assert depths[-1] < 40
    assert _failed(capped) == failed
    _full_depth(monkeypatch)
    assert certify(1, 1, 1, 1, 1, 40) == capped
    assert depths[-1] == 40


@CORRUPTED_FACTORS
def test_a_corrupted_factor_fails_alike_at_one_point(certify, depth, site, failed,
                                                     monkeypatch):
    # the same checks fail on the point route, which decides both
    # certificates here with no kernel pass
    real, calls = telescoping.sum_sides, []

    def recorded(sides, trunc):
        out = real(sides, trunc)
        calls.append((out.depth, out.base))
        return out

    monkeypatch.setattr(telescoping, "sum_sides", recorded)
    assert certify(1, 1, 1, 1, 1, 40).equal
    monkeypatch.setattr(telescoping, "_CTX", EvalCtx({site: 1}))
    assert _failed(certify(1, 1, 1, 1, 1, 40)) == failed
    (plain, base), (_, corrupted) = calls
    assert plain == depth and base and corrupted


@pytest.mark.parametrize("certify,site", [(verify_telescoping, "F.0.num[l+m+n+k+1]"),
                                          (verify_sk_tk, "S.0.num[k+k+1]")],
                         ids=["telescoping-F", "termwise-S"])
def test_a_corrupted_factor_fails_alike_past_the_bound(certify, site, monkeypatch):
    # at (3,3,3,3,3) B + 2 > T, so the packed route decides both
    # certificates, and the same checks fail there as on the series route
    real, calls = telescoping.sum_sides, []

    def recorded(sides, trunc):
        out = real(sides, trunc)
        calls.append((out.depth, out.base > 0))
        return out

    monkeypatch.setattr(telescoping, "sum_sides", recorded)
    monkeypatch.setattr(telescoping, "_CTX", EvalCtx({site: 1}))
    packed = certify(3, 3, 3, 3, 3, 40)
    assert calls == [(40, True)] and _failed(packed)
    with monkeypatch.context() as mp:
        series_oracle.install(mp)
        assert certify(3, 3, 3, 3, 3, 40) == packed


def test_certificate_cores_stop_at_the_support():
    # A(k) is nonzero for k = 0..min(l,m,n,u,v), B(k) for k = 0..min(l,m,n,u-1,v-1),
    # and a core holds just those terms
    params = dict(zip("lmnuv", (2, 3, 2, 1, 2)))
    a = telescoping._core(telescoping._A_SUM, "A", params, 1)
    assert [t.state for t in a] == ["ok", "ok"]
    b = telescoping._core(telescoping._B_SUM, "B", dict(zip("lmnuv", (2, 3, 2, 2, 3))), 1)
    assert [t.state for t in b] == ["ok", "ok"]
    # a core shorter than the cap it is built for is refused
    with pytest.raises(EngineError, match=r"A: zero term in k = 0..2 at"):
        telescoping._core(telescoping._A_SUM, "A", params, 2)
    # past its core's support a family has no term, the value 0, and the
    # certificate's environment takes each k without reaching the report
    env = dict(params)
    assert telescoping._terms("F", {"A": a}, env, 1) and env["k"] == 1
    assert all(telescoping._terms(name, {"A": a}, env, k) == []
               for name in "fgF" for k in (2, 3, 4))
    assert verify_telescoping(*params.values(), 30).params == params


def test_precondition_refused_by_name():
    # u, v >= 1 is the floor of LMNRS3 and LMNRS4 themselves
    with pytest.raises(EngineError, match="parameter u must be an integer >= 1 .*, got 0"):
        verify_telescoping(1, 1, 1, 0, 1, 30)
    with pytest.raises(EngineError, match="parameter v must be an integer >= 1 .*, got 0"):
        verify_sk_tk(1, 1, 1, 1, 0, 30)


def test_negative_parameters_rejected():
    with pytest.raises(EngineError):
        verify_telescoping(-1, 0, 0, 1, 1, 20)
    with pytest.raises(EngineError):
        verify_sk_tk(0, 0, -2, 1, 1, 20)


def _no_terms(monkeypatch):
    monkeypatch.setattr(telescoping, "_core", None)
    monkeypatch.setattr(telescoping, "_terms", None)


def test_certificates_refuse_oversize_parameters(monkeypatch):
    _no_terms(monkeypatch)
    for certify in (verify_telescoping, verify_sk_tk):
        with pytest.raises(EngineError, match=f"parameter n must be an integer >= 0 and "
                                              f"at most {MAX_PARAMETER}, got {MAX_PARAMETER + 1}"):
            certify(1, 1, MAX_PARAMETER + 1, 1, 1, 20)


@pytest.mark.parametrize("point, trunc", [((200,) * 5, 2000), ((20,) * 5, 2000),
                                          ((6,) * 5, 10000)])
def test_certificates_refuse_too_much_work(point, trunc, monkeypatch):
    # each parameter and T within its own bound, refused before any term
    _no_terms(monkeypatch)
    for certify in (verify_telescoping, verify_sk_tk):
        with pytest.raises(EngineError, match="coefficient updates, more than the limit"):
            certify(*point, trunc)


@pytest.mark.parametrize("bad", [1.5, True, "2", None])
def test_certificates_refuse_non_integer_parameters(bad, monkeypatch):
    # refused by name before any term is built
    _no_terms(monkeypatch)
    for certify in (verify_telescoping, verify_sk_tk):
        with pytest.raises(EngineError, match="parameter m must be an integer"):
            certify(1, bad, 1, 1, 1, 20)


def test_quartic_sides_frozen():
    assert quartic_sides(1, 2, 3, 4) == (462, 462)
    assert quartic_sides(2, 3, 5, 7) == (203320, 203320)
    # polynomial identity: any integers agree
    assert quartic_sides(0, 0, 0, 0) == (0, 0)
    assert quartic_sides(-1, 2, -3, 5)[0] == quartic_sides(-1, 2, -3, 5)[1]


def test_quartic_grid():
    assert verify_quartic_identity()
    assert verify_quartic_identity(values=(-2, -1, 0, 1, 2))
    with pytest.raises(EngineError):
        verify_quartic_identity(values=(1, 2, 3, 4))      # not enough values
    with pytest.raises(EngineError):
        verify_quartic_identity(values=(1, 1, 2, 3, 4))   # repeats don't count

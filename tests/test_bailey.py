"""Bailey pairs, chain and lattice moves, and identity reconstruction.

The stock pairs have closed-form entries, so those are frozen here as
independent oracles before any machinery is exercised on top of them.
"""

import dataclasses
import re
from collections import Counter

import pytest

from qrr import bailey, pochhammer
from qrr.bailey import (
    BaileyPair,
    bailey_step,
    chain_reproduce,
    fold_to_one_sided,
    lattice_seed_pair,
    lattice_step,
    symmetrized_identity,
    unit_bilateral_x1,
    unit_bilateral_xq,
    unit_pair_x1,
    verify_pair,
)
from qrr.identities import EngineError, verify
from qrr.identities.framework import MAX_PARAMETER
from qrr.pochhammer import PochProduct, sum_terms
from qrr.series import power_series

T = 30


def _series(*monomials):
    """Coefficients of q^0 .. q^T with given (coefficient, exponent) spikes."""
    buf = [0] * (T + 1)
    for c, e in monomials:
        buf[e] += c
    return buf


def _alpha(pair, r):
    return power_series(sum_terms(pair.alpha_terms(r), T), T)


def _beta(pair, n):
    return power_series(sum_terms(pair.beta_terms(n), T), T)


def test_unit_pair_x1_closed_form():
    pair = unit_pair_x1()
    assert pair.mode == "one_sided" and pair.x_exp == 0
    assert _alpha(pair, 0) == _series((1, 0))
    # alpha_n = (-1)^n (q^{n(n-1)/2} + q^{n(n+1)/2})
    assert _alpha(pair, 1) == _series((-1, 0), (-1, 1))
    assert _alpha(pair, 2) == _series((1, 1), (1, 3))
    assert _alpha(pair, 3) == _series((-1, 3), (-1, 6))
    assert _beta(pair, 0) == _series((1, 0))
    assert _beta(pair, 3) == _series()


def test_unit_bilateral_closed_forms():
    for pair in (unit_bilateral_x1(), unit_bilateral_xq()):
        # A_r = (-1)^r q^{r(r-1)/2} on both sides of zero
        assert _alpha(pair, 0) == _series((1, 0))
        assert _alpha(pair, 1) == _series((-1, 0))
        assert _alpha(pair, 2) == _series((1, 1))
        assert _alpha(pair, -1) == _series((-1, 1))
        assert _alpha(pair, -2) == _series((1, 3))
        assert _beta(pair, 0) == _series((1, 0))
        assert _beta(pair, 2) == _series()
    assert unit_bilateral_x1().x_exp == 0
    assert unit_bilateral_xq().x_exp == 1


def test_lattice_seed_closed_form():
    pair = lattice_seed_pair()
    assert pair.mode == "one_sided" and pair.x_exp == 1
    assert _alpha(pair, 0) == _series((1, 0))
    # alpha_n = (-1)^n q^{n(n-1)/2} (1-q^{2n+1})/(1-q)
    geom3 = _series((-1, 0), (-1, 1), (-1, 2))
    assert _alpha(pair, 1) == geom3
    geom5 = _series(*((1, e) for e in range(1, 6)))
    assert _alpha(pair, 2) == geom5


def test_relation_ranges_per_mode():
    assert unit_pair_x1().relation_range(3) == range(0, 4)
    assert unit_bilateral_x1().relation_range(3) == range(-3, 4)
    assert unit_bilateral_xq().relation_range(3) == range(-4, 4)
    with pytest.raises(EngineError):
        unit_pair_x1().relation_terms(-1)


def test_mode_validation():
    with pytest.raises(EngineError):
        BaileyPair("bilateral_x1", 1, lambda r: [], lambda n: [])
    with pytest.raises(EngineError):
        BaileyPair("bilateral_xq", 0, lambda r: [], lambda n: [])
    with pytest.raises(EngineError):
        BaileyPair("sideways", 0, lambda r: [], lambda n: [])


@pytest.mark.parametrize("mode, x_exp", [
    ("one_sided", 1.5), ("one_sided", True), ("one_sided", "1"),
    ("one_sided", None), ("one_sided", -1), ("bilateral_x1", 0.0),
    ("bilateral_x1", False), ("bilateral_xq", 1.0),
])
def test_x_exp_must_be_a_nonnegative_integer(mode, x_exp):
    message = f"x_exp must be an integer >= 0, got {x_exp!r}"
    with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
        BaileyPair(mode, x_exp, lambda r: [], lambda n: [])


def test_stock_pairs_satisfy_relation():
    for pair in (unit_pair_x1(), unit_bilateral_x1(),
                 unit_bilateral_xq(), lattice_seed_pair()):
        reports = verify_pair(pair, n_max=8, trunc=T)
        assert len(reports) == 9
        assert all(r.equal for r in reports), pair.label


def test_folds_recover_the_one_sided_units():
    folded = fold_to_one_sided(unit_bilateral_x1())
    unit = unit_pair_x1()
    for r in range(7):
        assert _alpha(folded, r) == _alpha(unit, r)
    assert folded.x_exp == unit.x_exp

    folded_q = fold_to_one_sided(unit_bilateral_xq())
    seed = lattice_seed_pair()
    for r in range(7):
        assert _alpha(folded_q, r) == _alpha(seed, r)
    assert folded_q.x_exp == seed.x_exp

    already = unit_pair_x1()
    assert fold_to_one_sided(already) is already


def test_step_preserves_the_relation():
    # for the x=q bilateral pair the move degenerates when exactly one rho
    # equals x (the mixed case folds one side of alpha but not the weights),
    # so its rho choices stay off that edge; the chain reconstructions only
    # ever use rho exponents <= 0 there
    cases = [
        (unit_pair_x1(), ((0, 0), (-1, 0), (-2, -1))),
        (unit_bilateral_x1(), ((0, 0), (-1, 0), (-2, -1))),
        (unit_bilateral_xq(), ((1, 1), (0, 0), (-1, 0), (-2, -1))),
        (lattice_seed_pair(), ((1, 1), (0, 1), (-1, 0))),
    ]
    for base, rho_list in cases:
        for rhos in rho_list:
            stepped = bailey_step(base, *rhos)
            assert stepped.mode == base.mode and stepped.x_exp == base.x_exp
            reports = verify_pair(stepped, n_max=5, trunc=T)
            assert all(r.equal for r in reports), (base.label, rhos)


def test_step_guard():
    with pytest.raises(EngineError):
        bailey_step(unit_pair_x1(), 1, 0)     # rho exponent above x


def test_step_composes():
    twice = bailey_step(bailey_step(unit_bilateral_x1(), 0, -1), -1, 0)
    assert all(r.equal for r in verify_pair(twice, n_max=4, trunc=T))


def test_lattice_step_lowers_x():
    seed = lattice_seed_pair()
    for rhos in ((0, 0), (0, -1), (-1, -1)):
        moved = lattice_step(seed, *rhos)
        assert moved.mode == "one_sided" and moved.x_exp == 0
        reports = verify_pair(moved, n_max=5, trunc=T)
        assert all(r.equal for r in reports), rhos


def test_lattice_step_guards():
    with pytest.raises(EngineError):
        lattice_step(unit_bilateral_x1(), 0, 0)    # needs a one-sided pair
    with pytest.raises(EngineError):
        lattice_step(lattice_seed_pair(), 1, 0)    # rho exponent too high


def _doubled(pair):
    """The pair with every alpha and beta term scaled by 2: still a pair."""
    def double(terms):
        return lambda r: [t.copy().scale(2) for t in terms(r)]
    return dataclasses.replace(pair, alpha_terms=double(pair.alpha_terms),
                               beta_terms=double(pair.beta_terms))


def test_lattice_step_keeps_alpha_0():
    # the lattice gives alpha'_0 = alpha_0, which is 2 here, not 1
    doubled = _doubled(lattice_seed_pair())
    assert all(r.equal for r in verify_pair(doubled, n_max=3, trunc=20))
    moved = lattice_step(doubled, 0, 0)
    assert _alpha(moved, 0) == _series((2, 0))
    reports = verify_pair(moved, n_max=3, trunc=20)
    assert [r.verdict for r in reports] == ["EQUAL"] * 4


def test_lattice_after_step():
    prepared = bailey_step(lattice_seed_pair(), 1, 0)
    moved = lattice_step(prepared, 0, -1)
    assert all(r.equal for r in verify_pair(moved, n_max=4, trunc=T))


def test_weighted_identity_all_modes():
    # same domain note as for the chain step: keep the x=q bilateral pair
    # away from mixed rho-at-x edges
    cases = [
        (unit_pair_x1(), 0, -1),
        (unit_pair_x1(), 0, 0),
        (unit_bilateral_x1(), 0, 0),
        (unit_bilateral_x1(), -2, -1),
        (unit_bilateral_xq(), 0, 0),
        (unit_bilateral_xq(), 1, 1),
        (lattice_seed_pair(), 0, 1),
        (lattice_seed_pair(), -1, 1),
    ]
    for pair, r1, r2 in cases:
        for N in (0, 1, 3):
            rep = symmetrized_identity(pair, r1, r2, N, T)
            assert rep.equal, (pair.label, r1, r2, N, rep.mismatch_index)


def test_weighted_identity_on_stepped_pair():
    stepped = bailey_step(unit_bilateral_x1(), 0, -1)
    rep = symmetrized_identity(stepped, -1, 0, 2, T)
    assert rep.equal


def _with_extra_beta_2(pair):
    """The pair with q^3 added to beta_2: no longer a Bailey pair."""
    beta = pair.beta_terms
    return dataclasses.replace(
        pair, beta_terms=lambda n: beta(n) + ([PochProduct().q(3)] if n == 2 else []))


def test_verify_pair_detects_a_corrupted_beta():
    reports = verify_pair(_with_extra_beta_2(unit_pair_x1()), n_max=3, trunc=T)
    assert [r.verdict for r in reports] == ["EQUAL", "EQUAL", "MISMATCH", "EQUAL"]
    bad = reports[2]
    assert bad.params == {"n": 2} and bad.mismatch_index == 3
    assert dict(bad.lhs_window)[3] == 1 and dict(bad.rhs_window)[3] == 0


def test_weighted_identity_detects_a_corrupted_beta():
    pair = unit_pair_x1()
    assert symmetrized_identity(pair, -2, -3, 2, T).equal
    rep = symmetrized_identity(_with_extra_beta_2(pair), -2, -3, 2, T)
    assert rep.verdict == "MISMATCH"
    assert rep.mismatch_index == 7
    assert dict(rep.lhs_window)[7] != dict(rep.rhs_window)[7]


def test_chain_reproduce_detects_a_corrupted_closed_form(monkeypatch):
    closed = bailey._closed_beta_via_lattice
    monkeypatch.setattr(bailey, "_closed_beta_via_lattice",
                        lambda *a: closed(*a) + [PochProduct().q(5)])
    rep = chain_reproduce("ABCDE3", 2, trunc=T)
    assert rep.verdict == "MISMATCH"
    # q^5 times the bridge (q; q)_2^2 starts at q^5 with coefficient 1
    assert rep.mismatch_index == 5
    assert dict(rep.lhs_window)[5] - dict(rep.rhs_window)[5] == 1


def test_weighted_identity_guards():
    with pytest.raises(EngineError):
        symmetrized_identity(unit_pair_x1(), 1, 0, 2, T)
    with pytest.raises(EngineError):
        symmetrized_identity(unit_pair_x1(), 0, 0, -1, T)


@pytest.mark.parametrize("N", [True, 1.5, -1, bailey.MAX_BAILEY_N + 1])
def test_terminating_parameter_must_be_a_bounded_integer(N):
    with pytest.raises(EngineError, match=f"parameter N must be an integer.*got {N!r}"):
        symmetrized_identity(unit_pair_x1(), 0, 0, N, T)


@pytest.mark.parametrize("rho", [-0.5, True, "0", None])
@pytest.mark.parametrize("move", [
    lambda rhos: bailey_step(unit_bilateral_x1(), *rhos),
    lambda rhos: lattice_step(lattice_seed_pair(), *rhos),
    lambda rhos: symmetrized_identity(unit_bilateral_x1(), *rhos, 2, T),
], ids=["bailey_step", "lattice_step", "symmetrized_identity"])
def test_rho_exponents_must_be_integers(move, rho, monkeypatch):
    def no_term(*args):
        raise AssertionError("a term was built")

    monkeypatch.setattr(PochProduct, "__init__", no_term)
    for name, rhos in (("rho1_exp", (rho, 0)), ("rho2_exp", (0, rho))):
        message = f"{name} must be an integer, got {rho!r}"
        with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
            move(rhos)


@pytest.mark.parametrize("n_max", [True, 2.5, -1])
def test_relation_index_must_be_a_nonnegative_integer(n_max):
    with pytest.raises(EngineError, match=f"n_max must be an integer.*got {n_max!r}"):
        verify_pair(unit_pair_x1(), n_max=n_max, trunc=T)


def test_chain_reproduce_pinned_case():
    rep = chain_reproduce("ABCDE1", 2, 2, 2, 1, 1, trunc=40)
    assert rep.equal
    assert rep.params == {"n": 2, "l": 1, "m": 1, "u": 0, "v": 0}


def test_chain_reproduce_all_targets():
    for target in ("ABCDE1", "ABCDE2", "ABCDE3"):
        for N in range(4):
            rep = chain_reproduce(target, N, trunc=T)
            assert rep.equal, (target, N)
            # the reconstruction and the registry agree with direct verification
            direct = verify(target, rep.params, T)
            assert direct.equal


def test_chain_reproduce_nontrivial_exponents():
    rep = chain_reproduce("ABCDE3", 3, 2, 3, 1, 2, trunc=T)
    assert rep.equal
    # the top exponent gives the top record parameter
    rep = chain_reproduce("ABCDE1", 0, MAX_PARAMETER + 1, 1, 1, 1, trunc=5)
    assert rep.equal and rep.params["l"] == MAX_PARAMETER


def test_chain_reproduce_rejects_bad_input():
    with pytest.raises(EngineError):
        chain_reproduce("ABCDE4", 2)
    with pytest.raises(EngineError):
        chain_reproduce("ABCDE1", -1)
    with pytest.raises(EngineError):
        chain_reproduce("ABCDE1", 2, 0, 1, 1, 1)


@pytest.mark.parametrize("name, args", [
    ("N", (True,)),
    ("N", (1.5,)),
    ("N", (bailey.MAX_BAILEY_N + 1,)),
    ("b_exp", (1, True)),
    ("b_exp", (1, 1.5)),
    ("c_exp", (1, 1, 2.0)),
    ("d_exp", (1, 1, 1, False)),
    ("e_exp", (1, 1, 1, 1, 0.5)),
    ("b_exp", (1, 300)),
    ("c_exp", (1, 1, MAX_PARAMETER + 2)),
    ("d_exp", (1, 1, 1, 10 ** 6)),
    ("e_exp", (1, 1, 1, 1, MAX_PARAMETER + 2)),
])
def test_chain_inputs_must_be_bounded_integers(name, args):
    # the message names the input, not a record parameter derived from it
    with pytest.raises(EngineError, match=rf"^{name} must be an integer .*got {args[-1]!r}$"):
        chain_reproduce("ABCDE1", *args, trunc=10)


def test_relation_index_is_bounded():
    top = bailey.MAX_BAILEY_N
    assert len(verify_pair(unit_pair_x1(), n_max=top, trunc=10)) == top + 1
    with pytest.raises(EngineError, match=f"at most {top}"):
        verify_pair(unit_pair_x1(), n_max=top + 1, trunc=T)


def test_chain_is_case_insensitive():
    assert chain_reproduce("abcde2", 1, trunc=T).equal


def test_bailey_work_is_pinned(monkeypatch):
    # Kernel passes of the chain reconstructions and the stock pair
    # relations at T=40: each route and the registry side, its prefactor
    # carried by every term, go through compare_sides, which decides every
    # check of int coefficients at one integer point (term by term where
    # B + 2 <= T, else on one packed integer) with no pass through
    # pochhammer's bindings, the only ones.  Term counts of a folded pair
    # and of a lattice route pin how many terms the moves build.
    calls = Counter()
    for name in ("mul_binomial", "div_binomial"):
        def counted(*args, kernel=getattr(pochhammer, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(pochhammer, name, counted)

    for target in bailey.CHAIN_TARGETS:
        for N in range(5):
            assert chain_reproduce(target, N, 2, 3, 1, 2, trunc=40).equal
    for pair in (unit_pair_x1(), unit_bilateral_x1(),
                 unit_bilateral_xq(), lattice_seed_pair()):
        assert all(r.equal for r in verify_pair(pair, n_max=10, trunc=40))
    assert dict(calls) == {}

    route = lattice_step(bailey_step(lattice_seed_pair(), 0, 0), 0, -1)
    assert [len(pair.relation_terms(6)) + len(pair.beta_terms(6))
            for pair in (unit_pair_x1(), route)] == [13, 20]

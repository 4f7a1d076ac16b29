"""Acceptance suite.

One test per advertised guarantee, so ``pytest -v`` shows a single
pass/fail line for each.  Grids and truncation orders here are the widest
the package promises to handle within its stated time budgets; the unit
modules cover the same code paths at finer granularity.
"""

import itertools
import json
import time

from qrr import cli
from qrr.bailey import (
    bailey_step,
    chain_reproduce,
    lattice_seed_pair,
    lattice_step,
    unit_bilateral_x1,
    unit_bilateral_xq,
    unit_pair_x1,
    verify_pair,
)
from qrr.binomial import (
    bino4_sides,
    bino5_sides,
    cor57_sides,
    cor58a_sides,
    cor58b_sides,
    divisibility_check,
    general_divisibility_check,
)
from qrr.identities import (
    REGISTRY,
    eval_side,
    get_record,
    identity_sites,
    rr_limit_check,
    verify,
    verify_grid,
    verify_mutated,
)
from qrr.pochhammer import rr_product_side
from qrr.series import SeriesError
from qrr.telescoping import verify_quartic_identity, verify_sk_tk, verify_telescoping


def _all_equal(ident, ranges, trunc):
    reports = verify_grid(ident, ranges, trunc)
    assert reports and all(r.equal for r in reports), (
        ident, [r.params for r in reports if not r.equal][:3])
    return len(reports)


def _partition_counts(residues, top):
    """Number of partitions of 0..top into parts with residue in `residues`
    mod 5, by direct enumeration (one part size at a time)."""
    parts = [p for p in range(1, top + 1) if p % 5 in residues]
    counts = [1] + [0] * top
    for p in parts:
        for total in range(p, top + 1):
            counts[total] += counts[total - p]
    return counts


def test_rogers_ramanujan_limits_match_partition_enumeration():
    """Both infinite-product limits hold at T=50 and the product sides agree
    with an independent partition-counting oracle.  Budget: 5 s."""
    t0 = time.perf_counter()
    assert rr_limit_check("RR1", 50).equal
    assert rr_limit_check("RR2", 50).equal
    for which, residues in (("mod5_14", {1, 4}), ("mod5_23", {2, 3})):
        assert rr_product_side(which, 50) == _partition_counts(residues, 50), which
    assert time.perf_counter() - t0 < 5.0


def test_finite_rogers_ramanujan_polynomial_range():
    """The two finite polynomial forms hold for n = 0..12 at T=60.
    Budget: 10 s."""
    t0 = time.perf_counter()
    for ident in ("ANDREWS1", "ANDREWS2"):
        assert _all_equal(ident, {"n": (0, 12)}, 60) == 13
    assert time.perf_counter() - t0 < 10.0


def test_five_parameter_transformations_wide_grids():
    """The four five-parameter finite transformations hold on 3200 grid
    points at T=40, within 5 min single-threaded and 1 min at 8 workers."""
    grids = {
        "LMNRS1": {k: (0, 3) for k in "lmnuv"},
        "LMNRS2": {k: (0, 3) for k in "lmnuv"},
        "LMNRS3": {"l": (0, 3), "m": (0, 3), "n": (0, 3),
                   "u": (1, 3), "v": (1, 3)},
        "LMNRS4": {"l": (0, 3), "m": (0, 3), "n": (0, 3),
                   "u": (1, 3), "v": (1, 3)},
    }
    t0 = time.perf_counter()
    points = sum(_all_equal(ident, ranges, 40) for ident, ranges in grids.items())
    assert points == 3200
    assert time.perf_counter() - t0 < 300.0

    t0 = time.perf_counter()
    for ident, ranges in grids.items():
        reports = verify_grid(ident, ranges, 40, jobs=8)
        assert all(r.equal for r in reports), ident
    assert time.perf_counter() - t0 < 60.0


def test_bilateral_zero_family_wide_grids():
    """The four shifted-denominator bilateral transformations, the exact-zero
    bilateral sum, and their two symmetrized consequences hold for all
    parameters in [0,3] (proxy >= 1 where the certificate shifts it)."""
    for ident in ("ABCDE6_1", "ABCDE6_2", "ABCDE6_3", "ABCDE6_4", "ABCDE60"):
        assert _all_equal(ident, {k: (0, 3) for k in "nlmuv"}, 40) == 1024
    for ident in ("SEC33FINAL", "REMARK31"):
        ranges = {"l": (0, 3), "m": (0, 3), "n": (0, 3),
                  "u": (0, 3), "v": (1, 3)}
        assert _all_equal(ident, ranges, 40) == 768


def test_four_parameter_catalog_default_grids_and_limits():
    """Every four-parameter and two-parameter catalog identity holds on its
    default grid at T=40, and each five-parameter family degenerates to its
    four-parameter limit when the removed exponent reaches the truncation."""
    idents = ("BCDE1", "BCDE2", "COR52A", "COR52B",
              "LMNR1", "LMNR2", "LMNR3", "LMNR4",
              "QINV1", "QINV2", "QINV3", "QINV4",
              "LMNRS5", "LMNRS6", "EULERMN1", "EULERMN2",
              "EULERN1", "EULERN2")
    for ident in idents:
        assert _all_equal(ident, None, 40) > 0

    T = 40
    samples = {
        ("LMNRS1", "LMNR1"): ({"l": 1, "m": 2, "n": 1, "u": 2},
                              {"l": 0, "m": 0, "n": 3, "u": 1}),
        ("LMNRS2", "LMNR2"): ({"l": 2, "m": 1, "n": 2, "u": 1},
                              {"l": 3, "m": 0, "n": 0, "u": 0}),
        ("LMNRS3", "LMNR3"): ({"l": 1, "m": 1, "n": 2, "u": 1},
                              {"l": 0, "m": 2, "n": 1, "u": 2}),
        ("LMNRS4", "LMNR4"): ({"l": 2, "m": 2, "n": 1, "u": 2},
                              {"l": 1, "m": 0, "n": 2, "u": 1}),
    }
    for (five, four), points in samples.items():
        for pt in points:
            for side in ("lhs", "rhs"):
                assert eval_side(five, side, dict(pt, v=T), T) == \
                       eval_side(four, side, pt, T), (five, four, side, pt)


def test_bailey_pairs_steps_and_chain_reconstructions():
    """Unit pairs satisfy their defining relations for n <= 10; the chain and
    lattice moves preserve the relations for 24 (pair, insertion) choices;
    and all three five-parameter targets are rebuilt from unit pairs for
    every depth N <= 4 and parameter exponents in [1,3], agreeing with
    direct verification."""
    T = 40
    for pair in (unit_pair_x1(), unit_bilateral_x1(), unit_bilateral_xq(),
                 lattice_seed_pair()):
        reports = verify_pair(pair, n_max=10, trunc=T)
        assert len(reports) == 11 and all(r.equal for r in reports), pair.label

    # the x=q bilateral pair degenerates when exactly one insertion exponent
    # sits at x, so its list stays off that edge (the chains never use it)
    step_cases = [
        (unit_pair_x1, ((0, 0), (0, -1), (-1, 0), (-1, -1), (-2, -2))),
        (unit_bilateral_x1, ((0, 0), (0, -1), (-1, 0), (-1, -1), (-2, -2))),
        (unit_bilateral_xq, ((1, 1), (0, 0), (0, -1), (-1, -1), (-2, 0))),
        (lattice_seed_pair, ((1, 1), (1, 0), (0, 1), (0, 0), (-1, 0))),
    ]
    combos = 0
    for mk, rho_list in step_cases:
        for rhos in rho_list:
            stepped = bailey_step(mk(), *rhos)
            assert all(r.equal for r in verify_pair(stepped, n_max=4, trunc=T)), \
                (mk().label, rhos)
            combos += 1
    for rhos in ((0, 0), (0, -1), (-1, -1)):
        moved = lattice_step(lattice_seed_pair(), *rhos)
        assert all(r.equal for r in verify_pair(moved, n_max=4, trunc=T)), rhos
        combos += 1
    moved = lattice_step(bailey_step(lattice_seed_pair(), 1, 0), 0, -1)
    assert all(r.equal for r in verify_pair(moved, n_max=4, trunc=T))
    combos += 1
    assert combos >= 20

    for target in ("ABCDE1", "ABCDE2", "ABCDE3"):
        for N in range(5):
            for exps in itertools.product((1, 2, 3), repeat=4):
                rep = chain_reproduce(target, N, *exps, trunc=T)
                assert rep.equal, (target, N, exps)
            assert verify(target, chain_reproduce(target, N, trunc=T).params,
                          T).equal


def test_telescoping_certificates_exhaustive_grid():
    """Both telescoping certificates pass at every admissible point with all
    parameters <= 3, including the running partial-sum identity at every k,
    and the supporting quartic polynomial identity holds on a 5^4 grid."""
    for l in range(4):
        for m in range(4):
            for n in range(4):
                for u in (1, 2, 3):
                    for v in (1, 2, 3):
                        r1 = verify_telescoping(l, m, n, u, v, 40)
                        r2 = verify_sk_tk(l, m, n, u, v, 40)
                        assert r1.verdict == "EQUAL", (l, m, n, u, v, r1.checks)
                        assert r2.verdict == "EQUAL", (l, m, n, u, v, r2.checks)
                        assert any(name.startswith("partial-sum")
                                   for name, _ in r1.checks)
    assert verify_quartic_identity((2, 3, 5, 7, 11))


def test_binomial_limit_consequences():
    """The factorial-quotient identities hold on [0,4] grids, the alternating
    fourth/fifth-power sums match their positive expansions and divisibility
    claims for n <= 20, and the cyclic generalization is divisible for every
    cycle of length <= 5 with entries <= 3.  Budget: 30 s."""
    t0 = time.perf_counter()
    for l, m, n, u, v in itertools.product(range(5), repeat=5):
        lhs, rhs = cor57_sides(l, m, n, u, v)
        assert lhs == rhs, (l, m, n, u, v)
    for l, m, n, u in itertools.product(range(5), repeat=4):
        a = cor58a_sides(l, m, n, u)
        assert a[0] == a[1], ("a", l, m, n, u)
        b = cor58b_sides(l, m, n, u)
        assert b[0] == b[1], ("b", l, m, n, u)
    for n in range(21):
        x = bino5_sides(n)
        assert x[0] == x[1] == x[2], ("bino5", n)
        y = bino4_sides(n)
        assert y[0] == y[1] == y[2], ("bino4", n)
        assert divisibility_check(n, 4) and divisibility_check(n, 5), n
    for m in (1, 2, 3, 4, 5):
        for entries in itertools.product(range(4), repeat=m):
            assert general_divisibility_check(list(entries)), entries
    assert time.perf_counter() - t0 < 30.0


def test_counterexample_command_reproduces_refutation(capsys):
    """The CLI reproduces the degenerate specialization that refutes the two
    withdrawn transformations: a finite nonzero polynomial against an
    identically zero side, differing already at the constant coefficient."""
    for a_exp in (1, 2, 3):
        rc = cli.main(["counterexample", "--which", "liu1",
                       "--a-exp", str(a_exp), "--trunc", "20",
                       "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["reports"][0]["verdict"] == "MISMATCH"
        assert doc["reports"][0]["mismatch_index"] == 0

    rc = cli.main(["counterexample", "--which", "liu1", "--a-exp", "2",
                   "--trunc", "20"])
    out = capsys.readouterr().out
    assert rc == 0 and "LHS = 1 - q" in out and "RHS = 0" in out

    rc = cli.main(["counterexample", "--which", "liu2", "--a-exp", "1",
                   "--trunc", "20"])
    assert rc == 0
    capsys.readouterr()


def test_every_exponent_mutation_is_detected():
    """Negative control: bumping any single exponent site in any registry
    record by +1 or -1 is caught on a small off-minimum grid -- the
    comparison engine cannot pass vacuously."""
    T = 18
    blind = []
    total = 0
    for ident in sorted(REGISTRY):
        rec = get_record(ident)
        base = {p.name: p.low + 1 for p in rec.params}
        probes = [base, {p.name: p.low + 2 for p in rec.params}]
        for site in identity_sites(ident, base, T):
            total += 1
            for delta in (1, -1):
                hit = False
                for params in probes:
                    try:
                        rep = verify_mutated(ident, params, site, delta, T)
                    except SeriesError:
                        hit = True
                        break
                    if rep.verdict != "EQUAL":
                        hit = True
                        break
                if hit:
                    break
            else:
                blind.append((ident, site))
    assert total > 700
    assert not blind, blind[:10]

"""The mutation control pinned by digest.

At three points of every record (every parameter at its floor plus 1, 2
and 3; T=16) the digest covers the ``identity_sites`` list and, for every
site bumped by +1 and -1, the ``verify_mutated`` verdict with its mismatch
index and windows, or the name of the exception the probe raised.  A
change to how terms are built or summed must leave every one of these
outcomes as it was.

The sums outside the registry (the certificate cores and families, the
Rogers-Ramanujan limits, the LIU sums and the lattice closed form) read one
shared context through their module's ``_CTX``; a perturbed context put
there must change each one's outcome.  Every site of the limits, the LIU
sums and the lattice closed form is moved by +1 and -1, and the probes
that no check sees are pinned, each with its reason.
"""

import hashlib
from collections import Counter
from itertools import product

import pytest

from qrr import bailey, telescoping
from qrr.identities import REGISTRY, engine, identity_sites, verify_mutated
from qrr.identities.framework import EngineError, EvalCtx
from qrr.pochhammer import PoleError
from qrr.series import SeriesError

MUTATION_DIGEST = "61ad148dbbb8f74b98bb48b88a689a53d27e45d5ff220f1e641c3f00314076e9"
T = 16


def _outcomes():
    probes = 0
    lines = []
    for ident, rec in sorted(REGISTRY.items()):
        for step in (1, 2, 3):
            point = {p.name: p.low + step for p in rec.params}
            sites = identity_sites(ident, point, T)
            lines.append(f"{ident} {sorted(point.items())} {sites}")
            for site in sites:
                for delta in (1, -1):
                    probes += 1
                    try:
                        rep = verify_mutated(ident, point, site, delta, T)
                        got = (rep.verdict, rep.mismatch_index,
                               rep.lhs_window, rep.rhs_window)
                    except SeriesError as exc:
                        got = type(exc).__name__
                    lines.append(f"{site} {delta} {got!r}")
    return probes, "\n".join(lines)


def test_mutation_outcomes_are_pinned():
    probes, text = _outcomes()
    assert probes == 4818
    assert hashlib.sha256(text.encode()).hexdigest() == MUTATION_DIGEST


# (module, site, check, unperturbed outcome, shifts); the LIU checks report
# their counterexample as a MISMATCH, so a perturbed LIU sum must raise
# instead.  LIU1.argnum[1-a] + 1 is left out: at a = 2 the perturbed sum,
# 1 - q from its k = 0 and k = -1 terms, still equals the closed form (q; q)_1.
SHARED_PROBES = [
    (telescoping, "A.num[l+m]",
     lambda: telescoping.verify_telescoping(1, 2, 1, 1, 2, T), "EQUAL", (1, -1)),
    (telescoping, "B.den[u+k]",
     lambda: telescoping.verify_sk_tk(1, 2, 1, 2, 2, T), "EQUAL", (1, -1)),
    (telescoping, "f.2.qpow[k+k+u+v]",
     lambda: telescoping.verify_telescoping(1, 2, 1, 1, 2, T), "EQUAL", (1, -1)),
    (engine, "RR1.qpow", lambda: engine.rr_limit_check("RR1", 40), "EQUAL", (1, -1)),
    (engine, "RR2.den[k]", lambda: engine.rr_limit_check("RR2", 40), "EQUAL", (1, -1)),
    (engine, "LIU1.argnum[1-a]",
     lambda: engine.liu_counterexample("LIU1", 2, T), "MISMATCH", (-1,)),
    (engine, "LIU2.argden[a+1]",
     lambda: engine.liu_counterexample("LIU2", 2, T), "MISMATCH", (1, -1)),
    # at c = 1 the slot (q^(1-c); q)_n zeroes every n >= 1 term, so c = 2
    (bailey, "lattice.argnum[1-b]",
     lambda: bailey.chain_reproduce("ABCDE3", 2, 2, 2, 3, 2, trunc=T), "EQUAL", (1, -1)),
]


def _verdict(check):
    try:
        return check().verdict
    except (EngineError, PoleError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("module, site, check, plain, shifts", SHARED_PROBES,
                         ids=[probe[1] for probe in SHARED_PROBES])
def test_the_shared_context_reaches_every_sum_outside_the_registry(
        module, site, check, plain, shifts, monkeypatch):
    assert _verdict(check) == plain
    for delta in shifts:
        monkeypatch.setattr(module, "_CTX", EvalCtx({site: delta}))
        assert _verdict(check) != plain, delta


# every site of the Rogers-Ramanujan limits at T = 40, of the LIU sums at
# a = 2 and 3 and of the lattice closed form at two points, as (module of
# its _CTX, label, check, unperturbed outcome)
SITE_RUNS = [
    *((engine, which, lambda which=which: engine.rr_limit_check(which, 40), "EQUAL")
      for which in ("RR1", "RR2")),
    *((engine, f"{which} a={a}",
       lambda which=which, a=a: engine.liu_counterexample(which, a, T), "MISMATCH")
      for which in ("LIU1", "LIU2") for a in (2, 3)),
    *((bailey, f"lattice {args}",
       lambda args=args: bailey.chain_reproduce("ABCDE3", *args, trunc=T), "EQUAL")
      for args in ((2, 2, 2, 3, 2), (3, 2, 3, 2, 2))),
]

# the probes no check sees, each for a reason; the lattice route has none
BLIND = {
    # n = T: (q)_(n+1) puts (1 - q^(T+1)) on every term, 1 through q^T
    *((which, f"{which}.num[n]", 1) for which in ("RR1", "RR2")),
    # the k-th term, from q^(k^2) on, divided by (1 - q^(T+1-k)): 1 through
    # q^T; either way the sum at n = T + 1 is still a valid truncation
    *((which, f"{which}.den[n-k]", 1) for which in ("RR1", "RR2")),
    # for LIU only a raise counts, and each of these sums still equals its
    # closed form:
    *((f"LIU1 a={a}", site, delta) for a in (2, 3) for site, delta in (
        # LIU2's sum at a - 1, whose closed form (q; q)_(a-1) is LIU1's
        ("LIU1.argnum[1-a]", 1),
        # the terms of that probe in reverse order of k
        ("LIU1.argden[a]", -1),
        # the unperturbed terms in reverse order of k (at a = 2, 1 - q)
        ("LIU1.qpow", 1))),
    # LIU1's sum at a + 1, whose closed form (q; q)_a is LIU2's
    *((f"LIU2 a={a}", "LIU2.argnum[1-a]", -1) for a in (2, 3)),
}


def test_every_site_outside_the_registry_bites(monkeypatch):
    # each site moved by +1 and -1 must change the check's outcome: for the
    # LIU checks, whose counterexample reads MISMATCH, it must raise
    sites, outcomes, blind = [], Counter(), set()
    for module, label, check, plain in SITE_RUNS:
        names = set()
        monkeypatch.setattr(module, "_CTX", EvalCtx(recorder=names))
        assert _verdict(check) == plain, label
        sites.append(len(names))
        for site, delta in product(sorted(names), (1, -1)):
            monkeypatch.setattr(module, "_CTX", EvalCtx({site: delta}))
            got = _verdict(check)
            outcomes[label.split()[0], got] += 1
            if got == plain:
                blind.add((label, site, delta))
    assert sites == [4, 4, 3, 3, 3, 3, 9, 9]
    assert outcomes == {("RR1", "MISMATCH"): 6, ("RR1", "EQUAL"): 2,
                        ("RR2", "MISMATCH"): 6, ("RR2", "EQUAL"): 2,
                        ("LIU1", "MISMATCH"): 6, ("LIU1", "EngineError"): 6,
                        ("LIU2", "MISMATCH"): 2, ("LIU2", "EngineError"): 10,
                        ("lattice", "MISMATCH"): 34, ("lattice", "PoleError"): 2}
    assert blind == BLIND

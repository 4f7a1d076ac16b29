"""The mutation control pinned by digest.

At three points of every record (every parameter at its floor plus 1, 2
and 3; T=16) the digest covers the ``identity_sites`` list and, for every
site bumped by +1 and -1, the ``verify_mutated`` verdict with its mismatch
index and windows, or the name of the exception the probe raised.  A
change to how terms are built or summed must leave every one of these
outcomes as it was.
"""

import hashlib

from qrr.identities import REGISTRY, identity_sites, verify_mutated
from qrr.series import SeriesError

MUTATION_DIGEST = "a0b13e761f35b5056f1c78fa40fabe0817c017ebb4bd69eaebdd20b01163f380"
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

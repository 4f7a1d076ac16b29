"""Telescoping certificates for the symmetric five-parameter identities.

Clearing the factor (1 - q^(l+m+n+u+v+1)) from the q^(k^2) identity splits
each side into two established sums; recombining terms pairwise turns the
cleared equality into

    L0 + sum_k f_k  =  R0 + sum_k g_k,

and the difference f_k - g_k telescopes: it equals F(k+1) - F(k) for an
explicit product F that vanishes for large k.  Everything here checks that
certificate factor by factor, in exact arithmetic: the per-index difference,
the partial sums, the reassembled boundary equality, and the tie back to the
registry identity it certifies.  A second certificate covers the q^(k^2+k)
variant: its two sides regroup into sums over S_k and T_k which agree
termwise, the equality S_k = T_k being a specialization of a quartic
polynomial identity that is verified separately on an integer grid.

Every certificate term is declared as data in ``_FAMILIES``: a sign, a power
of q and a few factors (1 - q^j) times the k-th term of a base core, each
exponent affine in l, m, n, u, v and k.  The cores are ``Sum`` specs built by
the registry's term chain: A(k), the k-th term of LMNRS3's right side, under
f_k, g_k and F(k); B(k) under S_k and T_k; a one-term C0 under L0 and R0.
They are transcribed from the printed forms, not read from the records, so
that each certificate stays an independent check of the records it ties
back to.  Every exponent passes through ``ctx.site`` under a name that no
other declaration uses.  A core holds only the terms of its support, and
each quantity is built once per k inside it, its exponents evaluated in
one environment per certificate; past the support a quantity has no term,
the value 0.  Every check that reads a quantity reuses its value.  A
certificate builds every term list first and takes their values from one
:func:`~qrr.identities.framework.sum_sides` call, the rule
:func:`~qrr.identities.framework.compare_sides` uses.  Every coefficient
is an int, so each value is one integer, the list at q = 2^b, with no
kernel pass: evaluated term by term where B + 2 <= T, B the degree bound
of every term, and otherwise a residue modulo 2^(b(T + 1 - s_min)),
summed over the term ratios on one packed integer.  Two combinations of
values are compared by their difference, exact on the first route and
modulo that modulus on the second.  Each check is written once, as two
integer combinations of those values, and reads alike on both routes.
Every check uses each list at most once, with sign +1 or -1, so the one
bound H behind b holds for each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

from .series import default_truncation
from .identities.framework import (
    _AFFINE_GLOBALS,
    UNPERTURBED,
    EngineError,
    Sum,
    VerificationReport,
    _check_params,
    _sum_terms,
    compare_checks,
    parse_affine_row,
    side_terms,
    sum_sides,
)
from .identities.engine import get_record

__all__ = ["verify_telescoping", "verify_sk_tk", "quartic_sides",
           "verify_quartic_identity"]


# ---------------------------------------------------------------------------
# certificate pieces, declared as data and built along k
# ---------------------------------------------------------------------------


# A(k) and B(k) over k = 0..cap, where every index is nonnegative once
# u, v >= 1; past cap some denominator index is negative and the term is 0
_A_SUM = Sum(quad=(5, -1), alt=True,
             num=("l+m", "l+n", "m+n", "u-1", "v-1", "u+v-1"),
             den=("l-k", "m-k", "n-k", "u-k", "v-k",
                  "l+k", "m+k", "n+k", "u+k-1", "v+k-1"),
             support=("0", "min(l,m,n,u,v)"))
_B_SUM = Sum(quad=(5, 3), alt=True,
             num=("l+m", "l+n", "m+n", "u-1", "v-1", "u+v-1"),
             den=("l-k", "m-k", "n-k", "u-k-1", "v-k-1",
                  "l+k", "m+k", "n+k", "u+k", "v+k"),
             support=("0", "min(l,m,n,u-1,v-1)"))
# C0, the one-term core of L0 and R0; (q)_l^2 is (q)_(l-k) (q)_(l+k) at
# k = 0, so that each slot has a site of its own
_C0_SUM = Sum(quad=(0, 0), num=("l+m", "l+n", "m+n", "u+v"),
              den=("l-k", "m-k", "n-k", "l+k", "m+k", "n+k", "u", "v"),
              support=("0", "0"))

# the cleared left side as two one-sided sums over the same denominator
_SPLIT_DEN = ("k", "l-k", "m-k", "n-k", "u+k", "v+k")
_SPLIT_SUMS = (
    Sum(quad=(2, 0), num=("l+m+n-k", "u+v+k"), den=_SPLIT_DEN,
        support=("0", "min(l,m,n)")),
    Sum(quad=(2, 2), num=("l+m+n-k+1", "u+v+k-1"), den=_SPLIT_DEN,
        support=("0", "min(l,m,n)")),
)

# the context of every certificate term, read at each call so that a test
# can perturb them
_CTX = UNPERTURBED


@dataclass(frozen=True)
class _Term:
    """sign q^qpow prod (1 - q^num) / prod (1 - q^den), times a base term."""

    sign: int = 1
    qpow: str = "0"
    num: tuple[str, ...] = ()
    den: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Family:
    """The terms that make up one certificate quantity at each k."""

    name: str                        # tags its sites
    base: str                        # "A", "B" or "C0"
    terms: tuple[_Term, ...]

    @functools.cached_property
    def row(self):
        """Every exponent of every term as one compiled row, their sites, and
        what each does: 0 starts a term at q^e, 1 / -1 multiply / divide it
        by (1 - q^e)."""
        exprs, names, times = [], [], []
        for i, t in enumerate(self.terms):
            for kind, slots, d in (("qpow", (t.qpow,), 0), ("num", t.num, 1),
                                   ("den", t.den, -1)):
                exprs += slots
                names += [f"{self.name}.{i}.{kind}[{s}]" for s in slots]
                times += [d] * len(slots)
        return parse_affine_row(tuple(exprs)), names, times


# the printed products, each over its base; R0 divides C0's (q)_(u+v) down
# to the (q)_(u+v-1) it carries
_CROSS_DEN = ("l+k+1", "m+k+1", "n+k+1")
_FAMILIES = {fam.name: fam for fam in (
    _Family("f", "A", (
        _Term(num=("u", "v", "u+v"), den=("u+k", "v+k")),
        _Term(qpow="k", num=("u", "v", "u+v"), den=("u+k", "v+k")),
        _Term(qpow="k+k+u+v",
              num=("k+k+1", "l+m+1", "m+n+1", "l+n+1", "u-k", "v-k"),
              den=_CROSS_DEN + ("u+k", "v+k")))),
    _Family("g", "A", (
        _Term(num=("l+m+n+u+v+1",)),
        _Term(qpow="k", num=("l+m+n+u+v+1", "u-k", "v-k"), den=("u+k", "v+k")))),
    _Family("F", "A", (_Term(qpow="u+v-k", num=("l+m+n+k+1",)),)),
    _Family("L0", "C0", (_Term(sign=-1),)),
    _Family("R0", "C0", (_Term(sign=-1, num=("l+m+n+u+v+1",), den=("u+v",)),)),
    _Family("S", "B", (
        _Term(num=("k+k+1", "l+m+1", "m+n+1", "l+n+1"), den=_CROSS_DEN),
        _Term(qpow="l+m+n+1-k"),
        _Term(sign=-1, qpow="l+m+n+k+k+k+3", num=("l-k", "m-k", "n-k"),
              den=_CROSS_DEN))),
    _Family("T", "B", (
        _Term(),
        _Term(sign=-1, qpow="k+k+1", num=("l-k", "m-k", "n-k"), den=_CROSS_DEN))),
)}


def _core(spec: Sum, tag: str, params: dict, cap: int) -> list:
    """The terms of ``spec`` for k = 0..cap, the support its chain runs
    over; past it the core is 0 and holds no term.  A zero term inside the
    support would shift every later k, so it raises EngineError."""
    terms = _sum_terms(spec, params, _CTX, tag, 0)
    if len(terms) != cap + 1:
        raise EngineError(f"{tag}: zero term in k = 0..{cap} at {params}")
    return terms


def _terms(name: str, cores: dict, env: dict, k: int) -> list:
    """The k-th terms of family ``name``: each declared term times the k-th
    term of its base in ``cores``, every exponent passed through its site;
    none past the base's support, where every term is 0.  ``env`` is the
    one environment of a certificate call, the point and k, which is set
    here."""
    family = _FAMILIES[name]
    base = cores[family.base]
    if k >= len(base):
        return []
    base = base[k]
    row, names, times = family.row
    site = _CTX.site
    env["k"] = k
    out = []
    for s, e, d in zip(names, eval(row, _AFFINE_GLOBALS, env), times):
        e = site(s, e, k)
        if d:
            t.factor(e, d)
        else:
            t = base.copy().q(e)
            out.append(t)
    for t, term in zip(out, family.terms):
        t.coeff *= term.sign
    return out


def _two_sum_terms(params: dict) -> list:
    """The cleared left side as two one-sided sums, the second times q^(u+v),
    interleaved: the k-th terms of the two are a few factors apart."""
    cap = min(params["l"], params["m"], params["n"])
    first, second = (_core(spec, f"split{i}", params, cap)
                     for i, spec in enumerate(_SPLIT_SUMS))
    return [t for a, b in zip(first, second, strict=True)
            for t in (a, b.q(params["u"] + params["v"]))]


# ---------------------------------------------------------------------------
# the certificates
# ---------------------------------------------------------------------------


def _cleared_side(env: dict, side: str, trunc: int):
    """One side of LMNRS3, at a point already checked against it, times
    (1 - q^(l+m+n+u+v+1)), as (terms, euler): one factor on each of its
    terms."""
    terms, euler = side_terms(get_record("LMNRS3"), side, env, trunc)
    return [t.factor(sum(env.values()) + 1) for t in terms], euler


# The most work a certificate may take, in coefficient updates of the list
# kernels, estimated over k = 0..cap+3 (terms are built only for k = 0..cap):
# each k whose A(k) starts at or below q^T sums a few terms of up to about
# min(l+m+n+u+v, T) factors (1 - q^j), one pass over T coefficients each.
# No certificate makes such a pass: its values are taken at one integer
# point, and a MISMATCH names its failed checks with no window to sum.  The
# estimate bounds the packed route all the same, where a residue of T
# digits costs a few big-integer shifts per factor (at (15,15,15,15,15),
# T=1000, both certificates took 0.15 s, CPU time of single runs on a
# shared 2-core machine).
MAX_CERTIFICATE_WORK = 2_000_000


def _checked(ident: str, record: str, point: tuple, trunc: int) -> dict:
    """The point as parameters, once they are within the record's bounds,
    u, v >= 1 among them, and its work within MAX_CERTIFICATE_WORK; raises
    EngineError before any term is built otherwise."""
    params = _check_params(get_record(record), dict(zip("lmnuv", point)))
    ks = sum(1 for k in range(min(point) + 4) if 5 * k * k - k <= 2 * trunc)
    work = ks * min(sum(point), trunc) * trunc
    if work > MAX_CERTIFICATE_WORK:
        raise EngineError(
            f"{ident}: {point} at T={trunc} needs about {work:,} coefficient "
            f"updates, more than the limit of {MAX_CERTIFICATE_WORK:,}")
    return params


def verify_telescoping(l: int, m: int, n: int, u: int, v: int,
                       trunc: int | None = None) -> VerificationReport:
    """Check the full telescoping certificate at one parameter point.

    Verifies, through q^trunc: the per-index difference f_k - g_k against
    the increment F(k+1) - F(k) (with two sentinel indices past the support,
    where both are 0 by the support and no term is built),
    every partial sum against F(k+1) - F(0), the reassembled equality
    L0 + sum f = R0 + sum g, the splitting of the cleared left side into its
    two constituent sums, and that both cleared sides match the registry's
    q^(k^2) identity multiplied by (1 - q^(l+m+n+u+v+1)).
    """
    trunc = default_truncation(trunc)
    params = _checked("telescoping", "LMNRS3", (l, m, n, u, v), trunc)
    cap = min(l, m, n, u, v)
    cores = {"A": _core(_A_SUM, "A", params, cap), "C0": _core(_C0_SUM, "C0", params, 0)}
    env = dict(params)
    lists = ([_terms("F", cores, env, k) for k in range(cap + 4)]
             + [_terms(name, cores, env, 0) for name in ("L0", "R0")]
             + [_terms(name, cores, env, k) for k in range(cap + 3) for name in "fg"]
             + [_two_sum_terms(params)])
    sums = sum_sides([(terms, 0) for terms in lists]
                     + [_cleared_side(params, side, trunc) for side in ("lhs", "rhs")], trunc)
    F = sums.values[:cap + 4]
    left, right, *fg, split, lhs, rhs = sums.values[cap + 4:]

    checks = []
    running = 0
    for k in range(cap + 3):
        fv, gv = fg[2 * k], fg[2 * k + 1]
        diff = fv - gv
        checks.append((f"difference k={k}", diff, F[k + 1] - F[k]))
        running += diff
        checks.append((f"partial-sum k={k}", running, F[k + 1] - F[0]))
        if k <= cap:
            left += fv
            right += gv
    checks += [
        ("boundary", left, right),
        ("sum-splitting", left, split),
        ("lhs-clearing", left, lhs),
        ("rhs-clearing", right, rhs),
    ]
    return compare_checks("telescoping", params, trunc, checks, sums)


def verify_sk_tk(l: int, m: int, n: int, u: int, v: int,
                 trunc: int | None = None) -> VerificationReport:
    """Check the termwise certificate for the q^(k^2+k) identity.

    The two sides regroup into sums over S_k and T_k; this verifies
    S_k = T_k for each index (with two sentinels past the support, where
    both are 0 by the support and no term is built), and that the regrouped
    sums reproduce both registry sides.
    """
    trunc = default_truncation(trunc)
    params = _checked("termwise", "LMNRS4", (l, m, n, u, v), trunc)
    cap = min(l, m, n, u - 1, v - 1)
    cores = {"B": _core(_B_SUM, "B", params, cap)}
    env = dict(params)
    record = get_record("LMNRS4")
    sums = sum_sides(
        [(_terms(name, cores, env, k), 0) for k in range(cap + 3) for name in "ST"]
        + [side_terms(record, side, params, trunc) for side in ("lhs", "rhs")], trunc)
    values = sums.values

    checks = []
    s_sum = t_sum = 0
    for k in range(cap + 3):
        s_k, t_k = values[2 * k], values[2 * k + 1]
        checks.append((f"termwise k={k}", s_k, t_k))
        s_sum += s_k
        t_sum += t_k
    checks += [("lhs-assembly", s_sum, values[-2]), ("rhs-assembly", t_sum, values[-1])]
    return compare_checks("termwise", params, trunc, checks, sums)


# ---------------------------------------------------------------------------
# the quartic polynomial identity behind S_k = T_k
# ---------------------------------------------------------------------------


def quartic_sides(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Both sides of the denominator-cleared quartic identity at integers."""
    lhs = (d * (1 - a * b) * (1 - b * c) * (1 - a * c) * (1 - d * d)
           + (d - a) * (d - b) * (d - c) * (1 - a * b * c * d))
    rhs = (1 - a * d) * (1 - b * d) * (1 - c * d) * (d - a * b * c)
    return lhs, rhs


def verify_quartic_identity(values: tuple = (2, 3, 5, 7, 11)) -> bool:
    """Certify the quartic identity on a grid.

    Both sides have degree at most four in each of the four variables, so
    agreement on a grid of five distinct values per variable proves the
    polynomial identity outright.
    """
    if len(set(values)) < 5:
        raise EngineError("need at least five distinct grid values")
    return all(
        quartic_sides(a, b, c, d)[0] == quartic_sides(a, b, c, d)[1]
        for a, b, c, d in product(values, repeat=4)
    )

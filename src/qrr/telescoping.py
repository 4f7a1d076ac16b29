"""Telescoping certificates for the symmetric five-parameter identities.

Clearing the factor (1 - q^(l+m+n+u+v+1)) from the q^(k^2) identity splits
each side into two established sums; recombining terms pairwise turns the
cleared equality into

    L0 + sum_k f_k  =  R0 + sum_k g_k,

and the difference f_k - g_k telescopes: it equals F(k+1) - F(k) for an
explicit product F that vanishes for large k.  Everything here checks that
certificate factor by factor, in exact arithmetic: the per-index difference,
the partial sums, the reassembled boundary equality, and the tie back to the
registry identity it certifies.

A second certificate covers the q^(k^2+k) variant: its two sides regroup
into sums over S_k and T_k which agree termwise, the equality S_k = T_k
being a specialization of a quartic polynomial identity that is verified
separately on an integer grid.

Both certificates build their terms along k.  Every f_k, g_k and F(k) is
A(k), the k-th term of the registry's LMNRS3 right side, times a few
factors (1 - q^j); every S_k and T_k is B(k) times a few.  A(k) and B(k)
are the terms of two QnSum specs, built by the registry's term chain, in
which only the indices that depend on k step from one k to the next.  The
specs are transcribed here from the printed forms, not read from the
records, so that each certificate stays an independent check of the
records it ties back to.  Each F(k) is rendered once, for
k = 0..cap+3, and each f_k and g_k once: the difference and partial-sum
checks subtract those values and the boundary sums add them up.  S_k and
T_k are likewise summed once each, for the termwise check and for both
assemblies.
"""

from __future__ import annotations

from itertools import product

from .series import DEFAULT_TRUNCATION, default_truncation
from .pochhammer import PochProduct, mul_binomial, sum_terms
from .identities.framework import (
    EngineError,
    EvalCtx,
    QnSum,
    VerificationReport,
    _check_params,
    _qn_sum_terms,
    _qn_support,
    compare_checks,
    eval_side_value,
)
from .identities.engine import get_record

__all__ = [
    "verify_telescoping",
    "verify_sk_tk",
    "quartic_sides",
    "verify_quartic_identity",
]


# ---------------------------------------------------------------------------
# certificate pieces, as factored products built along k
# ---------------------------------------------------------------------------


# A(k) and B(k) over k = 0..cap, where every index is nonnegative once
# u, v >= 1; past cap some denominator index is negative and the term is 0
_A_SUM = QnSum(quad=(5, -1), alt=True,
               num=("l+m", "l+n", "m+n", "u-1", "v-1", "u+v-1"),
               den=("l-k", "m-k", "n-k", "u-k", "v-k",
                    "l+k", "m+k", "n+k", "u+k-1", "v+k-1"),
               support=("0", "min(l,m,n,u,v)"))
_B_SUM = QnSum(quad=(5, 3), alt=True,
               num=("l+m", "l+n", "m+n", "u-1", "v-1", "u+v-1"),
               den=("l-k", "m-k", "n-k", "u-k-1", "v-k-1",
                    "l+k", "m+k", "n+k", "u+k", "v+k"),
               support=("0", "min(l,m,n,u-1,v-1)"))

# the cleared left side as two one-sided sums over the same denominator
_SPLIT_DEN = ("k", "l-k", "m-k", "n-k", "u+k", "v+k")
_SPLIT_SUMS = (
    QnSum(quad=(2, 0), num=("l+m+n-k", "u+v+k"), den=_SPLIT_DEN,
          support=("0", "min(l,m,n)")),
    QnSum(quad=(2, 2), num=("l+m+n-k+1", "u+v+k-1"), den=_SPLIT_DEN,
          support=("0", "min(l,m,n)")),
)

# unperturbed, and the finite supports never read its truncation order
_CTX = EvalCtx(DEFAULT_TRUNCATION)


def _core(spec: QnSum, l: int, m: int, n: int, u: int, v: int, count: int) -> list:
    """The terms of ``spec`` for k = 0..count-1: its chain over the support,
    then the zero product at every k past it.  A zero term inside the
    support would shift every later k, so it raises EngineError."""
    env = {"l": l, "m": m, "n": n, "u": u, "v": v}
    terms = _qn_sum_terms(spec, env, _CTX, "core", 0)
    _, cap = _qn_support(spec, env, 0)
    if len(terms) != cap + 1:
        raise EngineError(f"certificate core has a zero term in k = 0..{cap} at {env}")
    return terms + [PochProduct().factor(0) for _ in range(count - cap - 1)]


def _a_terms(l: int, m: int, n: int, u: int, v: int, count: int) -> list:
    """A(k) = (-1)^k q^((5k^2-k)/2) (q)_(l+m) (q)_(l+n) (q)_(m+n) (q)_(u-1)
    (q)_(v-1) (q)_(u+v-1) / ((q)_(l-k) (q)_(m-k) (q)_(n-k) (q)_(u-k) (q)_(v-k)
    (q)_(l+k) (q)_(m+k) (q)_(n+k) (q)_(u+k-1) (q)_(v+k-1)), k = 0..count-1:
    the product every f_k, g_k and F(k) is a few factors away from."""
    return _core(_A_SUM, l, m, n, u, v, count)


def _f_terms(a_k: PochProduct, l: int, m: int, n: int, u: int, v: int,
             k: int) -> list:
    base1 = (a_k.copy().factor(u).factor(v).factor(u + v)
             .dfactor(u + k).dfactor(v + k))
    base2 = (a_k.copy().q(2 * k + u + v).factor(2 * k + 1)
             .factor(l + m + 1).factor(m + n + 1).factor(l + n + 1)
             .factor(u - k).factor(v - k)
             .dfactor(l + k + 1).dfactor(m + k + 1).dfactor(n + k + 1)
             .dfactor(u + k).dfactor(v + k))
    return [base1, base1.copy().q(k), base2]


def _g_terms(a_k: PochProduct, l: int, m: int, n: int, u: int, v: int,
             k: int) -> list:
    head = a_k.copy().factor(l + m + n + u + v + 1)
    tail = (head.copy().q(k).factor(u - k).factor(v - k)
            .dfactor(u + k).dfactor(v + k))
    return [head, tail]


def _F_term(a_k: PochProduct, l: int, m: int, n: int, u: int, v: int,
            k: int) -> PochProduct:
    return a_k.copy().q(u + v - k).factor(l + m + n + k + 1)


def _l0_term(l: int, m: int, n: int, u: int, v: int) -> PochProduct:
    return (PochProduct().scale(-1)
            .qn(l + m).qn(l + n).qn(m + n).qn(u + v)
            .qn(l, -2).qn(m, -2).qn(n, -2).dqn(u).dqn(v))


def _r0_term(l: int, m: int, n: int, u: int, v: int) -> PochProduct:
    return (PochProduct().scale(-1).factor(l + m + n + u + v + 1)
            .qn(l + m).qn(l + n).qn(m + n).qn(u + v - 1)
            .qn(l, -2).qn(m, -2).qn(n, -2).dqn(u).dqn(v))


def _two_sum_terms(l: int, m: int, n: int, u: int, v: int) -> list:
    """The cleared left side as two one-sided sums, the second times q^(u+v),
    interleaved: the k-th terms of the two are a few factors apart."""
    env = {"l": l, "m": m, "n": n, "u": u, "v": v}
    first, second = (_qn_sum_terms(spec, env, _CTX, "split", 0) for spec in _SPLIT_SUMS)
    out = []
    for a, b in zip(first, second, strict=True):
        out += [a, b.q(u + v)]
    return out


def _b_terms(l: int, m: int, n: int, u: int, v: int, count: int) -> list:
    """B(k) = (-1)^k q^((5k^2+3k)/2) (q)_(l+m) (q)_(l+n) (q)_(m+n) (q)_(u-1)
    (q)_(v-1) (q)_(u+v-1) / ((q)_(l-k) (q)_(m-k) (q)_(n-k) (q)_(u-k-1)
    (q)_(v-k-1) (q)_(l+k) (q)_(m+k) (q)_(n+k) (q)_(u+k) (q)_(v+k)),
    k = 0..count-1: the first product of T_k, a few factors away from the
    others of S_k and T_k."""
    return _core(_B_SUM, l, m, n, u, v, count)


def _cross(t: PochProduct, l: int, m: int, n: int, k: int, e: int) -> PochProduct:
    """-q^e t (1-q^(l-k)) (1-q^(m-k)) (1-q^(n-k))
    / ((1-q^(l+k+1)) (1-q^(m+k+1)) (1-q^(n+k+1)))."""
    return (t.copy().scale(-1).q(e)
            .factor(l - k).factor(m - k).factor(n - k)
            .dfactor(l + k + 1).dfactor(m + k + 1).dfactor(n + k + 1))


def _s_terms(b_k: PochProduct, l: int, m: int, n: int, k: int) -> list:
    first = (b_k.copy().factor(2 * k + 1)
             .factor(l + m + 1).factor(m + n + 1).factor(l + n + 1)
             .dfactor(l + k + 1).dfactor(m + k + 1).dfactor(n + k + 1))
    second = b_k.copy().q(l + m + n + 1 - k)
    return [first, second, _cross(second, l, m, n, k, 4 * k + 2)]


def _t_terms(b_k: PochProduct, l: int, m: int, n: int, k: int) -> list:
    return [b_k.copy(), _cross(b_k, l, m, n, k, 2 * k + 1)]


# ---------------------------------------------------------------------------
# value plumbing
# ---------------------------------------------------------------------------


def _times_binomial(value, c: int):
    """(offset, buf) representing value * (1 - q^c), c >= 1."""
    off, buf = value
    out = list(buf)
    mul_binomial(out, c)
    return off, out


def _add_values(a, b, scale: int = 1):
    """A new (offset, buf) holding a + scale * b, for two values that both
    end at the same truncation order."""
    (off_a, buf_a), (off_b, buf_b) = a, b
    off = min(off_a, off_b)
    out = [0] * (off_a - off) + buf_a
    base = off_b - off
    for i, c in enumerate(buf_b):
        if c:
            out[base + i] += scale * c
    return off, out


def _registry_side(ident: str, env: dict, side: str, trunc: int):
    """One side of a registry record at a point already checked against it."""
    return eval_side_value(get_record(ident), side, env, EvalCtx(trunc))


def _validate(ident: str, params: dict, trunc: int) -> VerificationReport | None:
    """Raise EngineError, naming the parameter, unless every parameter is a
    nonnegative integer; report PRECONDITION unless u, v >= 1."""
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise EngineError(
                f"{ident}: parameter {name} must be an integer, got {value!r}")
        if value < 0:
            raise EngineError(
                f"{ident}: parameter {name}={value} must be nonnegative")
    if params["u"] < 1 or params["v"] < 1:
        return VerificationReport(
            ident, params, trunc, "PRECONDITION",
            detail="the certificate needs u >= 1 and v >= 1: the regrouped "
                   "products carry shifted factorials at u-1 and v-1")
    return None


# ---------------------------------------------------------------------------
# the certificates
# ---------------------------------------------------------------------------


def verify_telescoping(l: int, m: int, n: int, u: int, v: int,
                       trunc: int | None = None) -> VerificationReport:
    """Check the full telescoping certificate at one parameter point.

    Verifies, through q^trunc: the per-index difference f_k - g_k against
    the increment F(k+1) - F(k) (with two sentinel indices past the support),
    every partial sum against F(k+1) - F(0), the reassembled equality
    L0 + sum f = R0 + sum g, the splitting of the cleared left side into its
    two constituent sums, and that both cleared sides match the registry's
    q^(k^2) identity multiplied by (1 - q^(l+m+n+u+v+1)).
    """
    trunc = default_truncation(trunc)
    params = {"l": l, "m": m, "n": n, "u": u, "v": v}
    bad = _validate("telescoping", params, trunc)
    if bad is not None:
        return bad
    _check_params(get_record("LMNRS3"), params)   # its bounds, before any term

    checks = []
    cap = min(l, m, n, u, v)
    a = _a_terms(l, m, n, u, v, cap + 4)
    F = [sum_terms([_F_term(a[k], l, m, n, u, v, k)], trunc) for k in range(cap + 4)]
    left = sum_terms([_l0_term(l, m, n, u, v)], trunc)
    right = sum_terms([_r0_term(l, m, n, u, v)], trunc)
    running = (0, [0] * (trunc + 1))
    for k in range(cap + 3):
        fv = sum_terms(_f_terms(a[k], l, m, n, u, v, k), trunc)
        gv = sum_terms(_g_terms(a[k], l, m, n, u, v, k), trunc)
        diff = _add_values(fv, gv, -1)
        checks.append((f"difference k={k}", diff, _add_values(F[k + 1], F[k], -1)))
        running = _add_values(running, diff)
        checks.append((f"partial-sum k={k}", running, _add_values(F[k + 1], F[0], -1)))
        if k <= cap:
            left = _add_values(left, fv)
            right = _add_values(right, gv)
    c = l + m + n + u + v + 1
    checks += [
        ("boundary", left, right),
        ("sum-splitting", left, sum_terms(_two_sum_terms(l, m, n, u, v), trunc)),
        ("lhs-clearing", left,
         _times_binomial(_registry_side("LMNRS3", params, "lhs", trunc), c)),
        ("rhs-clearing", right,
         _times_binomial(_registry_side("LMNRS3", params, "rhs", trunc), c)),
    ]
    return compare_checks("telescoping", params, trunc, checks)


def verify_sk_tk(l: int, m: int, n: int, u: int, v: int,
                 trunc: int | None = None) -> VerificationReport:
    """Check the termwise certificate for the q^(k^2+k) identity.

    The two sides regroup into sums over S_k and T_k; this verifies
    S_k = T_k for each index (with sentinels), and that the regrouped sums
    reproduce both registry sides.
    """
    trunc = default_truncation(trunc)
    params = {"l": l, "m": m, "n": n, "u": u, "v": v}
    bad = _validate("termwise", params, trunc)
    if bad is not None:
        return bad
    _check_params(get_record("LMNRS4"), params)   # its bounds, before any term

    checks = []
    cap = min(l, m, n, u - 1, v - 1)
    s_sum = t_sum = (0, [0] * (trunc + 1))
    b = _b_terms(l, m, n, u, v, cap + 3)
    for k in range(cap + 3):
        s_k = sum_terms(_s_terms(b[k], l, m, n, k), trunc)
        t_k = sum_terms(_t_terms(b[k], l, m, n, k), trunc)
        checks.append((f"termwise k={k}", s_k, t_k))
        s_sum = _add_values(s_sum, s_k)
        t_sum = _add_values(t_sum, t_k)

    checks += [
        ("lhs-assembly", s_sum, _registry_side("LMNRS4", params, "lhs", trunc)),
        ("rhs-assembly", t_sum, _registry_side("LMNRS4", params, "rhs", trunc)),
    ]
    return compare_checks("termwise", params, trunc, checks)


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

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
"""

from __future__ import annotations

from itertools import product

from .series import default_truncation
from .pochhammer import PochProduct, _sign, mul_binomial, sum_terms
from .identities.framework import (
    EngineError,
    EvalCtx,
    VerificationReport,
    _check_params,
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
# certificate pieces, directly as factored products
# ---------------------------------------------------------------------------


def _f_terms(l: int, m: int, n: int, u: int, v: int, k: int) -> list:
    base1 = (PochProduct().scale(_sign(k)).q((5 * k * k - k) // 2)
             .qn(l + m).qn(l + n).qn(m + n).qn(u).qn(v).qn(u + v)
             .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k).dqn(v - k)
             .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k).dqn(v + k))
    base2 = (PochProduct().scale(_sign(k))
             .q((5 * k * k + 3 * k) // 2 + u + v).factor(2 * k + 1)
             .qn(l + m + 1).qn(m + n + 1).qn(l + n + 1)
             .qn(u - 1).qn(v - 1).qn(u + v - 1)
             .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k - 1).dqn(v - k - 1)
             .dqn(l + k + 1).dqn(m + k + 1).dqn(n + k + 1).dqn(u + k).dqn(v + k))
    return [base1, base1.copy().q(k), base2]


def _a_term(l: int, m: int, n: int, u: int, v: int, k: int) -> PochProduct:
    return (PochProduct().scale(_sign(k)).q((5 * k * k - k) // 2)
            .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
            .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k).dqn(v - k)
            .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k - 1).dqn(v + k - 1))


def _g_terms(l: int, m: int, n: int, u: int, v: int, k: int) -> list:
    head = _a_term(l, m, n, u, v, k).factor(l + m + n + u + v + 1)
    tail = (head.copy().q(k).factor(u - k).factor(v - k)
            .dfactor(u + k).dfactor(v + k))
    return [head, tail]


def _f_cap(l: int, m: int, n: int, u: int, v: int) -> int:
    return min(l, m, n, u, v)


def _F_term(l: int, m: int, n: int, u: int, v: int, k: int) -> PochProduct:
    return (PochProduct().scale(_sign(k))
            .q((5 * k * k - 3 * k) // 2 + u + v).factor(l + m + n + k + 1)
            .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
            .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k).dqn(v - k)
            .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k - 1).dqn(v + k - 1))


def _l0_term(l: int, m: int, n: int, u: int, v: int) -> PochProduct:
    return (PochProduct().scale(-1)
            .qn(l + m).qn(l + n).qn(m + n).qn(u + v)
            .qn(l, -2).qn(m, -2).qn(n, -2).dqn(u).dqn(v))


def _r0_term(l: int, m: int, n: int, u: int, v: int) -> PochProduct:
    return (PochProduct().scale(-1).factor(l + m + n + u + v + 1)
            .qn(l + m).qn(l + n).qn(m + n).qn(u + v - 1)
            .qn(l, -2).qn(m, -2).qn(n, -2).dqn(u).dqn(v))


def _two_sum_terms(l: int, m: int, n: int, u: int, v: int) -> list:
    """The cleared left side split as two one-sided sums."""
    out = []
    for k in range(0, min(l, m, n) + 1):
        den = (PochProduct().dqn(k).dqn(l - k).dqn(m - k).dqn(n - k)
               .dqn(u + k).dqn(v + k))
        out.append(den.copy().q(k * k)
                   .qn(l + m + n - k).qn(u + v + k))
        out.append(den.copy().q(k * k + k + u + v)
                   .qn(l + m + n - k + 1).qn(u + v + k - 1))
    return out


def _s_terms(l: int, m: int, n: int, u: int, v: int, k: int) -> list:
    first = (PochProduct().scale(_sign(k))
             .q((5 * k * k + 3 * k) // 2).factor(2 * k + 1)
             .qn(l + m + 1).qn(m + n + 1).qn(l + n + 1)
             .qn(u - 1).qn(v - 1).qn(u + v - 1)
             .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k - 1).dqn(v - k - 1)
             .dqn(l + k + 1).dqn(m + k + 1).dqn(n + k + 1).dqn(u + k).dqn(v + k))
    second = (PochProduct().scale(_sign(k))
              .q((5 * k * k + k) // 2 + l + m + n + 1)
              .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
              .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k - 1).dqn(v - k - 1)
              .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k).dqn(v + k))
    cross = (second.copy().scale(-1).q(4 * k + 2)
             .factor(l - k).factor(m - k).factor(n - k)
             .dfactor(l + k + 1).dfactor(m + k + 1).dfactor(n + k + 1))
    return [first, second, cross]


def _t_terms(l: int, m: int, n: int, u: int, v: int, k: int) -> list:
    first = (PochProduct().scale(_sign(k)).q((5 * k * k + 3 * k) // 2)
             .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
             .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k - 1).dqn(v - k - 1)
             .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k).dqn(v + k))
    cross = (first.copy().scale(-1).q(2 * k + 1)
             .factor(l - k).factor(m - k).factor(n - k)
             .dfactor(l + k + 1).dfactor(m + k + 1).dfactor(n + k + 1))
    return [first, cross]


# ---------------------------------------------------------------------------
# value plumbing
# ---------------------------------------------------------------------------


def _times_binomial(value, c: int):
    """(offset, buf) representing value * (1 - q^c), c >= 1."""
    off, buf = value
    out = list(buf)
    mul_binomial(out, c)
    return off, out


def _add_values(a, b):
    """A new (offset, buf) holding the sum of two values that both end at
    the same truncation order."""
    (off_a, buf_a), (off_b, buf_b) = a, b
    if off_b < off_a:
        (off_a, buf_a), (off_b, buf_b) = b, a
    out = list(buf_a)
    base = off_b - off_a
    for i, c in enumerate(buf_b):
        if c:
            out[base + i] += c
    return off_a, out


def _registry_side(ident: str, env: dict, side: str, trunc: int):
    rec = get_record(ident)
    checked = _check_params(rec, env)
    return eval_side_value(rec, side, checked, EvalCtx(trunc))


def _validate(ident: str, params: dict, trunc: int) -> VerificationReport | None:
    if min(params.values()) < 0:
        raise EngineError("parameters must be nonnegative integers")
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

    checks = []
    cap = _f_cap(l, m, n, u, v)
    running = (0, [0] * (trunc + 1))
    for k in range(cap + 3):
        fg = _f_terms(l, m, n, u, v, k)
        fg += [t.scale(-1) for t in _g_terms(l, m, n, u, v, k)]
        inc = [_F_term(l, m, n, u, v, k + 1),
               _F_term(l, m, n, u, v, k).scale(-1)]
        diff = sum_terms(fg, trunc)
        checks.append((f"difference k={k}", diff, sum_terms(inc, trunc)))
        running = _add_values(running, diff)
        part = [_F_term(l, m, n, u, v, k + 1),
                _F_term(l, m, n, u, v, 0).scale(-1)]
        checks.append((f"partial-sum k={k}", running, sum_terms(part, trunc)))

    f_all = [_l0_term(l, m, n, u, v)]
    for k in range(cap + 1):
        f_all += _f_terms(l, m, n, u, v, k)
    g_all = [_r0_term(l, m, n, u, v)]
    for k in range(cap + 1):
        g_all += _g_terms(l, m, n, u, v, k)
    left = sum_terms(f_all, trunc)
    right = sum_terms(g_all, trunc)
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

    checks = []
    cap = min(l, m, n, u - 1, v - 1)
    s_all, t_all = [], []
    for k in range(cap + 3):
        s_k = _s_terms(l, m, n, u, v, k)
        t_k = _t_terms(l, m, n, u, v, k)
        checks.append((f"termwise k={k}", sum_terms(s_k, trunc),
                       sum_terms(t_k, trunc)))
        s_all += s_k
        t_all += t_k

    checks += [
        ("lhs-assembly", sum_terms(s_all, trunc),
         _registry_side("LMNRS4", params, "lhs", trunc)),
        ("rhs-assembly", sum_terms(t_all, trunc),
         _registry_side("LMNRS4", params, "rhs", trunc)),
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

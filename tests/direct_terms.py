"""The per-k term builder, kept as a slow cross-check of the term chain.

Each term of a registry ``Sum`` is built from scratch at its k, from a copy
of the side's start product (its prefactor, if any), one ``qn``/``poch``
call per slot, with every index and argument passed through
``ctx.site`` under the same name as in the engine.  This is how the engine
built its terms before it kept one running product and multiplied in only
the change of each index; the differential tests compare the two term by
term.  A flip pair (q^-b; q)_k / (q^b; q)_k is built through its rewrite
-q^-b (q^(1-b); q)_(k-1) / (q^(b+1); q)_(k-1) for k >= 1, and the k-range
comes from :func:`exact_support`, not from the engine's slots.
"""

from qrr.identities.framework import EngineError, _valuation_kmax, eval_affine
from qrr.pochhammer import PochProduct, PoleError


def _quad_exponent(spec, env, k):
    a, b = spec.quad
    twice = a * k * k + b * k
    if twice % 2:
        raise EngineError(f"odd quadratic exponent {twice}/2 at k={k}")
    return twice // 2 + eval_affine(spec.lin, env) * k


def _keep(out, t, tag, k, env):
    st = t.state
    if st == "pole":
        raise PoleError(f"{tag}: pole at k={k} with {env}")
    if st == "ok":
        out.append(t)


def _split(spec, num_args, den_args):
    """(plain slots as (a, times), flip pairs as (a, b))."""
    flip_num = {i for i, _ in spec.flips}
    flip_den = {j for _, j in spec.flips}
    plain = ([(a, 1) for i, a in enumerate(num_args) if i not in flip_num]
             + [(b, -1) for j, b in enumerate(den_args) if j not in flip_den])
    return plain, [(num_args[i], den_args[j]) for i, j in spec.flips]


def exact_support(spec, env, trunc, num_args, den_args):
    """The k-range of a sum by the exact rule, given its argument exponents.

    A numerator (q^a; q)_k with a <= 0 bounds k <= -a and a denominator
    (q^b; q)_k with b >= 1 bounds k >= 1-b.  A flip pair (a, b) with a = -b
    is taken through its rewrite -q^-b (q^(1-b); q)_(k-1) / (q^(b+1); q)_(k-1)
    for k >= 1: it bounds k to 1-b..b when b >= 1 and nothing otherwise.  A
    pair with a != -b is two plain slots.  A declared support is the
    sum's own, its end "*" to run until the q-power passes q^trunc."""
    lin = eval_affine(spec.lin, env)
    if spec.support is not None:
        lo, hi = spec.support
        kmin = eval_affine(lo, env)
        return kmin, (_valuation_kmax(spec, lin, kmin, trunc) if hi == "*"
                      else eval_affine(hi, env))
    plain, pairs = _split(spec, num_args, den_args)
    plain += [s for a, b in pairs if a != -b for s in ((a, 1), (b, -1))]
    exact = [b for a, b in pairs if a == -b and b >= 1]
    upper = [-a for a, times in plain if times > 0 and a <= 0] + exact
    lower = [b - 1 for b, times in plain if times < 0 and b >= 1] + [b - 1 for b in exact]
    kmax = min(upper) if upper else _valuation_kmax(spec, lin, 0, trunc)
    return -min(lower, default=0), kmax


def sum_terms(spec, env, ctx, tag, trunc, start=None):
    num_args = [ctx.site(f"{tag}.argnum[{s}]", eval_affine(s, env)) for s in spec.argnum]
    den_args = [ctx.site(f"{tag}.argden[{s}]", eval_affine(s, env)) for s in spec.argden]
    plain, pairs = _split(spec, num_args, den_args)
    kmin, kmax = exact_support(spec, env, trunc, num_args, den_args)
    out = []
    tenv = dict(env)
    for k in range(kmin, kmax + 1):
        tenv["k"] = k
        t = PochProduct() if start is None else start.copy()
        if spec.alt and (k & 1):
            t.scale(-1)
        t.q(ctx.site(f"{tag}.qpow", _quad_exponent(spec, env, k), k))
        for s in spec.num:
            t.qn(ctx.site(f"{tag}.num[{s}]", eval_affine(s, tenv), k))
        for s in spec.den:
            t.dqn(ctx.site(f"{tag}.den[{s}]", eval_affine(s, tenv), k))
        for a, times in plain:
            t.poch(a, k, times)
        for a, b in pairs:
            if k >= 1 and a == -b:
                t.scale(-1)
                t.q(-b)
                t.poch(1 - b, k - 1)
                t.poch(b + 1, k - 1, -1)
            else:
                t.poch(a, k)
                t.poch(b, k, -1)
        _keep(out, t, tag, k, env)
    return out


def poch_by_factor(t, e, n, times=1):
    """t *= (q^e; q)_n^times, one ``factor`` call per (1-q^m): the loop
    ``PochProduct.poch`` replaced."""
    if n >= 0:
        for j in range(n):
            t.factor(e + j, times)
    else:
        for j in range(1, -n + 1):
            t.factor(e - j, -times)
    return t


# ---------------------------------------------------------------------------
# the certificate terms of ``qrr.telescoping``, each built at its k
# ---------------------------------------------------------------------------


def _sign(k):
    return -1 if k & 1 else 1


def certificate_terms(l, m, n, u, v, k):
    """{name: products} for f_k, g_k, F(k), L0, R0, S_k and T_k, transcribed
    factor by factor from their printed forms (L0 and R0 do not depend on k)."""
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
    head = (PochProduct().scale(_sign(k)).q((5 * k * k - k) // 2)
            .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
            .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k).dqn(v - k)
            .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k - 1).dqn(v + k - 1)
            .factor(l + m + n + u + v + 1))
    tail = (head.copy().q(k).factor(u - k).factor(v - k)
            .dfactor(u + k).dfactor(v + k))
    F = (PochProduct().scale(_sign(k))
         .q((5 * k * k - 3 * k) // 2 + u + v).factor(l + m + n + k + 1)
         .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
         .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k).dqn(v - k)
         .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k - 1).dqn(v + k - 1))
    s_first = (PochProduct().scale(_sign(k))
               .q((5 * k * k + 3 * k) // 2).factor(2 * k + 1)
               .qn(l + m + 1).qn(m + n + 1).qn(l + n + 1)
               .qn(u - 1).qn(v - 1).qn(u + v - 1)
               .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k - 1).dqn(v - k - 1)
               .dqn(l + k + 1).dqn(m + k + 1).dqn(n + k + 1).dqn(u + k).dqn(v + k))
    s_second = (PochProduct().scale(_sign(k))
                .q((5 * k * k + k) // 2 + l + m + n + 1)
                .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
                .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k - 1).dqn(v - k - 1)
                .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k).dqn(v + k))
    t_first = (PochProduct().scale(_sign(k)).q((5 * k * k + 3 * k) // 2)
               .qn(l + m).qn(l + n).qn(m + n).qn(u - 1).qn(v - 1).qn(u + v - 1)
               .dqn(l - k).dqn(m - k).dqn(n - k).dqn(u - k - 1).dqn(v - k - 1)
               .dqn(l + k).dqn(m + k).dqn(n + k).dqn(u + k).dqn(v + k))

    L0 = (PochProduct().scale(-1)
          .qn(l + m).qn(l + n).qn(m + n).qn(u + v)
          .qn(l, -2).qn(m, -2).qn(n, -2).dqn(u).dqn(v))
    R0 = (PochProduct().scale(-1).factor(l + m + n + u + v + 1)
          .qn(l + m).qn(l + n).qn(m + n).qn(u + v - 1)
          .qn(l, -2).qn(m, -2).qn(n, -2).dqn(u).dqn(v))

    def cross(t, e):
        return (t.copy().scale(-1).q(e)
                .factor(l - k).factor(m - k).factor(n - k)
                .dfactor(l + k + 1).dfactor(m + k + 1).dfactor(n + k + 1))

    return {"f": [base1, base1.copy().q(k), base2], "g": [head, tail], "F": [F],
            "L0": [L0], "R0": [R0],
            "S": [s_first, s_second, cross(s_second, 4 * k + 2)],
            "T": [t_first, cross(t_first, 2 * k + 1)]}

"""Bailey pairs, the Bailey chain, and the Bailey lattice over exact series.

A pair is stored as two term generators: ``alpha_terms(r)`` and
``beta_terms(n)`` return lists of :class:`~qrr.pochhammer.PochProduct`
factors whose accumulated value is the entry ``alpha_r`` resp. ``beta_n``.
Working at the term level keeps boundary cases exact -- vanishing numerator
factors simply flip a term into its zero state instead of forcing a limit --
and turns the chain transformations into one-line term multiplications.

One relation ties alpha to beta in every mode, with x = q^x_exp::

    beta_n = sum_r alpha_r / ((q)_{n-r} (xq)_{n+r})

A ``one_sided`` pair sums over r = 0..n.  The bilateral modes,
``bilateral_x1`` (x = 1) and ``bilateral_xq`` (x = q), sum over
r = -n-x_exp..n: the reciprocal factorial 1/(xq)_{n+r} vanishes below that,
so each sum is finite.  The bilateral x = q pair carries one extra factor
1/(1-q), which makes its denominator (q)_{n-r} (q)_{n+r+1}.  beta is
defined for n >= 0 only; the bilateral modes are bilateral in the alpha
index.

Every check here compares term lists through
:func:`~qrr.identities.framework.compare_sides`, which decides them at one
integer point, term by term where their degree bound allows and otherwise
summed over their term ratios on one packed integer, with no kernel pass:
beta_n against the relation sum, the two sides of the
weighted identity, and every route to beta_N against the registry's
left-hand side, which is evaluated once for all the routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from .series import default_truncation
from .pochhammer import PochProduct, _sign
from .identities.framework import (
    MAX_PARAMETER,
    UNPERTURBED,
    EngineError,
    Sum,
    VerificationReport,
    _check_params,
    _sum_terms,
    bounded_int,
    compare_sides,
    side_terms,
)
from .identities.engine import get_record

__all__ = [
    "BaileyPair",
    "CHAIN_TARGETS",
    "MAX_BAILEY_N",
    "MODES",
    "unit_pair_x1",
    "unit_bilateral_x1",
    "unit_bilateral_xq",
    "lattice_seed_pair",
    "fold_to_one_sided",
    "verify_pair",
    "bailey_step",
    "lattice_step",
    "symmetrized_identity",
    "chain_reproduce",
]

MODES = ("one_sided", "bilateral_x1", "bilateral_xq")

# the five-parameter identities chain_reproduce rebuilds from unit pairs
CHAIN_TARGETS = ("ABCDE1", "ABCDE2", "ABCDE3")

# The largest n_max of verify_pair, and of the command line's chain depth
# --n: the work grows with a high power of either (the defaults are 8 and 2).
MAX_BAILEY_N = 40

TermFn = Callable[[int], list]


def _rhos(what: str, rho1_exp, rho2_exp, top: int) -> tuple[int, int, int]:
    """Refuse a rho exponent that is not an integer at most ``top``, before
    any term is built.  With y = q^(top+1), return the exponents of y/rho1,
    y/rho2 and y/rho1 rho2."""
    bounded_int("rho1_exp", rho1_exp)
    bounded_int("rho2_exp", rho2_exp)
    if rho1_exp > top or rho2_exp > top:
        raise EngineError(f"{what} needs rho exponents <= {top}, "
                          f"got ({rho1_exp}, {rho2_exp})")
    return top + 1 - rho1_exp, top + 1 - rho2_exp, top + 1 - rho1_exp - rho2_exp


def _binom2(n: int) -> int:
    """n(n-1)/2, valid for negative n as well."""
    return n * (n - 1) // 2


def _weigh(terms: TermFn, weights: Iterable[tuple[int, PochProduct]]) -> list:
    """Each term of terms(r) times w, for every (r, w) of ``weights`` in
    order: the one weighted sum behind every Bailey relation and move."""
    return [t.mul(w) for r, w in weights for t in terms(r)]


@dataclass(frozen=True)
class BaileyPair:
    """A pair of term generators plus the relation mode that links them."""

    mode: str
    x_exp: int
    alpha_terms: TermFn = field(repr=False)
    beta_terms: TermFn = field(repr=False)
    label: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise EngineError(f"unknown pair mode {self.mode!r}")
        x = bounded_int("x_exp", self.x_exp, 0)
        if self.mode == "bilateral_x1" and x != 0:
            raise EngineError("bilateral_x1 pairs have x = 1")
        if self.mode == "bilateral_xq" and x != 1:
            raise EngineError("bilateral_xq pairs have x = q")

    # -- the defining relation ------------------------------------------------

    def relation_range(self, n: int) -> range:
        """The alpha indices of the relation sum for beta_n: 0..n for a
        one-sided pair, -n-x..n for a bilateral one."""
        return range(0 if self.mode == "one_sided" else -n - self.x_exp, n + 1)

    def relation_terms(self, n: int) -> list:
        """Terms of the relation sum whose value should equal beta_n."""
        if n < 0:
            raise EngineError("the pair relation is stated for n >= 0")
        x = self.x_exp
        extra = -1 if self.mode == "bilateral_xq" else 0
        return _weigh(self.alpha_terms,
                      ((r, PochProduct().dqn(n - r).dpoch(x + 1, n + r).factor(1, extra))
                       for r in self.relation_range(n)))


# ---------------------------------------------------------------------------
# stock pairs
# ---------------------------------------------------------------------------


def _delta_beta(n: int) -> list:
    return [PochProduct()] if n == 0 else []


def unit_pair_x1() -> BaileyPair:
    """The one-sided unit pair with x = 1, the fold of the bilateral one:

    alpha_0 = 1, alpha_n = (-1)^n (q^(n(n-1)/2) + q^(n(n+1)/2)) for n >= 1,
    and beta_n = delta_{n,0}.
    """
    return replace(fold_to_one_sided(unit_bilateral_x1()), label="unit-x1")


def _unit_bilateral_alpha(r: int) -> list:
    return [PochProduct().scale(_sign(r)).q(_binom2(r))]


def unit_bilateral_x1() -> BaileyPair:
    """The bilateral unit pair with x = 1: alpha_r = (-1)^r q^(r(r-1)/2)."""
    return BaileyPair("bilateral_x1", 0, _unit_bilateral_alpha, _delta_beta,
                      label="unit-x1-bilateral")


def unit_bilateral_xq() -> BaileyPair:
    """The bilateral unit pair with x = q; the same alpha as for x = 1,
    related through the shifted factorial (q)_{n+r+1}."""
    return BaileyPair("bilateral_xq", 1, _unit_bilateral_alpha, _delta_beta,
                      label="unit-xq-bilateral")


def lattice_seed_pair() -> BaileyPair:
    """The one-sided pair with x = q used to seed the lattice route:
    alpha_n = (-1)^n q^(n(n-1)/2) (1-q^(2n+1))/(1-q), beta_n = delta_{n,0}.

    This is exactly the one-sided fold of the bilateral x = q unit pair.
    """

    def alpha(r: int) -> list:
        if r < 0:
            return []
        return [
            PochProduct().scale(_sign(r)).q(_binom2(r)).factor(2 * r + 1).dfactor(1)
        ]

    return BaileyPair("one_sided", 1, alpha, _delta_beta, label="lattice-seed")


def fold_to_one_sided(pair: BaileyPair) -> BaileyPair:
    """Fold a bilateral pair onto nonnegative indices.

    The relation denominators at r and at its mirror -r-x_exp agree, so
    alpha'_n = (alpha_n + alpha_{-n-x_exp}) / (1-q)^x_exp: for x = 1,
    alpha_0 is its own mirror and is counted once; for x = q, the extra
    1/(1-q) of the bilateral relation moves into alpha'.  beta is unchanged.
    """
    if pair.mode == "one_sided":
        return pair
    old, x = pair.alpha_terms, pair.x_exp
    w = PochProduct().factor(1, -x)

    def alpha(r: int) -> list:
        if r < 0:
            return []
        # r, then its mirror unless r is its own
        return _weigh(old, ((m, w) for m in dict.fromkeys((r, -r - x))))

    return BaileyPair("one_sided", x, alpha, pair.beta_terms,
                      label=f"fold({pair.label})")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_pair(pair: BaileyPair, n_max: int = 10,
                trunc: int | None = None) -> list[VerificationReport]:
    """Check the defining relation for n = 0..n_max; one report per index."""
    bounded_int("n_max", n_max, 0, MAX_BAILEY_N)
    trunc = default_truncation(trunc)
    return [compare_sides(pair.label or "pair", {"n": n}, trunc,
                          (pair.beta_terms(n), 0), (pair.relation_terms(n), 0))
            for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# chain and lattice moves
# ---------------------------------------------------------------------------


def bailey_step(pair: BaileyPair, rho1_exp: int, rho2_exp: int) -> BaileyPair:
    """One move along the Bailey chain with rho_i = q^rho_i_exp.

    Keeps the mode and the parameter x; multiplies alpha_r by

        (rho1, rho2)_r (xq/rho1 rho2)^r / ((xq/rho1)_r (xq/rho2)_r)

    at every index (negative ones included for bilateral pairs), and maps

        beta_n -> sum_{r=0..n} (rho1, rho2)_r (xq/rho1 rho2)_{n-r}
                  (xq/rho1 rho2)^r / ((q)_{n-r} (xq/rho1)_n (xq/rho2)_n) beta_r.

    Requires integers rho_i_exp <= x_exp so the new denominators stay
    regular.
    """
    x = pair.x_exp
    e1, e2, e12 = _rhos("chain step", rho1_exp, rho2_exp, x)
    old_alpha = pair.alpha_terms

    def alpha(r: int) -> list:
        return _weigh(old_alpha, [(r, PochProduct().poch(rho1_exp, r).poch(rho2_exp, r)
                                   .q(e12 * r).dpoch(e1, r).dpoch(e2, r))])

    beta = _beta_transform(pair.beta_terms, rho1_exp, rho2_exp, e1, e2, e12)
    return BaileyPair(pair.mode, x, alpha, beta,
                      label=f"step[{rho1_exp},{rho2_exp}]({pair.label})")


def _beta_transform(old_beta: TermFn, rho1_exp: int, rho2_exp: int,
                    e1: int, e2: int, e12: int) -> TermFn:
    """The beta side of a chain or lattice move, with (a)_k = (q^a; q)_k:

        beta_n -> sum_{r=0..n} (rho1, rho2)_r (e12)_{n-r} q^(e12 r)
                  / ((q)_{n-r} (e1)_n (e2)_n) beta_r.
    """

    def beta(n: int) -> list:
        return _weigh(old_beta, ((r, PochProduct().poch(rho1_exp, r).poch(rho2_exp, r)
                                  .poch(e12, n - r).q(e12 * r)
                                  .dqn(n - r).dpoch(e1, n).dpoch(e2, n))
                                 for r in range(n + 1)))

    return beta


def lattice_step(pair: BaileyPair, rho1_exp: int, rho2_exp: int) -> BaileyPair:
    """One move along the Bailey lattice: x -> x/q.

    Takes a one-sided pair with parameter x and returns a one-sided pair
    with parameter x/q, where for n >= 0 (with alpha_{-1} = 0, so that
    alpha'_0 = alpha_0)

        alpha'_n = (1-x) (x/rho1 rho2)^n (rho1, rho2)_n / ((x/rho1)_n (x/rho2)_n)
                   * ( alpha_n/(1-x q^{2n}) - x q^{2n-2} alpha_{n-1}/(1-x q^{2n-2}) ),

    while beta transforms exactly as in the chain step with xq replaced by x.
    """
    if pair.mode != "one_sided":
        raise EngineError("the lattice step needs a one-sided pair")
    x = pair.x_exp
    e1, e2, e12 = _rhos("lattice step", rho1_exp, rho2_exp, x - 1)
    old_alpha = pair.alpha_terms

    def alpha(n: int) -> list:
        if n < 0:
            return []
        head = (PochProduct().factor(x).q(e12 * n)
                .poch(rho1_exp, n).poch(rho2_exp, n)
                .dpoch(e1, n).dpoch(e2, n))
        return _weigh(old_alpha, (
            (n, head.copy().dfactor(x + 2 * n)),
            (n - 1, head.scale(-1).q(x + 2 * n - 2).dfactor(x + 2 * n - 2))))

    beta = _beta_transform(pair.beta_terms, rho1_exp, rho2_exp, e1, e2, e12)
    return BaileyPair("one_sided", x - 1, alpha, beta,
                      label=f"lattice[{rho1_exp},{rho2_exp}]({pair.label})")


# ---------------------------------------------------------------------------
# the symmetrized (weighted, terminating) form of the relation
# ---------------------------------------------------------------------------


def symmetrized_identity(pair: BaileyPair, rho1_exp: int, rho2_exp: int,
                         N: int, trunc: int | None = None) -> VerificationReport:
    """Check the terminating weighted identity attached to a pair.

    With x = q^x_exp, rho_i = q^rho_i_exp, this is

        sum_n (rho1, rho2, q^-N)_n / ((xq/rho1, xq/rho2, xq^{N+1})_n)
              * (xq^{1+N}/rho1 rho2)^n (-1)^n q^{-C(n,2)} alpha_n
            = (xq, xq/rho1 rho2)_N / ((xq/rho1, xq/rho2)_N)
              * sum_{n>=0} (rho1, rho2, q^-N)_n q^n beta_n / ((rho1 rho2 q^-N / x)_n),

    where for one-sided pairs n runs over 0..N and for bilateral pairs over
    all integers (the weights terminate the sum on both ends); bilateral
    pairs with x = q carry the extra 1/(1-q) that their fold introduces.
    """
    bounded_int("the terminating parameter N", N, 0, MAX_BAILEY_N)
    x = pair.x_exp
    e1, e2, e12 = _rhos("weighted identity", rho1_exp, rho2_exp, x)
    trunc = default_truncation(trunc)
    extra = -1 if pair.mode == "bilateral_xq" else 0
    lhs = _weigh(pair.alpha_terms, (
        (n, PochProduct().scale(_sign(n)).q(-_binom2(n))
         .poch(rho1_exp, n).poch(rho2_exp, n).poch(-N, n)
         .dpoch(e1, n).dpoch(e2, n).dpoch(x + N + 1, n)
         .q((e12 + N) * n).factor(1, extra))
        for n in pair.relation_range(N)))
    pre = PochProduct().poch(x + 1, N).poch(e12, N).dpoch(e1, N).dpoch(e2, N)
    rhs = _weigh(pair.beta_terms, (
        (n, PochProduct().poch(rho1_exp, n).poch(rho2_exp, n).poch(-N, n)
         .q(n).dpoch(1 - N - e12, n).mul(pre))
        for n in range(N + 1)))
    return compare_sides(f"weighted[{rho1_exp},{rho2_exp};N={N}]({pair.label})",
                         {"N": N}, trunc, (lhs, 0), (rhs, 0))


# ---------------------------------------------------------------------------
# reconstruction of the five-parameter identities
# ---------------------------------------------------------------------------

# the context of the lattice sum, read at each call so that a test can
# perturb it
_CTX = UNPERTURBED

# the sum of the lattice closed form, at b = q^b and so on
_LATTICE_SUM = Sum(quad=(0, 0), lin="1", argnum=("-N", "1-b", "1-c", "d+e-2"),
                   argden=("1", "d", "e", "2-N-b-c"))


def _closed_beta_via_lattice(N: int, b: int, c: int, d: int, e: int) -> list:
    """The hypergeometric closed form of the doubly transformed beta_N on the
    lattice route: (bc/q)_N / ((q, b, c)_N) *
    sum_n (q^-N, q/b, q/c, de/q^2)_n q^n / ((q, d, e, q^{2-N}/bc)_n)."""
    pre = (PochProduct().poch(b + c - 1, N)
           .dqn(N).dpoch(b, N).dpoch(c, N))
    env = {"N": N, "b": b, "c": c, "d": d, "e": e}
    # the terminating sum never reads the truncation order
    return _sum_terms(_LATTICE_SUM, env, _CTX, "lattice", 0, start=pre)


def chain_reproduce(ident: str, N: int, b_exp: int = 1, c_exp: int = 1,
                    d_exp: int = 1, e_exp: int = 1,
                    trunc: int | None = None) -> VerificationReport:
    """Rebuild one of the five-parameter identities from a unit pair.

    The first parameter is bound to q^(1+N); the others are q^b_exp ...
    q^e_exp with exponents from 1 to MAX_PARAMETER + 1.  Depending on the
    target this runs two chain steps from a bilateral unit pair, or a chain
    step followed by a lattice step from the one-sided seed, evaluates
    beta_N through every available route (relation sum, transformed-beta
    formula, closed form), and compares each against the registry's
    left-hand side in one :func:`compare_sides` call: the target is summed
    or evaluated once, and every route and the target share one route, and
    one point or one unit and one depth.
    The report is EQUAL only if all routes match; otherwise it is the first
    route's that does not.
    """
    key = ident.upper()
    if key not in CHAIN_TARGETS:
        raise EngineError(
            f"chain reconstruction covers {', '.join(CHAIN_TARGETS)}; "
            f"got {ident!r}"
        )
    bounded_int("N", N, 0, MAX_BAILEY_N)
    for name, value in (("b_exp", b_exp), ("c_exp", c_exp),
                        ("d_exp", d_exp), ("e_exp", e_exp)):
        bounded_int(name, value, 1, MAX_PARAMETER + 1)
    trunc = default_truncation(trunc)

    params = {"n": N, "l": b_exp - 1, "m": c_exp - 1,
              "u": d_exp - 1, "v": e_exp - 1}
    rec = get_record(key)
    env = _check_params(rec, params)
    target = side_terms(rec, "lhs", env, trunc)

    if key == "ABCDE3":
        stepped = bailey_step(lattice_seed_pair(), 2 - d_exp, 2 - e_exp)
        pair = lattice_step(stepped, 1 - b_exp, 1 - c_exp)
        closed = [_closed_beta_via_lattice(N, b_exp, c_exp, d_exp, e_exp)]
    else:
        unit = unit_bilateral_x1() if key == "ABCDE1" else unit_bilateral_xq()
        pair = bailey_step(bailey_step(unit, 1 - b_exp, 1 - c_exp),
                           1 - d_exp, 1 - e_exp)
        closed = []
    bridge = PochProduct().qn(N).qn(N + 1) if key == "ABCDE2" else PochProduct().qn(N, 2)

    routes = (pair.relation_terms(N), pair.beta_terms(N), *closed)
    return compare_sides(f"chain({key})", params, trunc,
                         *(([t.mul(bridge) for t in terms], 0) for terms in routes), target)

"""Factored products of (1 - q^m): the engine's one term algebra.

A :class:`PochProduct` is a scalar, a power of q, and a multiset of factors
(1-q^m) with integer multiplicities.  Its builders multiply in q-shifted
factorials with the usual conventions:

    (a; q)_0 = 1
    (a; q)_n = (1-a)(1-aq)...(1-aq^{n-1})          for n > 0
    (a; q)_n = 1 / ((aq^n; q)_{-n})                for n < 0

so that (a; q)_n * (aq^n; q)_m = (a; q)_{n+m} for all integer n, m.  A
negative index can place a genuine zero in a denominator — (q; q)_{-1}
involves 1/(1-q^0) — so the m=0 factor is kept as a multiplicity: zeros in
numerator and denominator cancel exactly, and what survives makes the
product exactly zero or a pole (its ``state``).

Because that rule holds for every integer index, the terms of a sum are
built as a chain rather than from scratch: one running product holds every
q-shifted factorial of the term, and :meth:`PochProduct.step` multiplies in
only the change of one of them, (q^e; q)_n / (q^e; q)_n' =
(q^(e+n'); q)_(n-n').  The product is canonical (a scalar, a shift and net
multiplicities), so a chained term equals the one built directly, zero and
pole states included.

:class:`SeriesAccumulator` sums products into an ``(offset, coeffs)`` buffer
by nested (Horner) evaluation over term ratios.  Consecutive terms of a
hypergeometric-type sum differ by a few factors, so with
t_k = c_k q^(s_k) U_k the sum is built from the last term down as
A_k = c_k q^(s_k) + (U_(k+1)/U_k) A_(k+1) and finished by one product with
U_(first): each step costs one O(T) pass of :func:`mul_binomial` /
:func:`div_binomial` per factor of the ratio, not per factor of the term.
Where a ratio would cost more than closing the chain, the chain is closed
and a new one started, so a sum never takes more passes than rendering each
term on its own would.  :func:`sum_terms` hands the sum back as that
``(offset, coeffs)`` value; :func:`~qrr.series.power_series` turns it into
the plain list of coefficients of q^0 .. q^T that the public calls return.

One scan of the terms of every side of a check, :func:`shared_unit`,
reads its degree bound B.  Let d_m be the largest denominator multiplicity
of (1-q^m) over the terms of every side; then
D = prod (1-q^m)^d_m is a unit with D(0) = 1, and each term times D is a
Laurent polynomial of degree at most s + sum_m m (e_m + d_m).  So any
integer combination of the sides is 0, or first differs from 0 at some q^e
with e <= B, the largest of these degrees, and no coefficient past
q^(B+2) can change the check's report.  This is the denominator clearing
of Wilf-Zeilberger certification (Wilf and Zeilberger, JAMS 1990).

Where B + 2 <= T the check is an identity of Laurent polynomials, which one
exact integer evaluation decides with no kernel pass (Kronecker
substitution).  The same scan gives s_min, the lowest shift, and lambda_m,
the least multiplicity of each (1-q^m): every term times q^-s_min
prod (1-q^m)^-lambda_m is an integer polynomial whose coefficients have
absolute values summing to at most |c| 2^(sum n_m), n_m >= 0 its factors
left.  With H the sum of these bounds over the terms of every side and
2^b > H, :func:`point_values` evaluates each side at q = 2^b: each cleared
term is built on its own from its scalar by one shift and subtraction per
factor, with no division and no chaining.  Every coefficient of a signed
combination of distinct sides is then below 2^b in absolute value, so the
combination is 0 exactly when its value is, and otherwise its lowest set
bit falls in the digit of its first nonzero exponent.

Where B + 2 > T, or a side is divided by (q; q)_inf, the check is decided
at the same kind of point modulo 2^(bK), K = T + 1 - s_min.  Modulo
q^(T+1) every (1-q^m) is a unit, and so is (q; q)_inf, whose image is
Euler's pentagonal polynomial; so q -> 2^b maps the truncated check into
Z / 2^(bK) as a ring homomorphism, and intermediate values need no bound.
:func:`packed_values` sums each side over its term ratios on one integer
(:func:`packed_sum`), where a factor costs one shift, subtraction and mask
and a division a few shift-add-masks.  Every term joins one chain, walked
from the first term to the last, with no cost test: the test of
:class:`SeriesAccumulator` counts list-kernel passes, not these
operations, and takes more time than it would save here.  The walk goes
forward because a sum's later terms mostly carry more denominators, as
1/(q; q)_k does: the ratio toward such a term is made of multiplications,
at one shift-subtract-mask each, where the ratio back from it would be
as many divisions.  It sums the cleared terms that :func:`point_values`
evaluates, each term divided by L = prod (1-q^m)^lambda_m: L cancels in
the ratio of consecutive terms, and finishing the chain applies
U_last / L, a polynomial.  It multiplies a side that owes fewer
(q; q)_inf divisions than another by the pentagonal image; H then counts
only terms that reach q^T, each weighed by the pentagonal terms it is
multiplied by.
:func:`~qrr.identities.framework.sum_sides` is the one caller of
:func:`shared_unit`, :func:`point_values` and :func:`packed_values`: every
check of term lists takes its values through it, and it refuses a
coefficient that is not an int.  The coefficient kernels sum only the
windows of a MISMATCH and the public sums.
"""

from __future__ import annotations

from .series import SeriesError, default_truncation


class PoleError(SeriesError):
    """A term evaluated to the reciprocal of zero where a series was required."""


# ---------------------------------------------------------------------------
# O(T) coefficient kernels
# ---------------------------------------------------------------------------


def mul_binomial(buf: list, m: int, lo: int = 0) -> None:
    """In place: buf *= (1 - q^m), m >= 1, where buf[:lo] is all zero."""
    n = len(buf)
    for i in range(n - 1, lo + m - 1, -1):
        if buf[i - m]:
            buf[i] -= buf[i - m]


def div_binomial(buf: list, m: int, lo: int = 0) -> None:
    """In place: buf /= (1 - q^m), m >= 1, where buf[:lo] is all zero."""
    n = len(buf)
    for i in range(lo + m, n):
        if buf[i - m]:
            buf[i] += buf[i - m]


def _pentagonal_pairs(reach: int) -> list:
    """(k(3k-1)/2, k(3k+1)/2, k odd) for each k >= 1 with k(3k-1)/2 <= reach:
    the exponents past q^0 of (q; q)_inf = sum_k (-1)^k q^(k(3k-1)/2), in
    pairs that share the sign (-1)^k."""
    pairs = []
    k = 1
    while k * (3 * k - 1) // 2 <= reach:
        g = k * (3 * k - 1) // 2
        pairs.append((g, g + k, k & 1))
        k += 1
    return pairs


def div_euler(buf: list, lo: int = 0) -> None:
    """In place: buf /= (q; q)_inf = prod_{m>=1} (1 - q^m) through the top
    of buf, where buf[:lo] is all zero.

    By Euler's pentagonal number theorem the quotient y of x satisfies
    y_i = x_i + y_(i-1) + y_(i-2) - y_(i-5) - y_(i-7) + y_(i-12) + ...
    over the generalized pentagonal numbers g <= i - lo: about
    2 sqrt(2n/3) terms per coefficient, n = len(buf), where one binomial
    pass per factor (1 - q^m) would take n.
    """
    n = len(buf)
    pairs = _pentagonal_pairs(n - 1 - lo)
    for i in range(lo + 1, n):
        reach = i - lo
        acc = buf[i]
        for g, h, odd in pairs:
            if g > reach:
                break
            x = buf[i - g] + buf[i - h] if h <= reach else buf[i - g]
            acc = acc + x if odd else acc - x
        buf[i] = acc


# ---------------------------------------------------------------------------
# the Rogers-Ramanujan products
# ---------------------------------------------------------------------------


_RR_RESIDUES = {"mod5_14": (1, 4), "mod5_23": (2, 3)}


def rr_product_side(which: str, trunc: int | None = None) -> list:
    """The coefficients of q^0 .. q^T of a Rogers-Ramanujan product side.

    mod5_14: 1 / ((q; q^5)_inf (q^4; q^5)_inf)  — parts congruent to 1, 4 mod 5
    mod5_23: 1 / ((q^2; q^5)_inf (q^3; q^5)_inf) — parts congruent to 2, 3 mod 5
    """
    trunc = default_truncation(trunc)
    residues = _RR_RESIDUES.get(which)
    if residues is None:
        raise ValueError(f"unknown product side {which!r}")
    p = PochProduct()
    for m in range(1, trunc + 1):
        if m % 5 in residues:
            p.dfactor(m)
    return sum_terms([p], trunc)[1]


# ---------------------------------------------------------------------------
# factored products of (1 - q^m): the engine's term representation
# ---------------------------------------------------------------------------


def _sign(k: int) -> int:
    """(-1)^k, the sign of the k-th term of an alternating sum."""
    return -1 if k & 1 else 1


class PochProduct:
    """scalar * q^shift * prod_m (1-q^m)^powers[m], with exact bookkeeping.

    Factors (1-q^m) with m < 0 are rewritten on entry via
    (1-q^m) = -q^m (1-q^{-m}), so `powers` only ever holds keys m >= 0.
    The key 0 tracks the net multiplicity of vanishing factors: a positive
    net count means the whole product is exactly zero, a negative one means
    it is a pole.  Same-exponent zeros occurring in both numerator and
    denominator cancel exactly, which is what makes termwise evaluation of
    quotient sums safe at boundary parameter values.
    """

    __slots__ = ("coeff", "shift", "powers")

    def __init__(self):
        self.coeff = 1
        self.shift = 0
        self.powers: dict[int, int] = {}

    # fluent builders ------------------------------------------------------

    def scale(self, c: int) -> "PochProduct":
        self.coeff *= c
        return self

    def q(self, e: int) -> "PochProduct":
        """Multiply by q^e."""
        self.shift += e
        return self

    def factor(self, m: int, times: int = 1) -> "PochProduct":
        """Multiply by (1-q^m)^times for any integer m."""
        if times == 0:
            return self
        if m < 0:
            if times % 2:
                self.coeff = -self.coeff
            self.shift += m * times
            m = -m
        self.powers[m] = self.powers.get(m, 0) + times
        if not self.powers[m]:
            del self.powers[m]
        return self

    def dfactor(self, m: int) -> "PochProduct":
        return self.factor(m, -1)

    def poch(self, e: int, n: int, times: int = 1) -> "PochProduct":
        """Multiply by (q^e; q)_n^times: the factors (1-q^m), e <= m < e+n,
        for n >= 0, and the reciprocals of e+n <= m < e for n < 0, updated
        in one loop."""
        if n < 0:
            e, n, times = e + n, -n, -times
        if not n or not times:
            return self
        powers = self.powers
        for m in range(e, e + n):
            if m < 0:
                m = -m
            c = powers.get(m, 0) + times
            if c:
                powers[m] = c
            else:
                del powers[m]
        if e < 0:
            # (1-q^m) = -q^m (1-q^{-m}) for each of the factors with m < 0
            neg = min(n, -e)
            self.shift += times * neg * (2 * e + neg - 1) // 2
            if neg * times % 2:
                self.coeff = -self.coeff
        return self

    def dpoch(self, e: int, n: int) -> "PochProduct":
        return self.poch(e, n, -1)

    def step(self, e: int, old: int, new: int, times: int = 1) -> "PochProduct":
        """Multiply by ((q^e; q)_new / (q^e; q)_old)^times, which is
        (q^(e+old); q)_(new-old)^times for all integers old and new: the
        change of one slot of a term chain from index old to index new.

        Most steps of a chain move an index by one: new = old + 1 multiplies
        by (1-q^(e+old))^times and new = old - 1 divides by (1-q^(e+new))^times.
        Where that one factor has m >= 1 its multiplicity is updated here in
        place; any other change, a zero or negative m among them, goes
        through :meth:`poch`."""
        d = new - old
        if d == 1 or d == -1:
            m = e + old if d == 1 else e + new
            if m >= 1:
                powers = self.powers
                c = powers.get(m, 0) + d * times
                if c:
                    powers[m] = c
                else:
                    del powers[m]
                return self
        return self.poch(e + old, d, times)

    def qn(self, n: int, times: int = 1) -> "PochProduct":
        """Multiply by (q; q)_n^times."""
        return self.poch(1, n, times)

    def dqn(self, n: int) -> "PochProduct":
        return self.poch(1, n, -1)

    # state ----------------------------------------------------------------

    @property
    def state(self) -> str:
        z = self.powers.get(0, 0)
        if z > 0:
            return "zero"
        if z < 0:
            return "pole"
        return "ok"

    def copy(self) -> "PochProduct":
        out = PochProduct()
        out.coeff = self.coeff
        out.shift = self.shift
        out.powers = dict(self.powers)
        return out

    def mul(self, other: "PochProduct") -> "PochProduct":
        out = self.copy()
        out.coeff *= other.coeff
        out.shift += other.shift
        for m, t in other.powers.items():
            out.powers[m] = out.powers.get(m, 0) + t
            if not out.powers[m]:
                del out.powers[m]
        return out

    def __repr__(self) -> str:
        parts = []
        if self.coeff != 1:
            parts.append(str(self.coeff))
        if self.shift:
            parts.append(f"q^{self.shift}")
        for m in sorted(self.powers):
            t = self.powers[m]
            parts.append(f"(1-q^{m})^{t}" if t != 1 else f"(1-q^{m})")
        return "PochProduct[" + " ".join(parts or ["1"]) + "]"


def _ratio(lower: dict, upper: dict) -> dict:
    """The factors of U_upper / U_lower, as a powers dict."""
    out = dict(upper)
    for m, t in lower.items():
        d = out.get(m, 0) - t
        if d:
            out[m] = d
        else:
            del out[m]
    return out


def _passes(powers: dict, reach: int) -> int:
    """Kernel passes that apply `powers` to a buffer whose lowest nonzero
    entry lies `reach` places below its top: factors (1-q^m) with m > reach
    cannot touch it."""
    return sum(abs(t) for m, t in powers.items() if 0 < m <= reach)


def _apply(buf: list, powers: dict, lo: int, reach: int) -> list:
    """In place: buf *= prod (1-q^m)^powers[m] over 0 < m <= reach; returns
    buf."""
    for m, t in powers.items():
        if 0 < m <= reach:
            kernel = mul_binomial if t > 0 else div_binomial
            for _ in range(abs(t)):
                kernel(buf, m, lo)
    return buf


def _close(out: list | None, buf: list, powers: dict, lo: int, top: int) -> list:
    """Finish a chain: buf *= U_head, then add it into ``out`` (or become
    it)."""
    _apply(buf, powers, lo, top - lo)
    if out is None:
        return buf
    for i in range(lo, top + 1):
        if buf[i]:
            out[i] += buf[i]
    return out


class SeriesAccumulator:
    """Sums PochProduct terms, allowing negative q-exponents while summing.

    Individual terms of a bilateral sum may carry negative powers of q even
    when the total is an honest power series; the accumulator keeps a wide
    enough window for the most negative shift seen and lets the caller
    decide what to do with any surviving negative part.

    :meth:`value` walks the terms from last to first.  A chain headed by
    term h holds A_h in one list indexed by exponent, and is worth
    U_h * A_h.  Taking in the next term t multiplies the list by U_h / U_t
    and adds c_t at q^(s_t); closing the chain multiplies it by U_h and
    adds it to the output.  t joins the chain only if the ratio, plus the
    extra passes t's own factors will need from the chain's lower floor,
    costs no more than closing; otherwise the chain is closed and t heads a
    new one.  So the passes spent plus those owed for closing never exceed
    what rendering each term on its own takes.  A pass is counted only for
    a factor (1-q^m) whose m can reach q^trunc from the list's lowest
    entry.
    """

    def __init__(self, trunc: int):
        self.trunc = trunc
        self.terms: list[PochProduct] = []

    def add(self, term: PochProduct) -> None:
        st = term.state
        if st == "zero":
            return
        if st == "pole":
            raise PoleError(f"pole term reached the accumulator: {term!r}")
        self.terms.append(term)

    def value(self) -> tuple[int, list]:
        """(offset, coeffs) with coeffs[i] the coefficient of q^(offset+i)."""
        offset = min([0] + [t.shift for t in self.terms])
        top = self.trunc - offset            # index of q^trunc
        out = buf = None
        for t in reversed(self.terms):
            s = t.shift - offset
            if s > top:
                continue
            own = t.powers
            if buf is not None:
                reach = top - lo
                ratio = _ratio(own, head)        # U_head / U_t
                cost = _passes(ratio, reach)
                if s >= lo:     # t does not lower the chain's floor
                    cost += _passes(own, reach) - _passes(own, top - s)
                if cost <= _passes(head, reach):
                    _apply(buf, ratio, lo, reach)
                else:
                    out = _close(out, buf, head, lo, top)
                    buf = None
            if buf is None:
                buf, lo = [0] * (top + 1), s
            buf[s] += t.coeff
            if s < lo:
                lo = s
            head = own
        if buf is not None:
            out = _close(out, buf, head, lo, top)
        return offset, out if out is not None else [0] * (top + 1)


def sum_terms(terms: list[PochProduct], trunc: int) -> tuple[int, list]:
    """The sum of ``terms`` through q^trunc, as (offset, coeffs)."""
    acc = SeriesAccumulator(trunc)
    for t in terms:
        acc.add(t)
    return acc.value()


def shared_unit(*term_lists: list[PochProduct]) -> tuple[int | None, int | None, dict]:
    """(B, s_min, L) for a check of integer combinations of the lists, from
    one scan of their nonzero terms c q^s prod (1-q^m)^e_m.

    B is the degree bound of the check (None when there are no terms): with
    d_m the largest denominator multiplicity of (1-q^m) over the terms,
    every term times D = prod (1-q^m)^d_m is a Laurent polynomial of degree
    at most s + sum_m m (e_m + d_m), and B is the largest of these.  D is a
    unit with D(0) = 1, so an integer combination of the lists' sums is 0,
    or first differs from 0 at some q^e with e <= B.

    s_min is the lowest shift of the terms, and L, a powers dict, holds the
    clearing exponents: lambda_m, the least multiplicity of (1-q^m) over the
    terms, a term without the factor counting as 0.  Every term times
    q^-s_min prod (1-q^m)^-lambda_m is a polynomial, the input of
    :func:`point_values` and of :func:`packed_values`.  The key m = 0, the
    zero and pole count, stays with the terms."""
    # a multiplicity that reaches 0 is deleted, so a term is "ok" exactly
    # when it holds no key m = 0
    terms = [t for terms in term_lists for t in terms if 0 not in t.powers]
    # per m, the least multiplicity of (1-q^m) and how many terms hold it
    least, count = {}, {}
    bound = None
    low = terms[0].shift if terms else None
    for t in terms:
        degree = s = t.shift
        if s < low:
            low = s
        for m, e in t.powers.items():
            degree += m * e
            c = count.get(m)
            if c is None:
                least[m], count[m] = e, 1
            else:
                count[m] = c + 1
                if e < least[m]:
                    least[m] = e
        if bound is None or degree > bound:
            bound = degree
    n = len(terms)
    clear = {}
    for m, e in least.items():
        if e < 0:                # D clears (1-q^m)^-e from every term
            bound -= m * e
        elif count[m] < n:       # some term lacks (1-q^m)
            e = 0
        if e:
            clear[m] = e
    return bound, low, clear


# ---------------------------------------------------------------------------
# a check decided at one integer point
# ---------------------------------------------------------------------------


def point_value(terms: list[PochProduct], base: int, low: int, clear: dict) -> int:
    """The sum of the nonzero ``terms``, each times q^-low prod
    (1-q^m)^-clear[m], at q = 2^base: each cleared term is built on its own
    from its scalar, one shift and subtraction R -= R * 2^(base m) for each
    factor (1-q^m) left on it, and shifted by base (s - low) bits."""
    total = 0
    for t in terms:
        powers = t.powers
        if 0 in powers:
            continue
        r = t.coeff
        for m, e in powers.items():
            for _ in range(e - clear.get(m, 0)):
                r -= r << base * m
        for m, e in clear.items():
            if m not in powers:
                for _ in range(-e):
                    r -= r << base * m
        total += r << base * (t.shift - low)
    return total


def point_values(term_lists: list[list[PochProduct]], low: int,
                 clear: dict) -> tuple[int, list]:
    """(b, values) for a check of signed combinations of the lists, each
    list at most once in a combination, every coefficient an int: every
    list's :func:`point_value` at q = 2^b.  A pole term raises PoleError.

    With (low, clear) the s_min and L of :func:`shared_unit`, each cleared
    term c q^(s - s_min) prod (1-q^m)^n_m, n_m >= 0, has coefficients whose
    absolute values sum to at most |c| 2^(sum n_m); H is the sum of these
    bounds over every term, and b the bit length of H.  Every coefficient of
    such a combination of cleared lists is then below 2^b in absolute
    value, so its value at 2^b is 0 only if the combination is, and
    otherwise its lowest set bit lies in the digit of its first nonzero
    exponent: a combination of the uncleared lists first differs from 0 at
    q^e, e = s_min + v_2(value) // b."""
    drop = sum(clear.values())
    bound = 0
    for terms in term_lists:
        for t in terms:
            z = t.powers.get(0)
            if z:
                if z < 0:
                    raise PoleError(f"pole term reached the accumulator: {t!r}")
                continue
            bound += abs(t.coeff) << (sum(t.powers.values()) - drop)
    base = max(bound.bit_length(), 1)
    return base, [point_value(terms, base, low, clear) for terms in term_lists]


def _packed_apply(x: int, powers: dict, reach: int, base: int, mask: int) -> int:
    """x times prod (1-q^m)^powers[m] over 0 < m <= reach, at q = 2^base,
    modulo mask + 1, where x's lowest digit lies ``reach`` digits below its
    top: one shift, subtraction and mask per factor, and J shift-add-masks
    per division by one, m 2^J > reach, since 1/(1-z) = prod_(j<J)
    (1 + z^(2^j)) modulo z^(2^J)."""
    for m, t in powers.items():
        if 0 < m <= reach:
            for _ in range(abs(t)):
                if t > 0:
                    x = (x - (x << base * m)) & mask
                else:
                    for j in range((reach // m).bit_length()):
                        x = (x + (x << (base * m << j))) & mask
    return x


def packed_sum(terms: list[PochProduct], trunc: int, clear: dict, base: int,
               low: int, mask: int) -> int:
    """The sum of the nonzero ``terms`` through q^trunc, times q^-low and
    divided by L = prod (1-q^m)^clear[m], at q = 2^base, modulo
    2^(base K) = mask + 1, K = trunc + 1 - low; every term's shift must be
    at least ``low``.  A pole term raises PoleError.

    q -> 2^base maps Z[[q]] / q^K into Z / 2^(base K) as a ring
    homomorphism, in which every (1-q^m) is a unit, so no digit needs to
    stay below 2^base on the way.  The terms are summed as one chain from
    the first to the last: with t_k = c_k q^(s_k) U_k, the integer holds
    B_k = (U_(k-1)/U_k) B_(k-1) + c_k q^(s_k), and the sum is U_last / L
    times B_last, each ratio applied by :func:`_packed_apply` from the
    chain's lowest digit so far.  Forward, a denominator that grows with k
    enters the ratio as a factor, one shift-subtract-mask, where walking
    back it would be a division, (reach // m).bit_length() shift-add-masks.
    A sum does not depend on the order of its terms, and every step is a
    unit of Z / 2^(base K), so either walk gives the same residue.  The
    result is congruent to the image; ``mask`` reduces it."""
    top = lo = trunc - low               # the digit of q^trunc
    x, head = 0, None
    for t in terms:
        z = t.powers.get(0)
        if z:
            if z < 0:
                raise PoleError(f"pole term reached the accumulator: {t!r}")
            continue
        s = t.shift - low
        if s > top:
            continue
        if head is not None:
            x = _packed_apply(x, _ratio(t.powers, head), top - lo, base, mask)
        x += t.coeff << base * s
        if s < lo:
            lo = s
        head = t.powers
    return 0 if head is None else _packed_apply(x, _ratio(clear, head), top - lo, base, mask)


def packed_values(sides: list[tuple[list, int]], trunc: int, low: int,
                  clear: dict) -> tuple[int, list]:
    """(b, residues) for a check of signed combinations of the sides, each
    given as (terms, euler) and used at most once in a combination, every
    coefficient an int, through q^trunc.  A pole term raises PoleError.

    With (low, clear) the s_min and L of :func:`shared_unit`,
    E = (q; q)_inf and e_max the most divisions by E a side owes, a side's
    residue is the image modulo 2^(bK), K = trunc + 1 - s_min, of its value
    through q^trunc times q^-s_min L^-1 E^e_max: its :func:`packed_sum`,
    which sums the terms divided by L, times E once for each division it
    owes fewer than e_max, one shift-add per pentagonal exponent below K.
    These multipliers are units with constant term 1, shared by every side,
    so they move neither equality through q^trunc nor the first exponent
    where a combination differs from 0.  The terms are cleared polynomials,
    and E modulo q^K has P coefficients, all 0 or +-1, so with H the
    majorant of :func:`point_values` over the terms at or below q^trunc,
    each side's share times P^(e_max - euler), and b its bit length, every
    coefficient below q^K of a combination is below 2^b in absolute value:
    its residue is 0 exactly when the combination is 0 through q^trunc, and
    otherwise its lowest set bit lies in the digit of its first nonzero
    exponent, as at :func:`point_values`."""
    width = max(trunc + 1 - low, 0)
    # the exponents below K of E = sum_k (-1)^k q^(k(3k-1)/2), with their signs
    pentagonal = [(0, 1)] + [(e, -1 if odd else 1) for g, h, odd in
                             _pentagonal_pairs(width - 1) for e in (g, h) if e < width]
    most = max(euler for _, euler in sides)
    drop, bound = sum(clear.values()), 0
    for terms, euler in sides:
        weight = len(pentagonal) ** (most - euler)
        for t in terms:
            z = t.powers.get(0)
            if z:                # a zero term, left out, or a pole: the first one raises
                if z < 0:
                    raise PoleError(f"pole term reached the accumulator: {t!r}")
                continue
            if t.shift <= trunc:
                bound += weight * abs(t.coeff) << (sum(t.powers.values()) - drop)
    base = max(bound.bit_length(), 1)
    mask = (1 << base * width) - 1
    values = []
    for terms, euler in sides:
        x = packed_sum(terms, trunc, clear, base, low, mask)
        for _ in range(most - euler):        # times E^(e_max - euler)
            x = sum(sign * x << base * g for g, sign in pentagonal) & mask
        values.append(x & mask)
    return base, values

"""The identity registry.

Parameter conventions.  Every identity is stated for monomial parameters
that are pure powers of q; the registry works with their exponent offsets:

    a = q^(n+1),  b = q^(l+1),  c = q^(m+1),  d = q^(u+1),  e = q^(v+1)

with offsets l, m, n, u, v >= 0 (some records need u >= 1 or v >= 1 so a
(q; q)_{u-1}-type symbol stays meaningful).  Four-parameter records reuse
the subset of names matching their written form.  A record's default grid,
one ``Axis(name, low, high)`` per parameter, declares its parameters: their
order, and each floor as the axis start.  A side that is identically 0 is
``Side()``, the empty sum.

Every side sums one ``Sum``.  Its index strings and argument strings are
literal transcriptions of the summand: e.g. den entry "l-k" is a
(q; q)_{l-k} in the denominator, and an argnum entry "-n" is a
(q^{-n}; q)_k = (q/a; q)_k factor.  The finite (q; q)_j quotients use index
slots and declare their k-range; the bilateral five- and four-parameter
transformations use argument slots, which give the k-range.
"""

from __future__ import annotations

from .framework import (
    Axis,
    IdentityRecord,
    Prefactor,
    Side,
    Sum,
)


def _grid(*axes) -> tuple[Axis, ...]:
    return tuple(Axis(*axis) for axis in axes)


REGISTRY: dict[str, IdentityRecord] = {}


def _add(record: IdentityRecord) -> None:
    if record.ident in REGISTRY:
        raise ValueError(f"duplicate identity id {record.ident}")
    REGISTRY[record.ident] = record


# ---------------------------------------------------------------------------
# single-parameter finite Rogers-Ramanujan polynomials
# ---------------------------------------------------------------------------

_add(IdentityRecord(
    ident="ANDREWS1",
    lhs=Side(sum=Sum(quad=(2, 0), num=(), den=("k", "n-k"),
                     support=("0", "n"))),
    rhs=Side(sum=Sum(quad=(5, -1), alt=True, num=(),
                     den=("n-k", "n+k"), support=("-n", "n"))),
    citation="finite first Rogers-Ramanujan sum = bilateral pentagonal-weight sum",
    default_grid=_grid(("n", 0, 12)),
    default_trunc=60,
))

_add(IdentityRecord(
    ident="ANDREWS2",
    lhs=Side(sum=Sum(quad=(2, 2), num=(), den=("k", "n-k"),
                     support=("0", "n"))),
    rhs=Side(sum=Sum(quad=(5, -3), alt=True, num=(),
                     den=("n-k", "n+k"), support=("-n", "n"))),
    citation="finite second Rogers-Ramanujan sum = bilateral pentagonal-weight sum",
    default_grid=_grid(("n", 0, 12)),
    default_trunc=60,
))

# ---------------------------------------------------------------------------
# five-parameter (q;q)-quotient identities
# ---------------------------------------------------------------------------

_LMNRS_LHS_DEN = ("k", "l-k", "m-k", "n-k", "u+k", "v+k")
_SYM5 = ("-min(l,m,n,u,v)", "min(l,m,n,u,v)")

_add(IdentityRecord(
    ident="LMNRS1",
    lhs=Side(sum=Sum(quad=(2, 0),
                     num=("l+m+n-k", "u+v+k"),
                     den=_LMNRS_LHS_DEN,
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, -1), alt=True,
                     num=("l+m", "l+n", "m+n", "u", "v", "u+v"),
                     den=("l-k", "m-k", "n-k", "u-k", "v-k",
                          "l+k", "m+k", "n+k", "u+k", "v+k"),
                     support=_SYM5)),
    citation="five-parameter refinement of the first finite Rogers-Ramanujan identity",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3), ("v", 0, 3)),
))

_add(IdentityRecord(
    ident="LMNRS2",
    lhs=Side(sum=Sum(quad=(2, 2),
                     num=("l+m+n-k+1", "u+v+k+1"),
                     den=("k", "l-k", "m-k", "n-k", "u+k+1", "v+k+1"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, 3), alt=True,
                     num=("l+m+1", "m+n+1", "l+n+1", "u", "v", "u+v+1"),
                     den=("l-k", "m-k", "n-k", "u-k", "v-k",
                          "l+k+1", "m+k+1", "n+k+1", "u+k+1", "v+k+1"),
                     support=("-min(l,m,n,u,v)-1", "min(l,m,n,u,v)"))),
    citation="five-parameter refinement of the second finite Rogers-Ramanujan identity",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3), ("v", 0, 3)),
))

_add(IdentityRecord(
    ident="LMNRS3",
    lhs=Side(sum=Sum(quad=(2, 0),
                     num=("l+m+n-k", "u+v+k-1"),
                     den=_LMNRS_LHS_DEN,
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, -1), alt=True,
                     num=("l+m", "l+n", "m+n", "u-1", "v-1", "u+v-1"),
                     den=("l-k", "m-k", "n-k", "u-k", "v-k",
                          "l+k", "m+k", "n+k", "u+k-1", "v+k-1"),
                     support=_SYM5)),
    citation="five-parameter companion with down-shifted final symbols, even weight",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 1, 3), ("v", 1, 3)),
))

_add(IdentityRecord(
    ident="LMNRS4",
    lhs=Side(sum=Sum(quad=(2, 2),
                     num=("l+m+n-k", "u+v+k-1"),
                     den=_LMNRS_LHS_DEN,
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, -3), alt=True,
                     num=("l+m", "l+n", "m+n", "u-1", "v-1", "u+v-1"),
                     den=("l-k", "m-k", "n-k", "u-k", "v-k",
                          "l+k", "m+k", "n+k", "u+k-1", "v+k-1"),
                     support=_SYM5)),
    citation="five-parameter companion with down-shifted final symbols, odd weight",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 1, 3), ("v", 1, 3)),
))

# symmetry rewritings of the five-parameter sums

_add(IdentityRecord(
    ident="LMNRS5",
    lhs=Side(pre=Prefactor(qn_den=("l+m", "l+n", "u", "v")),
             sum=Sum(quad=(2, 0),
                     num=("l+m+n-k", "u+v+k"),
                     den=_LMNRS_LHS_DEN,
                     support=("0", "min(l,m,n)"))),
    rhs=Side(pre=Prefactor(qn_den=("l+u", "l+v", "m", "n")),
             sum=Sum(quad=(2, 0),
                     num=("l+u+v-k", "m+n+k"),
                     den=("k", "l-k", "u-k", "v-k", "m+k", "n+k"),
                     support=("0", "min(l,u,v)"))),
    citation="normalised even-weight sum is symmetric under swapping (m,n) with (u,v)",
    default_grid=_grid(("l", 0, 2), ("m", 0, 2), ("n", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="LMNRS6",
    lhs=Side(pre=Prefactor(qn_den=("l+m+1", "l+n+1", "u", "v")),
             sum=Sum(quad=(2, 2),
                     num=("l+m+n-k+1", "u+v+k+1"),
                     den=("k", "l-k", "m-k", "n-k", "u+k+1", "v+k+1"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(pre=Prefactor(qn_den=("l+u+1", "l+v+1", "m", "n")),
             sum=Sum(quad=(2, 2),
                     num=("l+u+v-k+1", "m+n+k+1"),
                     den=("k", "l-k", "u-k", "v-k", "m+k+1", "n+k+1"),
                     support=("0", "min(l,u,v)"))),
    citation="normalised odd-weight sum is symmetric under swapping (m,n) with (u,v)",
    default_grid=_grid(("l", 0, 2), ("m", 0, 2), ("n", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

# ---------------------------------------------------------------------------
# four-parameter specialisations (v -> infinity)
# ---------------------------------------------------------------------------

_add(IdentityRecord(
    ident="LMNR1",
    lhs=Side(sum=Sum(quad=(2, 0), num=("l+m+n-k",),
                     den=("k", "l-k", "m-k", "n-k", "u+k"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, -1), alt=True,
                     num=("l+m", "l+n", "m+n", "u"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k", "m+k", "n+k", "u+k"),
                     support=("-min(l,m,n,u)", "min(l,m,n,u)"))),
    citation="four-parameter even-weight quotient identity",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3)),
))

_add(IdentityRecord(
    ident="LMNR2",
    lhs=Side(sum=Sum(quad=(2, 2), num=("l+m+n-k+1",),
                     den=("k", "l-k", "m-k", "n-k", "u+k+1"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, 3), alt=True,
                     num=("l+m+1", "l+n+1", "m+n+1", "u"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k+1", "m+k+1", "n+k+1", "u+k+1"),
                     support=("-min(l,m,n,u)-1", "min(l,m,n,u)"))),
    citation="four-parameter odd-weight quotient identity",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3)),
))

_add(IdentityRecord(
    ident="LMNR3",
    lhs=Side(sum=Sum(quad=(2, 0), num=("l+m+n-k",),
                     den=("k", "l-k", "m-k", "n-k", "u+k"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, -1), alt=True,
                     num=("l+m", "l+n", "m+n", "u-1"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k", "m+k", "n+k", "u+k-1"),
                     support=("-min(l,m,n,u)", "min(l,m,n,u)"))),
    citation="four-parameter even-weight identity, down-shifted final symbol",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 1, 3)),
))

_add(IdentityRecord(
    ident="LMNR4",
    lhs=Side(sum=Sum(quad=(2, 2), num=("l+m+n-k",),
                     den=("k", "l-k", "m-k", "n-k", "u+k"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, -3), alt=True,
                     num=("l+m", "l+n", "m+n", "u-1"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k", "m+k", "n+k", "u+k-1"),
                     support=("-min(l,m,n,u)", "min(l,m,n,u)"))),
    citation="four-parameter odd-weight identity, down-shifted final symbol",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 1, 3)),
))

# q -> 1/q images of the four-parameter identities (triangular weights)

_add(IdentityRecord(
    ident="QINV1",
    lhs=Side(sum=Sum(quad=(2, 0), lin="u", num=("l+m+n-k",),
                     den=("k", "l-k", "m-k", "n-k", "u+k"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(3, -1), alt=True,
                     num=("l+m", "m+n", "l+n", "u"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k", "m+k", "n+k", "u+k"),
                     support=("-min(l,m,n,u)", "min(l,m,n,u)"))),
    citation="inverted-base image of the four-parameter even-weight identity",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3)),
))

_add(IdentityRecord(
    ident="QINV2",
    lhs=Side(sum=Sum(quad=(2, 0), lin="u+1", num=("l+m+n-k+1",),
                     den=("k", "l-k", "m-k", "n-k", "u+k+1"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(3, 1), alt=True,
                     num=("l+m+1", "m+n+1", "l+n+1", "u"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k+1", "m+k+1", "n+k+1", "u+k+1"),
                     support=("-min(l,m,n,u)-1", "min(l,m,n,u)"))),
    citation="inverted-base image of the four-parameter odd-weight identity",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3)),
))

_add(IdentityRecord(
    ident="QINV3",
    lhs=Side(sum=Sum(quad=(2, 0), lin="u", num=("l+m+n-k",),
                     den=("k", "l-k", "m-k", "n-k", "u+k"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(3, -1), alt=True,
                     num=("l+m", "m+n", "l+n", "u-1"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k", "m+k", "n+k", "u+k-1"),
                     support=("-min(l,m,n,u)", "min(l,m,n,u)"))),
    citation="inverted-base identity with down-shifted final symbol, even weight",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 1, 3)),
))

_add(IdentityRecord(
    ident="QINV4",
    lhs=Side(sum=Sum(quad=(2, 0), lin="u-1", num=("l+m+n-k",),
                     den=("k", "l-k", "m-k", "n-k", "u+k"),
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(3, 1), alt=True,
                     num=("l+m", "m+n", "l+n", "u-1"),
                     den=("l-k", "m-k", "n-k", "u-k",
                          "l+k", "m+k", "n+k", "u+k-1"),
                     support=("-min(l,m,n,u)", "min(l,m,n,u)"))),
    citation="inverted-base identity with down-shifted final symbol, odd weight",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 1, 3)),
))

# ---------------------------------------------------------------------------
# two- and one-parameter limits
# ---------------------------------------------------------------------------

_add(IdentityRecord(
    ident="EULERMN1",
    lhs=Side(pre=Prefactor(inf_den=("1",)),
             sum=Sum(quad=(2, 0), num=(), den=("k", "n-k", "m-k"),
                     support=("0", "min(m,n)"))),
    rhs=Side(pre=Prefactor(qn_den=("m", "n")),
             sum=Sum(quad=(2, 0), num=("m+n+k",), den=("k", "m+k", "n+k"),
                     support=("0", "*"))),
    citation="two-parameter even-weight limit relating terminating and one-sided sums",
    default_grid=_grid(("m", 0, 6), ("n", 0, 6)),
))

_add(IdentityRecord(
    ident="EULERMN2",
    lhs=Side(pre=Prefactor(inf_den=("1",)),
             sum=Sum(quad=(2, 2), num=(), den=("k", "n-k", "m-k"),
                     support=("0", "min(m,n)"))),
    rhs=Side(pre=Prefactor(qn_den=("m", "n")),
             sum=Sum(quad=(2, 2), num=("m+n+k+1",),
                     den=("k", "m+k+1", "n+k+1"),
                     support=("0", "*"))),
    citation="two-parameter odd-weight limit relating terminating and one-sided sums",
    default_grid=_grid(("m", 0, 6), ("n", 0, 6)),
))

_add(IdentityRecord(
    ident="EULERN1",
    lhs=Side(pre=Prefactor(inf_den=("1",)),
             sum=Sum(quad=(2, 0), num=(), den=("k", "n-k"),
                     support=("0", "n"))),
    rhs=Side(pre=Prefactor(qn_den=("n",)),
             sum=Sum(quad=(2, 0), num=(), den=("k", "n+k"),
                     support=("0", "*"))),
    citation="one-parameter even-weight limit identity",
    default_grid=_grid(("n", 0, 8)),
))

_add(IdentityRecord(
    ident="EULERN2",
    lhs=Side(pre=Prefactor(inf_den=("1",)),
             sum=Sum(quad=(2, 2), num=(), den=("k", "n-k"),
                     support=("0", "n"))),
    rhs=Side(pre=Prefactor(qn_den=("n",)),
             sum=Sum(quad=(2, 2), num=(), den=("k", "n+k+1"),
                     support=("0", "*"))),
    citation="one-parameter odd-weight limit identity",
    default_grid=_grid(("n", 0, 8)),
))

# ---------------------------------------------------------------------------
# five-parameter bilateral transformations
# a = q^(n+1), b = q^(l+1), c = q^(m+1), d = q^(u+1), e = q^(v+1)
# ---------------------------------------------------------------------------

_ABCDE_NUM = ("-n", "-l", "-m", "-u", "-v")

_PRE1 = Prefactor(inf_num=("1", "n+l+1", "l+m+1", "n+m+1"),
                  inf_den=("n+1", "l+1", "m+1", "n+l+m+1"))
_PRE2 = Prefactor(inf_num=("1", "n+l+2", "l+m+2", "n+m+2"),
                  inf_den=("n+2", "l+2", "m+2", "n+l+m+2"))
_PRE6 = Prefactor(inf_num=("1", "n+l+2", "l+m+2", "n+m+2"),
                  inf_den=("n+1", "l+2", "m+2", "n+l+m+2"))

_add(IdentityRecord(
    ident="ABCDE1",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+2",
                     argnum=_ABCDE_NUM,
                     argden=("n+1", "l+1", "m+1", "u+1", "v+1"))),
    rhs=Side(pre=_PRE1,
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m", "u+v+1"),
                     argden=("1", "-n-l-m", "u+1", "v+1"))),
    citation="bilateral five-parameter transformation, unshifted denominators",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE2",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+4",
                     argnum=_ABCDE_NUM,
                     argden=("n+2", "l+2", "m+2", "u+2", "v+2"))),
    rhs=Side(pre=_PRE2,
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m", "u+v+2"),
                     argden=("1", "-n-l-m-1", "u+2", "v+2"))),
    citation="bilateral five-parameter transformation, up-shifted denominators",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE3",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+2",
                     argnum=_ABCDE_NUM,
                     argden=("n+1", "l+1", "m+1", "u", "v"),
                     flips=((3, 3), (4, 4)))),
    rhs=Side(pre=_PRE1,
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m", "u+v"),
                     argden=("1", "-n-l-m", "u+1", "v+1"))),
    citation="bilateral transformation with two down-shifted denominators, weight one",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE4",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+1",
                     argnum=_ABCDE_NUM,
                     argden=("n+1", "l+1", "m+1", "u", "v"),
                     flips=((3, 3), (4, 4)))),
    rhs=Side(pre=_PRE1,
             sum=Sum(quad=(0, 0), lin="2",
                     argnum=("-n", "-l", "-m", "u+v"),
                     argden=("1", "-n-l-m", "u+1", "v+1"))),
    citation="bilateral transformation with two down-shifted denominators, weight two",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE6_1",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+4",
                     argnum=_ABCDE_NUM,
                     argden=("n+1", "l+2", "m+2", "u+2", "v+2"))),
    rhs=Side(pre=_PRE6,
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m", "u+v+2"),
                     argden=("1", "-n-l-m-1", "u+2", "v+2"))),
    citation="mixed-shift bilateral transformation, weight one",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE6_2",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+4",
                     argnum=_ABCDE_NUM,
                     argden=("n+2", "l+2", "m+2", "u+2", "v+1"))),
    rhs=Side(pre=Prefactor(inf_num=_PRE2.inf_num, inf_den=_PRE2.inf_den,
                           bin_den=("v+1",)),
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m", "u+v+2"),
                     argden=("1", "-n-l-m-1", "u+2", "v+2"))),
    citation="mixed-shift bilateral transformation with one unshifted denominator",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE6_3",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+5",
                     argnum=_ABCDE_NUM,
                     argden=("n+1", "l+2", "m+2", "u+2", "v+2"))),
    rhs=Side(pre=Prefactor(inf_num=_PRE6.inf_num, inf_den=_PRE6.inf_den,
                           mono="n"),
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m", "u+v+2"),
                     argden=("1", "-n-l-m-1", "u+2", "v+2"))),
    citation="mixed-shift bilateral transformation, weight shifted by the first parameter",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE6_4",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+5",
                     argnum=_ABCDE_NUM,
                     argden=("n+2", "l+2", "m+2", "u+2", "v+1"))),
    rhs=Side(pre=Prefactor(inf_num=_PRE2.inf_num, inf_den=_PRE2.inf_den,
                           mono="v", bin_den=("v+1",)),
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m", "u+v+2"),
                     argden=("1", "-n-l-m-1", "u+2", "v+2"))),
    citation="mixed-shift bilateral transformation, weight shifted by the last parameter",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

_add(IdentityRecord(
    ident="ABCDE60",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+5",
                     argnum=_ABCDE_NUM,
                     argden=("n+2", "l+2", "m+2", "u+2", "v+2"))),
    rhs=Side(),
    citation="bilateral sum with fully up-shifted denominators vanishes identically",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

# ---------------------------------------------------------------------------
# four-parameter bilateral transformations with triangular q-powers
# ---------------------------------------------------------------------------

_add(IdentityRecord(
    ident="BCDE1",
    lhs=Side(sum=Sum(quad=(1, -5), alt=True, lin="n+l+m+u+4",
                     argnum=("-n", "-l", "-m", "-u"),
                     argden=("n+1", "l+1", "m+1", "u+1"))),
    rhs=Side(pre=Prefactor(inf_num=("1", "l+m+1"), inf_den=("l+1", "m+1")),
             sum=Sum(quad=(0, 0), lin="l+m+1",
                     argnum=("-l", "-m", "n+u+1"),
                     argden=("1", "u+1", "n+1"))),
    citation="four-parameter alternating bilateral transformation, unshifted denominators",
    default_grid=_grid(("n", 0, 3), ("l", 0, 3), ("m", 0, 3), ("u", 0, 3)),
))

_add(IdentityRecord(
    ident="BCDE2",
    lhs=Side(sum=Sum(quad=(1, -1), alt=True, lin="l+m+u+v+4",
                     argnum=("-l", "-m", "-u", "-v"),
                     argden=("l+2", "m+2", "u+2", "v+2"))),
    rhs=Side(pre=Prefactor(inf_num=("1", "l+m+2"), inf_den=("l+2", "m+2")),
             sum=Sum(quad=(0, 0), lin="l+m+2",
                     argnum=("-l", "-m", "u+v+2"),
                     argden=("1", "u+2", "v+2"))),
    citation="four-parameter alternating bilateral transformation, up-shifted denominators",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("u", 0, 3), ("v", 0, 3)),
))

_add(IdentityRecord(
    ident="COR52A",
    lhs=Side(sum=Sum(quad=(1, -5), alt=True, lin="l+m+u+v+4",
                     argnum=("-l", "-m", "-u", "-v"),
                     argden=("l+1", "m+1", "u", "v"),
                     flips=((2, 2), (3, 3)))),
    rhs=Side(pre=Prefactor(inf_num=("1", "l+m+1"), inf_den=("l+1", "m+1")),
             sum=Sum(quad=(0, 0), lin="l+m+1",
                     argnum=("-l", "-m", "u+v"),
                     argden=("1", "u+1", "v+1"))),
    citation="alternating bilateral transformation with two down-shifted denominators",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("u", 0, 3), ("v", 0, 3)),
))

_add(IdentityRecord(
    ident="COR52B",
    lhs=Side(sum=Sum(quad=(1, -7), alt=True, lin="l+m+u+v+4",
                     argnum=("-l", "-m", "-u", "-v"),
                     argden=("l+1", "m+1", "u", "v"),
                     flips=((2, 2), (3, 3)))),
    rhs=Side(pre=Prefactor(inf_num=("1", "l+m+1"), inf_den=("l+1", "m+1")),
             sum=Sum(quad=(0, 0), lin="l+m+2",
                     argnum=("-l", "-m", "u+v"),
                     argden=("1", "u+1", "v+1"))),
    citation="alternating bilateral transformation, steeper triangular weight",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("u", 0, 3), ("v", 0, 3)),
))

# ---------------------------------------------------------------------------
# the quotient forms used to pass between the bilateral families
# ---------------------------------------------------------------------------

_add(IdentityRecord(
    ident="REMARK31",
    lhs=Side(sum=Sum(quad=(2, 0),
                     num=("l+m+n-k", "u+v+k"),
                     den=_LMNRS_LHS_DEN,
                     support=("0", "min(l,m,n)"))),
    rhs=Side(sum=Sum(quad=(5, -1), alt=True,
                     num=("l+m", "l+n", "m+n", "u", "v-1", "u+v"),
                     den=("l-k", "m-k", "n-k", "u-k", "v-k",
                          "l+k", "m+k", "n+k", "u+k", "v+k-1"),
                     support=_SYM5)),
    citation="even-weight sum against the singly down-shifted bilateral form",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3), ("v", 1, 3)),
))

_add(IdentityRecord(
    ident="SEC33FINAL",
    lhs=Side(sum=Sum(quad=(5, -1), alt=True,
                     num=("l+m", "l+n", "m+n", "u", "v-1", "u+v"),
                     den=("l-k", "m-k", "n-k", "u-k", "v-k",
                          "l+k", "m+k", "n+k", "u+k", "v+k-1"),
                     support=_SYM5)),
    rhs=Side(sum=Sum(quad=(2, 0),
                     num=("l+m+n-k", "u+v+k"),
                     den=_LMNRS_LHS_DEN,
                     support=("0", "min(l,m,n)"))),
    citation="singly down-shifted bilateral form against the even-weight sum",
    default_grid=_grid(("l", 0, 3), ("m", 0, 3), ("n", 0, 3), ("u", 0, 3), ("v", 1, 3)),
))

_add(IdentityRecord(
    ident="SEC33PAIR",
    lhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+2",
                     argnum=_ABCDE_NUM,
                     argden=("n", "l+1", "m+1", "u+1", "v+1"),
                     flips=((0, 0),))),
    rhs=Side(sum=Sum(quad=(0, 0), lin="n+l+m+u+v+2",
                     argnum=_ABCDE_NUM,
                     argden=("n+1", "l+1", "m+1", "u+1", "v"),
                     flips=((4, 4),))),
    citation="down-shifting the first or the last denominator gives the same bilateral sum",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2), ("u", 0, 2), ("v", 0, 2)),
))

# ---------------------------------------------------------------------------
# three-parameter statements that fail (kept for the counterexample machinery)
# ---------------------------------------------------------------------------

_add(IdentityRecord(
    ident="LIU1",
    lhs=Side(sum=Sum(quad=(2, -4), lin="n+l+m+3",
                     argnum=("-n", "-l", "-m"),
                     argden=("n+1", "l+1", "m+1"))),
    rhs=Side(pre=_PRE1,
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m"),
                     argden=("1", "-n-l-m"))),
    citation="claimed three-parameter transformation, unshifted denominators (false)",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2)),
    expect="counterexample",
))

_add(IdentityRecord(
    ident="LIU2",
    lhs=Side(sum=Sum(quad=(2, 0), lin="n+l+m+3",
                     argnum=("-n", "-l", "-m"),
                     argden=("n+2", "l+2", "m+2"))),
    rhs=Side(pre=_PRE2,
             sum=Sum(quad=(0, 0), lin="1",
                     argnum=("-n", "-l", "-m"),
                     argden=("1", "-n-l-m-1"))),
    citation="claimed three-parameter transformation, up-shifted denominators (false)",
    default_grid=_grid(("n", 0, 2), ("l", 0, 2), ("m", 0, 2)),
    expect="counterexample",
))

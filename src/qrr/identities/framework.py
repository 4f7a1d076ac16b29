"""Declarative machinery for two-sided q-series identity records.

Every side in the registry sums one shape, a :class:`Sum`: over k, a sign
(-1)^k if asked, a quadratic power of q, and two kinds of slot, each a
q-shifted factorial (q^e; q)_n in the numerator or the denominator:

* index slots (q; q)_j, ``num``/``den``, whose index j is affine in the
  parameters and k, e.g.  q^{k^2} (q)_{l+m+n-k} / ((q)_k (q)_{l-k} ...);

* argument slots (q^a; q)_k, ``argnum``/``argden``, whose argument
  exponent a is affine in the parameters and whose index is k.

The paper's finite (q; q)_j quotients use index slots and the sums from
Watson's transformation and Bailey's method use argument slots.  A sum
declares its k-range, or derives it from its argument slots.

Every sum builds its terms as one chain of :class:`PochProduct` values:
a running product holds every slot of the term, and at each k only the
change of each index is multiplied in (one factor, updated in place, for
a slot whose index moves by one).  What the chain needs of a declaration
is compiled once per (sum, tag) and per (prefactor, tag), on first use: its
parameter-only exponents as one row, its (q; q)_j indices as a second row
over the parameters and k, and every site name.  So a side costs one
``eval`` for its prefactor, one for its sum's parameters and one per k.
Each (q; q)_j index passes through its site at every k, each argument
exponent once per evaluation, and each kept term is a copy of the running
product times its sign and power of q.  A check of term
lists takes its values by one rule, :func:`sum_sides`: every coefficient
is an int, and each side is one integer at q = 2^b, with no kernel pass.
Where the degree bound B satisfies B + 2 <= T and no side is divided by
(q; q)_inf, its terms are evaluated one by one (the per-term route);
otherwise the side is a residue modulo 2^(b(T + 1 - s_min)), the same
cleared terms summed as one chain over the ratios of consecutive terms,
from the first term to the last, on one packed integer (the packed route,
``pochhammer.packed_sum``).  A check with a coefficient that is not an int
is refused.  Only the windows of a MISMATCH and the public
:func:`eval_side_value` sum a side's terms in one coefficient buffer, with
:class:`~qrr.pochhammer.SeriesAccumulator`.  A :class:`Prefactor`
(infinite Pochhammer quotients, (q; q)_a and single binomial denominators,
a monomial) can multiply the sum.  It is assembled as one
:class:`PochProduct` before the sum, where numerator and denominator
infinite products cancel to a few finite ranges of (1-q^m) factors, and the
term chain starts from it: every term carries the prefactor, whose factors
cancel against the term's own before any kernel pass, and
:func:`side_terms` hands a side back as that term list.  A denominator
(q^b; q)_inf left without a partner is written (q; q)_(b-1) / (q; q)_inf:
the finite part joins the product, and the side is divided by (q; q)_inf
through Euler's pentagonal series: on the packed route the other sides are
multiplied by its image, and a summed side is divided in one pass of the
pentagonal recurrence.  An open-ended
sum runs until its own q-power passes q^(T - mono), so that with the
prefactor's monomial q^mono every term that reaches q^T is kept.  A
:class:`Side` with no sum is the empty sum, 0.  A record's parameters are
the axes of its default grid, each an :class:`Axis` (name, low, high) whose
low is the parameter's floor.  Writing the sides this way keeps each record
a direct transcription of its printed form, and lets the evaluator expose
every exponent in every record as a named "site" that tests can perturb to
confirm the verification actually bites.

The truncation order T is an argument of every evaluation; an
:class:`EvalCtx` carries only the perturbations, and every unperturbed
evaluation shares the one context :data:`UNPERTURBED`.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass
from itertools import islice
from types import CodeType
from typing import Mapping, NamedTuple, Sequence

from ..pochhammer import (PochProduct, PoleError, div_euler, packed_values, point_values,
                          shared_unit, sum_terms)
from ..series import NeedsLaurent, SeriesError


class UnknownIdentity(SeriesError):
    """Raised when an identity id is not in the registry."""


class EngineError(SeriesError):
    """An identity side could not be evaluated as written."""


# ---------------------------------------------------------------------------
# affine expressions:  l+m+n-k+1,  -min(l,m,n,u,v)-1,  2,  ...
# ---------------------------------------------------------------------------


_AFFINE_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub,
                 ast.UAdd, ast.USub, ast.Name, ast.Load)
# min(x) of one argument is x; the builtin would try to iterate over x
_AFFINE_GLOBALS = {"__builtins__": {}, "min": lambda *args: min(args)}


def _affine_node(node: ast.AST) -> bool:
    if isinstance(node, _AFFINE_NODES):
        return True
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "min" and bool(node.args) and not node.keywords)


@functools.cache
def parse_affine(s: str) -> CodeType:
    """Compile an affine expression written in Python syntax: integers,
    names, unary and binary + and -, and min(...) of one or more of them.
    ``min`` and ``__builtins__`` are not names a value can be read from.
    Anything else raises ValueError."""
    try:
        tree = ast.parse(s, mode="eval")
    except SyntaxError:
        raise ValueError(f"malformed affine expression {s!r}") from None
    callees = set()
    for node in ast.walk(tree):
        if not _affine_node(node):
            raise ValueError(
                f"{type(node).__name__} not allowed in affine expression {s!r}")
        if isinstance(node, ast.Call):
            callees.add(node.func)
        elif (isinstance(node, ast.Name) and node.id in _AFFINE_GLOBALS
              and node not in callees):
            raise ValueError(f"bare {node.id!r} not allowed in affine expression {s!r}")
    return compile(tree, "<affine>", "eval")


def eval_affine(s: str, env: Mapping[str, int]) -> int:
    return eval(parse_affine(s), _AFFINE_GLOBALS, env)


@functools.cache
def parse_affine_row(exprs: tuple[str, ...]) -> CodeType:
    """Compile a tuple of affine expressions, each checked as by
    :func:`parse_affine`, into one code object that evaluates them all."""
    for s in exprs:
        parse_affine(s)
    row = ast.Tuple([ast.parse(s, mode="eval").body for s in exprs], ast.Load())
    return compile(ast.fix_missing_locations(ast.Expression(row)), "<affine>", "eval")


# ---------------------------------------------------------------------------
# evaluation context: perturbation sites
# ---------------------------------------------------------------------------


class EvalCtx:
    """Carries the exponent perturbations of one evaluation, if any.

    Every integer that enters a term — the power of q, each (q)_j index,
    each Pochhammer argument exponent — passes through :meth:`site` under a
    stable name.  ``mutations`` maps a site name to a shift d: a
    ``<tag>.qpow`` site moves by d*k, so that even a sum that happens to be
    identically zero is knocked off its cancellation, and any other site by
    d.  A ``recorder`` set collects the name of every site passed, and
    ``hits`` counts the passes of a perturbed one.
    """

    __slots__ = ("mutations", "recorder", "hits")

    def __init__(self, mutations: Mapping[str, int] | None = None,
                 recorder: set | None = None):
        self.mutations = dict(mutations) if mutations else {}
        self.recorder = recorder
        self.hits = 0

    def site(self, name: str, value: int, k: int = 0) -> int:
        if self.recorder is not None:
            self.recorder.add(name)
        d = self.mutations.get(name)
        if d is None:
            return value
        self.hits += 1
        return value + d * k if name.endswith(".qpow") else value + d


# the context of every unperturbed evaluation
UNPERTURBED = EvalCtx()


# ---------------------------------------------------------------------------
# side descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sum:
    """sum over k of  sign^k q^{(A k^2 + B k)/2 + lin*k}
    prod (q)_num / prod (q)_den * prod (q^a; q)_k / prod (q^b; q)_k.

    ``num``/``den`` are (q; q)_j slots whose index j is affine in the
    parameters and k; ``argnum``/``argden`` are (q^a; q)_k slots whose
    argument exponent a is affine in the parameters alone.  ``support`` is
    the inclusive k-range, its end "*" to run until the q-power passes the
    truncation order; None derives it from the argument slots.

    ``flips`` pairs an argnum slot with an argden slot whose arguments
    multiply to 1 (a = -b, i.e. (q/x; q)_k over (x/q; q)_k with x = q^(b+1)).
    As written the pair is the quotient it means wherever b != 0, since
    (1-q^-b)/(1-q^b) = -q^-b.  At b = 0 both arguments are q^0 and the
    quotient is a genuine 0/0; the pair is taken at its limit x -> q, which
    is 1 at k <= 0 and -1 at every k >= 1.
    """

    quad: tuple[int, int]            # (A, B) with (A k^2 + B k) always even
    num: tuple[str, ...] = ()
    den: tuple[str, ...] = ()
    argnum: tuple[str, ...] = ()
    argden: tuple[str, ...] = ()
    support: tuple[str, str] | None = None
    alt: bool = False                # include (-1)^k
    lin: str = "0"                   # extra k-linear exponent (affine in params)
    flips: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Prefactor:
    """A side-wide multiplier: a quotient of infinite Pochhammer products,
    divided by finite (q; q)_a and single binomials, times a monomial."""

    inf_num: tuple[str, ...] = ()    # (q^a; q)_inf factors
    inf_den: tuple[str, ...] = ()
    qn_den: tuple[str, ...] = ()     # divided by finite (q; q)_a
    bin_den: tuple[str, ...] = ()    # divided by single binomials (1 - q^a)
    mono: str = "0"                  # times q^a


@dataclass(frozen=True)
class Side:
    """A sum times a prefactor; either may be absent.  A side with no sum
    is the empty sum, 0, whatever its prefactor."""

    sum: Sum | None = None
    pre: Prefactor | None = None


# The largest value of any record parameter.  Every term of a side's support
# holds O(parameters) factors, so memory grows with their square; the
# default grids stop at 12.
MAX_PARAMETER = 200


def bounded_int(name: str, value, low: int | None = None,
                high: int | None = None) -> int:
    """``value`` if it is an int, not a bool, within the bounds given; else
    EngineError naming ``name``, the bounds and the value."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or low is not None and value < low or high is not None and value > high):
        bounds = ("" if low is None else f" >= {low}") + (
            "" if high is None else f" and at most {high}")
        raise EngineError(f"{name} must be an integer{bounds}, got {value!r}")
    return value


class Axis(NamedTuple):
    """One parameter of a record and its default grid axis low..high; low
    is also the parameter's floor."""

    name: str
    low: int
    high: int


@dataclass(frozen=True)
class IdentityRecord:
    """A registered identity; its parameters are the axes of its default
    grid, in order."""

    ident: str
    lhs: Side
    rhs: Side
    citation: str
    default_grid: tuple[Axis, ...]
    default_trunc: int = 40
    expect: str = "equal"            # "equal" | "counterexample"

    @property
    def params(self) -> tuple[Axis, ...]:
        return self.default_grid

    def side(self, name: str) -> Side:
        """The side called ``name``; raises EngineError unless it is "lhs"
        or "rhs"."""
        if name == "lhs":
            return self.lhs
        if name == "rhs":
            return self.rhs
        raise EngineError(f"side must be 'lhs' or 'rhs', got {name!r}")


@dataclass
class VerificationReport:
    """The verdict of one check, or of one certificate made of named checks."""

    ident: str
    params: dict
    trunc: int
    verdict: str                     # "EQUAL" | "MISMATCH"
    mismatch_index: int | None = None
    lhs_window: list | None = None   # [(exponent, coefficient), ...]
    rhs_window: list | None = None
    millis: float = 0.0              # wall time, stamped by engine.verify only
    checks: Sequence = ()            # [(name, "EQUAL" | "MISMATCH"), ...]

    @property
    def equal(self) -> bool:
        return self.verdict == "EQUAL"


# ---------------------------------------------------------------------------
# term construction
# ---------------------------------------------------------------------------


def _check_params(record: IdentityRecord, params: Mapping[str, int]) -> dict:
    env = {}
    for name, low, _ in record.params:
        if name not in params:
            raise EngineError(f"{record.ident}: missing parameter {name!r}")
        value = params[name]
        if type(value) is not int or value < low or value > MAX_PARAMETER:
            # the message is made only for a value that may be refused
            value = bounded_int(f"{record.ident}: parameter {name}", value, low,
                                MAX_PARAMETER)
        env[name] = value
    extra = set(params) - set(env)
    if extra:
        raise EngineError(f"{record.ident}: unexpected parameters {sorted(extra)}")
    return env


class _Plan(NamedTuple):
    """What the term chain of a sum needs of its declaration under one
    tag, compiled once by :func:`_plan`."""

    params: CodeType        # the row of :func:`_param_row`
    args: tuple[str, ...]   # the site names of argnum, then argden
    qpow: str               # the site name of the power of q
    index: CodeType | None  # num, then den, over the parameters and k; None if neither
    names: tuple[str, ...]  # their site names
    times: tuple[int, ...]  # 1 for num, -1 for den


@functools.cache
def _param_row(spec: Sum) -> CodeType:
    """Every exponent of a sum that depends on the parameters alone as one
    row: argnum, argden, ``lin``, then the declared support bounds but a
    "*"."""
    bounds = () if spec.support is None else tuple(s for s in spec.support if s != "*")
    return parse_affine_row(spec.argnum + spec.argden + (spec.lin,) + bounds)


@functools.cache
def _plan(spec: Sum, tag: str) -> _Plan:
    """The compiled plan of a sum's term chain under ``tag``, built once
    per (sum, tag): its rows, and every site name formatted."""
    def sites(kind: str, exprs: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(f"{tag}.{kind}[{s}]" for s in exprs)

    return _Plan(_param_row(spec), sites("argnum", spec.argnum) + sites("argden", spec.argden),
                 f"{tag}.qpow",
                 parse_affine_row(spec.num + spec.den) if spec.num or spec.den else None,
                 sites("num", spec.num) + sites("den", spec.den),
                 (1,) * len(spec.num) + (-1,) * len(spec.den))


def _quad_exponent(spec: Sum, lin: int, k: int) -> int:
    """(A k^2 + B k)/2 + lin*k, where lin is the value of ``spec.lin``."""
    a, b = spec.quad
    twice = a * k * k + b * k
    if twice % 2:
        raise EngineError(f"odd quadratic exponent {twice}/2 at k={k}")
    return twice // 2 + lin * k


def _valuation_kmax(spec: Sum, lin: int, kmin: int, trunc: int) -> int:
    """Last k whose q-power can still reach the truncation window, where
    lin is the value of ``spec.lin``.

    Only used for sums whose terms carry q^{(A k^2 + ...)} with A > 0, so the
    exponent is eventually strictly increasing in k.
    """
    if spec.quad[0] <= 0:
        raise EngineError("open-ended support requires a positive quadratic power")
    k = max(kmin, 0)
    prev = _quad_exponent(spec, lin, k)
    while True:
        nxt = _quad_exponent(spec, lin, k + 1)
        if prev > trunc and nxt > prev:
            return k
        k += 1
        prev = nxt


def _slots(spec: Sum, values: Sequence[int], names: tuple[str, ...],
           ctx: EvalCtx) -> tuple[list, int]:
    """The argument slots of a sum as written, from its evaluated
    :func:`_param_row`, each exponent passed through its site in ``names``,
    as (a, times) for (q^a; q)_k^times, and the number of flip pairs at
    q^0/q^0.  Such a pair is left out of the slots: as written it is 1 at
    every k, and it bounds no k."""
    if not names:
        return [], 0
    site = ctx.site
    num = [site(name, a) for name, a in zip(names, values)]
    den = num[len(spec.argnum):]
    del num[len(spec.argnum):]
    zeros = {i: j for i, j in spec.flips if num[i] == den[j] == 0}
    slots = [(a, 1) for i, a in enumerate(num) if i not in zeros]
    slots += [(b, -1) for j, b in enumerate(den) if j not in zeros.values()]
    return slots, len(zeros)


def _span(spec: Sum, values: Sequence[int], trunc: int, slots: Sequence) -> tuple[int, int]:
    """The inclusive k-range (kmin, kmax) of a sum, from its evaluated
    :func:`_param_row`: its declared ``support``, or else the range its
    argument ``slots``, as :func:`_slots` gives them, leave nonzero.

    Positive k survive until some numerator (q^a; q)_k with a <= 0 vanishes
    (k <= -a); negative k = -s survive while every denominator (q^b; q)_{-s}
    with b >= 1 still avoids its zero at s = b (s <= b - 1), so a (q; q)_k
    denominator keeps k >= 0.  A flip pair (q^-b; q)_k / (q^b; q)_k with
    b >= 1 thus runs over 1-b..b.  With no bound above, k runs until the
    q-power passes the truncation order.
    """
    n = len(spec.argnum) + len(spec.argden)
    lin, bounds = values[n], values[n + 1:]
    if spec.support is not None:
        return bounds[0], (bounds[1] if len(bounds) > 1
                           else _valuation_kmax(spec, lin, bounds[0], trunc))
    upper = [-a for a, times in slots if times > 0 and a <= 0]
    lower = [b - 1 for b, times in slots if times < 0 and b >= 1]
    kmax = min(upper) if upper else _valuation_kmax(spec, lin, 0, trunc)
    return -min(lower, default=0), kmax


def _sum_terms(spec: Sum, env: dict, ctx: EvalCtx, tag: str, trunc: int,
               start: PochProduct | None = None) -> list[PochProduct]:
    """The nonzero terms of a sum, each times ``start`` (by default 1),
    built as one chain from the sum's :func:`_plan` under ``tag``.

    One ``eval`` of the plan's parameter row gives every argument exponent,
    each then passed through its site, ``lin`` and the support bounds.  A
    running product starts as a copy of ``start`` and holds every slot of
    the term, and at each k only the change of each index is multiplied in
    with :meth:`PochProduct.step`, which makes a move by one in place: the
    (q)_j slot indices are evaluated together, one ``eval`` of the index
    row per k, each through its site, and (q)_a / (q)_a' =
    (q^(a'+1); q)_(a-a'); each argument slot
    (q^a; q)_k steps from the previous k, starting from index 0, where it
    is 1.  Each flip pair at q^0/q^0 flips the sign of every term at k >= 1.
    A sum does no per-k work for a slot kind it lacks.  Every sum built
    from a declaration, in the registry or not, is built here."""
    plan = _plan(spec, tag)
    values = eval(plan.params, _AFFINE_GLOBALS, env)
    slots, zeros = _slots(spec, values, plan.args, ctx)
    kmin, kmax = _span(spec, values, trunc, slots)
    lin = values[len(plan.args)]
    site, qpow, row, names, times = ctx.site, plan.qpow, plan.index, plan.names, plan.times
    if row is not None:
        index = [0] * len(names)     # the empty product has every (q)_0 = 1
        tenv = dict(env)
    run = PochProduct() if start is None else start.copy()
    step = run.step
    prev = 0
    out = []
    alt = spec.alt
    for k in range(kmin, kmax + 1):
        sign = -1 if alt and k & 1 else 1
        if zeros & 1 and k >= 1:
            sign = -sign
        shift = site(qpow, _quad_exponent(spec, lin, k), k)
        if row is not None:
            tenv["k"] = k
            for i, a in enumerate(eval(row, _AFFINE_GLOBALS, tenv)):
                a = site(names[i], a, k)
                if a != index[i]:
                    step(1, index[i], a, times[i])
                    index[i] = a
        for a, t in slots:
            step(a, prev, k, t)
        prev = k
        # the k-th term is sign * q^shift times the running product; a zero
        # product (a positive count of (1-q^0)) is left out and a pole raises
        z = run.powers.get(0)
        if z is not None and z < 0:
            raise PoleError(f"{tag}: pole at k={k} with {env}")
        if z is None:
            term = run.copy()
            term.coeff *= sign
            term.shift += shift
            out.append(term)
    return out


@functools.cache
def _prefactor_plan(pre: Prefactor, tag: str) -> tuple[CodeType, tuple[str, ...]]:
    """A prefactor's exponents under ``tag`` as one row, its monomial
    (unless it is "0"), inf_num, inf_den, qn_den and bin_den in order, and
    their site names; built once per (prefactor, tag)."""
    kinds = (("mono", () if pre.mono == "0" else (pre.mono,)), ("infnum", pre.inf_num),
             ("infden", pre.inf_den), ("qnden", pre.qn_den), ("binden", pre.bin_den))
    return (parse_affine_row(tuple(s for _, exprs in kinds for s in exprs)),
            tuple(f"{tag}.pre.{kind}[{s}]" for kind, exprs in kinds for s in exprs))


def _prefactor(pre: Prefactor, env: dict, ctx: EvalCtx,
               tag: str) -> tuple[PochProduct, int]:
    """A side's prefactor as one PochProduct, its monomial included, and
    the number of times the side is to be divided by (q; q)_inf.  Its
    exponents come from one ``eval`` of its :func:`_prefactor_plan`, each
    through its site.

    Pairing the sorted numerator and denominator infinite products leaves
    exact finite quotients (q^a; q)_inf / (q^b; q)_inf = (q^a; q)_(b-a).  An
    unpaired denominator is rewritten exactly as 1/(q^b; q)_inf =
    (q; q)_(b-1) / (q; q)_inf, for any b: the product takes (q; q)_(b-1),
    which cancels with the other factors, and b = 0 leaves (q; q)_(-1), a
    pole.  An unpaired numerator is refused, since a cut at q^T would be
    wrong on a side with negative powers of q.  A pole raises PoleError
    here, before any term is built.  Every factor's exponent is >= 0, so
    the product's shift is its monomial."""
    row, names = _prefactor_plan(pre, tag)
    site = ctx.site
    args = iter([site(name, a) for name, a in zip(names, eval(row, _AFFINE_GLOBALS, env))])

    def take(exprs: tuple[str, ...]) -> list[int]:
        return list(islice(args, len(exprs)))

    p = PochProduct()
    if pre.mono != "0":
        p.q(next(args))
    inf_num, inf_den = sorted(take(pre.inf_num)), sorted(take(pre.inf_den))
    qn_den, bin_den = take(pre.qn_den), take(pre.bin_den)
    if min(inf_num + inf_den + bin_den, default=0) < 0:
        raise NeedsLaurent(f"{tag}: prefactor factor with a negative q-exponent")
    if min(qn_den, default=0) < 0:
        raise EngineError(f"{tag}: prefactor (q; q)_n with n < 0")
    if len(inf_num) > len(inf_den):
        raise EngineError(f"{tag}: prefactor (q^a; q)_inf in the numerator has no "
                          f"denominator to pair with")

    for a, b in zip(inf_num, inf_den):
        p.poch(a, b - a)
    euler = inf_den[len(inf_num):]
    for b in euler:
        p.qn(b - 1)
    for a in qn_den:
        p.dqn(a)
    for a in bin_den:
        p.dfactor(a)
    if p.state == "pole":
        raise PoleError(f"{tag}: the prefactor has a (1 - q^0) in its denominator")
    return p, len(euler)


def side_terms(record: IdentityRecord, side_name: str, env: dict, trunc: int,
               ctx: EvalCtx = UNPERTURBED) -> tuple[list[PochProduct], int]:
    """(terms, euler) for one side: the nonzero terms of its sum, each times
    its prefactor, whose sum divided ``euler`` times by (q; q)_inf is the
    side through q^trunc, with the perturbations of ``ctx``."""
    side = record.side(side_name)
    start, euler = ((None, 0) if side.pre is None
                    else _prefactor(side.pre, env, ctx, side_name))
    if side.sum is None:
        return [], euler
    # each term carries the prefactor's q^mono, its shift, so a "*" support
    # runs until the sum's own q-power passes q^(trunc - mono)
    window = trunc - (0 if start is None else start.shift)
    return _sum_terms(side.sum, env, ctx, side_name, window, start), euler


def eval_side_value(record: IdentityRecord, side_name: str, env: dict, trunc: int,
                    ctx: EvalCtx = UNPERTURBED) -> tuple[int, list]:
    """(offset, coeffs) for one side: coeffs[i] is the coefficient of
    q^(offset+i), exact through q^trunc, with the perturbations of ``ctx``."""
    return side_value(*side_terms(record, side_name, env, trunc, ctx), trunc)


def side_value(terms: list[PochProduct], euler: int, trunc: int) -> tuple[int, list]:
    """The sum of a side's terms through q^trunc, divided ``euler`` times by
    (q; q)_inf, as (offset, coeffs)."""
    offset, buf = sum_terms(terms, trunc)
    for _ in range(euler):
        div_euler(buf)
    return offset, buf


def compare_side_values(lhs: tuple[int, list], rhs: tuple[int, list],
                        trunc: int):
    """None if equal through q^trunc, else (exponent, lhs_c, rhs_c) at the
    lowest exponent where the two differ.

    Two values held alike are equal; any others are padded to the
    exponents min(offsets)..trunc and walked to the first that differs."""
    if lhs == rhs:
        return None
    lo = min(lhs[0], rhs[0])
    for i, (ca, cb) in enumerate(zip(_aligned(lhs, lo, trunc), _aligned(rhs, lo, trunc))):
        if ca != cb:
            return lo + i, ca, cb
    return None


def _aligned(value: tuple[int, list], lo: int, hi: int) -> list:
    """The coefficients of q^lo..q^hi of ``value`` (lo <= its offset) as one
    list, zero wherever the buffer has no entry."""
    off, buf = value
    width = hi + 1 - lo
    out = buf[:max(hi + 1 - off, 0)]
    if off > lo:
        out = [0] * min(off - lo, max(width, 0)) + out
    if len(out) < width:
        out += [0] * (width - len(out))
    return out


def window(value: tuple[int, list], lo: int, hi: int) -> list:
    """The (exponent, coefficient) pairs of ``value`` at q^lo..q^hi."""
    off, buf = value
    return [(e, buf[e - off] if 0 <= e - off < len(buf) else 0)
            for e in range(lo, hi + 1)]


def compare(ident: str, params: dict, trunc: int, lhs: tuple[int, list],
            rhs: tuple[int, list]) -> VerificationReport:
    """Report on two values compared through q^trunc: EQUAL, or MISMATCH with
    the first differing exponent e and both sides over the same exponents,
    e-2..e+2 clipped to q^trunc and to a floor of q^0, or of the lower
    offset when a value extends to negative exponents."""
    mismatch = compare_side_values(lhs, rhs, trunc)
    if mismatch is None:
        return VerificationReport(ident, params, trunc, "EQUAL")
    e = mismatch[0]
    lo, hi = max(min(0, lhs[0], rhs[0]), e - 2), min(trunc, e + 2)
    return VerificationReport(ident, params, trunc, "MISMATCH", mismatch_index=e,
                              lhs_window=window(lhs, lo, hi),
                              rhs_window=window(rhs, lo, hi))


class Sums(NamedTuple):
    """The values of the sides of a check, as :func:`sum_sides` gives them:
    each an int at q = 2^base."""

    values: list     # each side's int, exact or a residue modulo ``modulus``
    depth: int       # the values decide the check through q^depth
    base: int        # b: the coefficient of q^(low+i) is the digit of 2^(b i)
    low: int         # s_min, the lowest shift of a nonzero term, or 0
    modulus: int     # 2^(base (depth + 1 - s_min)) on the packed route, or 0

    def residue(self, lhs: int, rhs: int) -> int:
        """lhs - rhs for two values: exact on the per-term route, reduced
        modulo ``modulus`` on the packed route.  Either way it is 0 exactly
        when the two are equal through q^depth."""
        d = lhs - rhs
        return d % self.modulus if self.modulus else d

    def first(self, d: int) -> int:
        """The first exponent where two values differ, from their nonzero
        :meth:`residue` ``d``: its lowest set bit lies in that exponent's
        digit, and d & -d is that bit for a negative d too."""
        return self.low + ((d & -d).bit_length() - 1) // self.base


def sum_sides(sides: Sequence[tuple[list, int]], trunc: int) -> Sums:
    """The values of the sides of a check, each given as (terms, euler),
    by one rule read off one :func:`shared_unit` scan of all their terms;
    a term whose coefficient is not an int raises EngineError naming it.

    No kernel pass is made: each value is an int at q = 2^base, and a
    combination of values is compared by its :meth:`Sums.residue`.  Unless
    some side is divided by (q; q)_inf, D times every term is a Laurent
    polynomial of degree at most B, the degree bound, so any integer
    combination of the sides is 0 or first differs from 0 at some q^e with
    e <= B.  So where B + 2 <= trunc and no side is divided by (q; q)_inf,
    the check is a Laurent polynomial identity, decided at depth B + 2,
    where a MISMATCH window ends at the latest: each value is the
    :func:`point_values` of the cleared terms, evaluated term by term, an
    exact int.  Any other check is decided through q^trunc by the residues
    of :func:`packed_values` modulo ``modulus``, 2^(base K) with
    K = trunc + 1 - s_min, each side's cleared terms summed over their
    ratios on one integer: both routes take the values of the same cleared
    terms, divided by the one clearing L of the scan."""
    lists, euler = [], 0
    for terms, e in sides:
        for t in terms:
            if type(t.coeff) is not int:
                raise EngineError(f"the coefficient {t.coeff!r} of {t!r} is not an int")
        lists.append(terms)
        euler |= e
    bound, low, clear = shared_unit(*lists)
    low = low or 0       # None when no term is nonzero, and every value is 0
    if not euler and bound is not None and bound + 2 <= trunc:
        base, values = point_values(lists, low, clear)
        return Sums(values, bound + 2, base, low, 0)
    base, values = packed_values(sides, trunc, low, clear)
    return Sums(values, trunc, base, low, 1 << base * max(trunc + 1 - low, 0))


def compare_sides(ident: str, params: dict, trunc: int,
                  *sides: tuple[list, int]) -> VerificationReport:
    """Report on each side but the last, in order, against the last, the
    sides given as (terms, euler): the first MISMATCH, as :func:`compare`
    reports on the true values of that pair, or else EQUAL.  Fewer than
    two sides compare nothing and raise EngineError.

    Every side is evaluated once, by :func:`sum_sides`.  Only a MISMATCH
    needs the true values, for its windows: the :meth:`Sums.first` exponent
    e of the pair's nonzero :meth:`Sums.residue` is where they first
    differ, and only that pair is summed, undivided, through
    q^min(trunc, e+2); if those sums differ first at any other q^e, the
    point and the sums disagree and EngineError is raised.  So the report
    is the one a sum through q^trunc gives."""
    if len(sides) < 2:
        raise EngineError(f"{ident}: a check needs two sides or more, got {len(sides)}")
    sums = sum_sides(sides, trunc)
    *values, rhs = sums.values
    for i, lhs in enumerate(values):
        if d := sums.residue(lhs, rhs):
            e = sums.first(d)
            rep = compare(ident, params, trunc, *(side_value(*side, min(trunc, e + 2))
                                                  for side in (sides[i], sides[-1])))
            if rep.mismatch_index != e:
                raise EngineError(f"{ident}: the point and the series disagree at {params}")
            return rep
    return VerificationReport(ident, params, trunc, "EQUAL")


def compare_checks(ident: str, params: dict, trunc: int, checks: list,
                   sums: Sums) -> VerificationReport:
    """Report on a certificate: each (name, lhs, rhs) in ``checks``, two
    values made from the values of ``sums``, one :func:`sum_sides` call,
    is compared by its :meth:`Sums.residue` and listed with its verdict;
    the report is EQUAL only if every check is."""
    verdicts = [(name, "MISMATCH" if sums.residue(lhs, rhs) else "EQUAL")
                for name, lhs, rhs in checks]
    ok = all(v == "EQUAL" for _, v in verdicts)
    return VerificationReport(ident, params, trunc, "EQUAL" if ok else "MISMATCH",
                              checks=verdicts)

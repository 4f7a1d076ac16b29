"""Public verification operations over the identity registry."""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import islice, product as _cartesian
from typing import Iterable, Iterator

from ..pochhammer import (
    PochProduct,
    rr_product_side as _rr_product,
    sum_terms,
)
from ..series import default_truncation, power_series
from .catalog import REGISTRY
from .framework import (
    UNPERTURBED,
    EngineError,
    EvalCtx,
    IdentityRecord,
    Sum,
    UnknownIdentity,
    VerificationReport,
    _AFFINE_GLOBALS,
    _check_params,
    _plan,
    _slots,
    _span,
    _sum_terms,
    bounded_int,
    compare,
    compare_sides,
    eval_side_value,
    side_terms,
)


# The most points one grid may have, about a hundred times the largest
# default grid (1,024 points).  A larger grid is refused before any point is
# built.
MAX_GRID_POINTS = 100_000

# The largest a_exp of the LIU counterexample.  Its bilateral sum has 2a
# terms of a factors each; the command line's default is 2.
MAX_LIU_EXPONENT = 200


def get_record(ident: str) -> IdentityRecord:
    rec = REGISTRY.get(ident)
    if rec is None:
        raise UnknownIdentity(f"no identity with id {ident!r}")
    return rec


def list_identities() -> list[str]:
    return sorted(REGISTRY)


def worker_count(jobs: int, cpus: int, points: int) -> int:
    """Pool size for a grid: the requested jobs, but never more than the
    CPUs this process may use or the number of points."""
    return max(1, min(jobs, cpus, points))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify(ident: str, params: dict, trunc: int | None = None,
           ctx: EvalCtx = UNPERTURBED) -> VerificationReport:
    """Evaluate both sides of one identity at one parameter point, with the
    perturbations of ``ctx``, and compare every coefficient through the
    truncation order (QRR_TRUNC or else 60 when ``trunc`` is None), by
    :func:`compare_sides`.  Every point is decided at one integer point
    with no kernel pass: term by term where its degree bound B has
    B + 2 <= T and no side is divided by (q; q)_inf (as the EULER records'
    are), and otherwise modulo 2^(b(T + 1 - s_min)) on one packed integer
    per side; only a MISMATCH sums its two sides, for its windows.  Each
    gives the report of the sums through q^T.
    This is the one check whose report carries its wall time, in
    ``millis``."""
    rec = get_record(ident)
    trunc = default_truncation(trunc)
    start = time.perf_counter()
    env = _check_params(rec, params)
    rep = compare_sides(ident, dict(env), trunc, side_terms(rec, "lhs", env, trunc, ctx),
                        side_terms(rec, "rhs", env, trunc, ctx))
    rep.millis = (time.perf_counter() - start) * 1000.0
    return rep


def lazy_grid(rec: IdentityRecord, ranges: dict[str, tuple[int, int]] | None = None
              ) -> tuple[int, Iterator[dict]]:
    """(number of points, the points) of a rectangular grid; the parameter
    dicts come in lexicographic order and are built one at a time.

    The grid is checked when this is called: an unknown parameter, an axis
    that is not a pair of integer bounds, that starts below the parameter's
    floor or that ends before it starts, or more than MAX_GRID_POINTS points
    (the product of the axis lengths) raises EngineError before any point
    is built."""
    names = [axis.name for axis in rec.default_grid]
    ranges = ranges or {}
    for name in ranges:
        if name not in names:
            raise EngineError(f"{rec.ident}: unknown parameter {name!r}")
    axes = []
    for name, low, high in rec.default_grid:
        bounds = ranges.get(name, (low, high))
        if (not isinstance(bounds, (tuple, list)) or len(bounds) != 2
                or any(isinstance(b, bool) or not isinstance(b, int) for b in bounds)):
            raise EngineError(f"{rec.ident}: grid for {name} needs integer bounds "
                              f"(lo, hi), got {bounds!r}")
        lo, hi = bounds
        if lo < low:
            raise EngineError(
                f"{rec.ident}: grid for {name} starts at {lo}, below minimum {low}"
            )
        if hi < lo:
            raise EngineError(f"{rec.ident}: grid for {name} runs backwards: {lo}..{hi}")
        axes.append(range(lo, hi + 1))
    size = math.prod(len(axis) for axis in axes)
    if size > MAX_GRID_POINTS:
        raise EngineError(f"{rec.ident}: the grid has {size} points, more than "
                          f"the limit of {MAX_GRID_POINTS}")
    return size, (dict(zip(names, combo)) for combo in _cartesian(*axes))


def grid_points(rec: IdentityRecord,
                ranges: dict[str, tuple[int, int]] | None = None) -> list[dict]:
    """All parameter dicts of a rectangular grid, in lexicographic order."""
    return list(lazy_grid(rec, ranges)[1])


def _verify_chunk(tasks: list) -> list[VerificationReport]:
    return [verify(ident, params, trunc) for ident, params, trunc in tasks]


def verify_points(tasks: Iterable[tuple[str, dict, int]], points: int,
                  jobs: int = 1) -> Iterator[VerificationReport]:
    """Verify ``(ident, params, trunc)`` tasks and yield their reports in task
    order.  ``points`` is the number of tasks.

    With ``worker_count`` above 1 and at least 4 points, one process pool
    runs the whole stream: tasks are drawn from ``tasks`` only as chunks are
    handed to it, and a bounded window of chunks is in flight at a time.
    Once the pool breaks, nothing more is handed to it: a chunk still in
    the window raises the error its worker met, or else the error of the
    refused hand-off.  Otherwise every task runs serially in this process.
    ``jobs`` must be an integer >= 1; anything else raises EngineError
    before any task is drawn."""
    bounded_int("jobs", jobs, 1)
    tasks = iter(tasks)
    workers = worker_count(jobs, _usable_cpus(), points)
    if workers <= 1 or points < 4:
        for ident, params, trunc in tasks:
            yield verify(ident, params, trunc)
        return
    # about eight chunks per worker keep the workers evenly loaded to the end
    # of the run, and 256 points make the per-chunk hand-off cheap; two
    # chunks per worker in flight keep each one busy while this process
    # takes in the chunk before
    size, depth = max(1, min(256, points // (8 * workers))), 2 * workers
    chunks = iter(lambda: list(islice(tasks, size)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque(pool.submit(_verify_chunk, chunk)
                       for chunk in islice(chunks, depth))
        broken = None
        while window:
            reports = window.popleft().result()
            chunk = None if broken else next(chunks, None)
            if chunk is not None:
                try:
                    window.append(pool.submit(_verify_chunk, chunk))
                except BrokenProcessPool as exc:
                    broken = exc
            yield from reports
        if broken:
            raise broken


def verify_grid(ident: str, ranges: dict[str, tuple[int, int]] | None = None,
                trunc: int | None = None, jobs: int = 1) -> list[VerificationReport]:
    """Verify an identity over a parameter grid; reports come back in the
    same lexicographic order regardless of the worker count.  With no
    ``trunc``, QRR_TRUNC or else the record's default applies.  The grid
    runs through ``verify_points``, so one pool of ``worker_count``
    processes, never more than ``jobs``, serves the whole grid."""
    rec = get_record(ident)
    trunc = default_truncation(trunc, fallback=rec.default_trunc)
    points, grid = lazy_grid(rec, ranges)
    # no point lies above the top corner: checking it refuses the grid at once
    top = {name: hi for name, _, hi in rec.default_grid}
    top.update((name, hi) for name, (_, hi) in (ranges or {}).items())
    _check_params(rec, top)
    return list(verify_points(((ident, p, trunc) for p in grid), points, jobs))


def sweep_tasks(trunc: int | None = None) -> tuple[int, Iterator[tuple[str, dict, int]]]:
    """Every record's default grid as one stream of ``verify_points`` tasks,
    in ``list_identities`` order: (number of tasks, tasks).  With no
    ``trunc``, each record gets QRR_TRUNC or else its own default."""
    total, grids = 0, []
    for ident in list_identities():
        rec = get_record(ident)
        size, grid = lazy_grid(rec)
        total += size
        grids.append((ident, grid,
                      default_truncation(trunc, fallback=rec.default_trunc)))
    return total, ((ident, p, t) for ident, grid, t in grids for p in grid)


def eval_side(ident: str, side: str, params: dict,
              trunc: int | None = None) -> list:
    """The coefficients of q^0 .. q^T of one side of an identity.

    Raises NeedsLaurent if the value genuinely retains negative q-exponents
    (individual terms may pass through them; only the total matters).
    """
    rec = get_record(ident)
    trunc = default_truncation(trunc)
    env = _check_params(rec, params)
    return power_series(eval_side_value(rec, side, env, trunc), trunc,
                        f"{ident} {side}")


def support_bounds(ident: str, side: str, params: dict,
                   trunc: int | None = None) -> tuple[int, int]:
    """The inclusive k-range the engine sums over for one side: the sum's
    declared range (terms outside the true support inside this range are
    exactly zero), or else the range derived from its argument exponents.
    """
    rec = get_record(ident)
    trunc = default_truncation(trunc, fallback=rec.default_trunc)
    env = _check_params(rec, params)
    s = rec.side(side).sum
    if s is None:
        raise EngineError(f"{ident} {side} has no sum")
    plan = _plan(s, side)
    values = eval(plan.params, _AFFINE_GLOBALS, env)
    return _span(s, values, trunc, _slots(s, values, plan.args, UNPERTURBED)[0])


# ---------------------------------------------------------------------------
# the q -> 1 free and the n -> infinity Rogers-Ramanujan limits
# ---------------------------------------------------------------------------


# the context of the sums below, read at each call so that a test can
# perturb them
_CTX = UNPERTURBED

# the terminating sums of q^(k^2 + extra k) (q)_n / ((q)_k (q)_(n-k)),
# taken at n = T, and the product each one tends to
_RR_LIMITS = {
    which: (Sum(quad=(2, 2 * extra), num=("n",), den=("k", "n-k"), support=("0", "*")),
            product)
    for which, extra, product in (("RR1", 0, "mod5_14"), ("RR2", 1, "mod5_23"))
}


def rr_limit_check(which: str, trunc: int | None = None) -> VerificationReport:
    """Stabilised n -> infinity limit of the finite identities.

    With n = T, the terminating sum times (q; q)_T agrees with the infinite
    Rogers-Ramanujan sum through q^T — the Gaussian-binomial correction
    factors all start at exponent T-k+1 and k^2 - k >= 0 pushes them past
    the window — so it must match the corresponding infinite product.
    The product side is an independent value, so this is the one check
    that compares through :func:`compare` rather than :func:`compare_sides`:
    summing the product as a one-term list beside the sum's terms takes
    more kernel passes (322 against 272 for RR1 and RR2 at T=300).  Both
    sides are summed through q^T: the product is infinite, so the check has
    no degree bound.
    """
    if which not in _RR_LIMITS:
        raise UnknownIdentity(f"rr_limit_check knows RR1 and RR2, not {which!r}")
    spec, product = _RR_LIMITS[which]
    trunc = default_truncation(trunc)
    env = {"n": trunc}
    lhs = sum_terms(_sum_terms(spec, env, _CTX, which, trunc), trunc)
    return compare(which, env, trunc, lhs, (0, _rr_product(product, trunc)))


def liu_closed_form(which: str, a_exp: int) -> PochProduct:
    """The closed form of the degenerate LIU1/LIU2 sum at a = q^a_exp:
    (q)_inf/(a)_inf = (q; q)_{a_exp-1} for LIU1 and (q)_inf/(aq)_inf =
    (q; q)_{a_exp} for LIU2."""
    return PochProduct().qn(a_exp - 1 if which == "LIU1" else a_exp)


# the degenerate left sides at a = q^a: LIU1 sums (q/a)_k / (a)_k a^k q^(k^2-k)
# over 1-a..a-1, LIU2 (q/a)_k / (aq)_k a^k q^(k^2) over -a..a-1
_LIU_SUMS = {
    "LIU1": Sum(quad=(2, -2), lin="a", argnum=("1-a",), argden=("a",)),
    "LIU2": Sum(quad=(2, 0), lin="a", argnum=("1-a",), argden=("a+1",)),
}


def liu_counterexample(which: str, a_exp: int,
                       trunc: int | None = None) -> VerificationReport:
    """The degenerate specialisation that refutes LIU1/LIU2.

    Setting the product of the second and third parameters to q (for LIU1)
    or to 1 (for LIU2) makes their Pochhammer factors cancel in pairs, so
    the left side collapses to a one-parameter bilateral sum with the
    closed form :func:`liu_closed_form` — while the right side's prefactor
    acquires a (q^0; q)_inf factor and vanishes.  The two sides disagree
    already at q^0.  Both comparisons, the sum against its closed form and
    the closed form against 0, go through :func:`compare_sides`.
    """
    if which not in _LIU_SUMS:
        raise UnknownIdentity(f"liu_counterexample knows LIU1 and LIU2, not {which!r}")
    bounded_int("a_exp", a_exp, 1, MAX_LIU_EXPONENT)
    trunc = default_truncation(trunc)
    params = {"a_exp": a_exp}
    terms = _sum_terms(_LIU_SUMS[which], {"a": a_exp}, _CTX, which, trunc)
    closed = ([liu_closed_form(which, a_exp)], 0)
    if not compare_sides(which, params, trunc, (terms, 0), closed).equal:
        raise EngineError(f"{which}: degenerate sum disagrees with its closed form")
    # the sum equals its closed form through q^trunc, checked just above
    return compare_sides(which, params, trunc, closed, ([], 0))


# ---------------------------------------------------------------------------
# perturbation sites (used by tests to confirm the comparisons have teeth)
# ---------------------------------------------------------------------------


def identity_sites(ident: str, params: dict,
                   trunc: int | None = None) -> list[str]:
    """Names of every exponent that enters the evaluation at this point
    (through q^trunc: QRR_TRUNC or else 60 when ``trunc`` is None)."""
    recorder: set[str] = set()
    verify(ident, params, trunc, EvalCtx(recorder=recorder))
    return sorted(recorder)


def verify_mutated(ident: str, params: dict, site: str, delta: int,
                   trunc: int | None = None) -> VerificationReport:
    """Re-verify with one exponent site perturbed by ``delta``, by the rule
    of :meth:`EvalCtx.site`; raises EngineError if the check never passes
    that site, so a misspelt site cannot read EQUAL."""
    ctx = EvalCtx({site: delta})
    rep = verify(ident, params, trunc, ctx)
    if not ctx.hits:
        raise EngineError(f"{ident}: the check at {params} passes no site {site!r}")
    return rep

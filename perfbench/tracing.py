"""In-memory tracing of the qrr layers, installed by patching and always undone.

``Tracer.installed()`` replaces selected qrr functions, methods and the
process-pool class with wrappers, and puts every original back on exit.  A
module-level function is replaced at every qrr binding that holds the same
object, so ``from .pochhammer import mul_binomial`` in another module is
traced too; the two kernel bindings are told apart on purpose, because a
kernel pass made through ``framework``'s names belongs to the prefactor and
one made from ``PochProduct.render_unit`` belongs to rendering.

Three kinds of wrapper exist:

* span: timed, and recorded as (id, name, start, end, parent id);
* timed: timed and aggregated per name, no span record (hot functions);
* count: a call counter only (the hottest functions).

A layer's self time is the duration of its frames minus the time covered by
their wrapped children.  Building a term (``PochProduct.poch`` and friends)
is too fine-grained to wrap, so it is charged to whoever builds the term.  Targets that no longer exist in the program are
skipped and listed in ``Tracer.missing``; their metrics read 0.

Work done inside process-pool workers is traced too: the pool wrapper runs
each submitted call through ``_traced_call``, which returns the worker's
aggregates alongside the result.  That needs workers forked from the traced
process (the ``fork`` start method), so a traced pool refuses any other.
"""

from __future__ import annotations

import contextlib
import importlib
import multiprocessing
import sys
from collections import defaultdict
from concurrent.futures import Future, ProcessPoolExecutor
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "engine", "framework", "pochhammer", "series",
          "bailey", "telescoping", "binomial")

SPAN, TIMED, COUNT = "span", "timed", "count"

_CLI = "qrr.cli"
_ENGINE = "qrr.identities.engine"
_FRAMEWORK = "qrr.identities.framework"
_POCH = "qrr.pochhammer"
_SERIES = "qrr.series"

# (module, attribute path, name, layer, mode).  Names describe the stage, so
# they can outlive the function that currently implements it.
TARGETS = (
    (_CLI, "main", "cli.main", "cli", SPAN),
    (_CLI, "cmd_verify_all", "cli.verify_all", "cli", SPAN),
    (_CLI, "emit", "cli.emit", "cli", SPAN),
    (_CLI, "report_to_dict", "cli.report_to_dict", "cli", TIMED),
    (_ENGINE, "verify", "engine.verify", "engine", SPAN),
    (_ENGINE, "verify_grid", "engine.verify_grid", "engine", SPAN),
    (_ENGINE, "grid_points", "engine.grid_points", "engine", TIMED),
    (_ENGINE, "get_record", "engine.get_record", "engine", TIMED),
    (_ENGINE, "identity_sites", "engine.identity_sites", "engine", SPAN),
    (_ENGINE, "verify_mutated", "engine.verify_mutated", "engine", SPAN),
    (_ENGINE, "rr_limit_check", "engine.rr_limit_check", "engine", SPAN),
    (_ENGINE, "liu_counterexample", "engine.liu_counterexample", "engine", SPAN),
    (_FRAMEWORK, "eval_side_value", "framework.eval_side", "framework", SPAN),
    (_FRAMEWORK, "_apply_prefactor", "framework.prefactor", "framework", TIMED),
    (_FRAMEWORK, "_qn_sum_terms", "framework.build_terms", "framework", TIMED),
    (_FRAMEWORK, "_poch_sum_terms", "framework.build_terms", "framework", TIMED),
    (_FRAMEWORK, "_check_params", "framework.check_params", "framework", TIMED),
    (_FRAMEWORK, "compare_side_values", "framework.compare", "framework", TIMED),
    (_FRAMEWORK, "window", "framework.window", "framework", TIMED),
    (_FRAMEWORK, "eval_affine", "framework.affine_evals", "framework", COUNT),
    (_FRAMEWORK, "EvalCtx.site", "framework.site_calls", "framework", COUNT),
    (_POCH, "PochProduct.mul", "pochhammer.product_mul", "pochhammer", TIMED),
    (_POCH, "PochProduct.render_unit", "pochhammer.render_unit", "pochhammer", TIMED),
    (_POCH, "SeriesAccumulator.value", "pochhammer.render", "pochhammer", TIMED),
    (_POCH, "sum_terms", "pochhammer.sum_terms", "pochhammer", TIMED),
    (_POCH, "terms_to_series", "pochhammer.sum_terms", "pochhammer", TIMED),
    (_POCH, "qn_coeffs", "pochhammer.qn_table", "pochhammer", TIMED),
    (_POCH, "inv_qn_coeffs", "pochhammer.qn_table", "pochhammer", TIMED),
    (_POCH, "qpoch", "series.qpoch", "series", TIMED),
    (_POCH, "qpoch_reciprocal", "series.qpoch", "series", TIMED),
    (_POCH, "qpoch_multi", "series.qpoch", "series", TIMED),
    (_POCH, "qpoch_infinite", "series.qpoch_infinite", "series", TIMED),
    (_POCH, "rr_product_side", "series.rr_product", "series", TIMED),
    (_SERIES, "TruncatedSeries.__init__", "series.build", "series", TIMED),
    (_SERIES, "TruncatedSeries.__add__", "series.arith", "series", TIMED),
    (_SERIES, "TruncatedSeries.__sub__", "series.arith", "series", TIMED),
    (_SERIES, "TruncatedSeries.__mul__", "series.arith", "series", TIMED),
    (_SERIES, "TruncatedSeries.invert", "series.arith", "series", TIMED),
    (_SERIES, "series_compare", "series.compare", "series", TIMED),
    ("qrr.bailey", "chain_reproduce", "bailey.chain", "bailey", SPAN),
    ("qrr.bailey", "verify_pair", "bailey.pair", "bailey", SPAN),
    ("qrr.bailey", "bailey_step", "bailey.step", "bailey", TIMED),
    ("qrr.bailey", "lattice_step", "bailey.step", "bailey", TIMED),
    ("qrr.telescoping", "verify_telescoping", "telescoping.certificate", "telescoping", SPAN),
    ("qrr.telescoping", "verify_sk_tk", "telescoping.certificate", "telescoping", SPAN),
    ("qrr.telescoping", "verify_quartic_identity", "telescoping.quartic", "telescoping", SPAN),
    ("qrr.binomial", "cor57_sides", "binomial.factorial_sum", "binomial", TIMED),
    ("qrr.binomial", "cor58a_sides", "binomial.factorial_sum", "binomial", TIMED),
    ("qrr.binomial", "cor58b_sides", "binomial.factorial_sum", "binomial", TIMED),
    ("qrr.binomial", "bino5_sides", "binomial.power_sum", "binomial", TIMED),
    ("qrr.binomial", "bino4_sides", "binomial.power_sum", "binomial", TIMED),
    ("qrr.binomial", "divisibility_check", "binomial.divisibility", "binomial", TIMED),
    ("qrr.binomial", "general_divisibility_check", "binomial.divisibility", "binomial", TIMED),
)

KERNELS = (_POCH, ("mul_binomial", "div_binomial"))
EVAL_SIDE = "framework.eval_side"
RENDER_UNIT = "pochhammer.render_unit"

_ACTIVE: "Tracer | None" = None


def _resolve(module, path: str):
    """(owner, attribute, current value) for "name" or "Class.name"."""
    owner = module
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(path)
    return owner, attr, vars(owner)[attr]


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return abs(c).bit_length()
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return 0


def max_coeff_bits(value) -> int:
    """Largest coefficient bit length of an (offset, coeffs) side value."""
    coeffs = value[1] if isinstance(value, tuple) and len(value) == 2 else ()
    return max((_coeff_bits(c) for c in coeffs), default=0)


class Tracer:
    """Spans and aggregates for one traced pass; see the module docstring."""

    def __init__(self):
        self.counts = defaultdict(int)       # named counters and summed seconds
        self.maxima = defaultdict(int)
        self.calls = defaultdict(int)        # per name
        self.incl = defaultdict(float)       # per name, inclusive seconds
        self.layer_self = defaultdict(float)
        self.layer_incl = defaultdict(float)  # outermost frames of each layer
        self.spans: list[tuple] = []
        self.stack: list[list] = []          # frames: [child s, span id, name]
        self.depth = defaultdict(int)        # open frames per layer
        self.eval_scope = 0                  # open eval_side frames
        self.record_spans = True
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._pending: list[dict] = []

    def reset(self) -> None:
        """Clear every aggregate in place (the wrappers hold references)."""
        for store in (self.counts, self.maxima, self.calls, self.incl,
                      self.layer_self, self.layer_incl, self.spans,
                      self.stack, self.depth):
            store.clear()
        self.eval_scope = 0

    # -- aggregates shipped from pool workers ----------------------------------

    def aggregates(self) -> dict:
        return {key: dict(getattr(self, key)) for key in
                ("counts", "maxima", "calls", "incl", "layer_self", "layer_incl")}

    def merge(self, agg: dict) -> None:
        for key, values in agg.items():
            target = getattr(self, key)
            for name, value in values.items():
                if key == "maxima":
                    target[name] = max(target[name], value)
                else:
                    target[name] += value

    def merge_pending(self) -> None:
        while self._pending:
            self.merge(self._pending.pop())

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, fn, name: str, layer: str, span: bool):
        tr = self
        is_eval = name == EVAL_SIDE

        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else None
            sid = None
            if span and tr.record_spans:
                sid = len(tr.spans)
                tr.spans.append(None)
            frame = [0.0, sid if sid is not None else parent_span, name]
            tr.depth[layer] += 1
            if is_eval:
                tr.eval_scope += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                tr.calls[name] += 1
                tr.incl[name] += dur
                tr.layer_self[layer] += own
                if layer == "framework" and tr.eval_scope:
                    tr.counts["framework.eval_side_self_s"] += own
                if is_eval:
                    tr.eval_scope -= 1
                tr.depth[layer] -= 1
                if not tr.depth[layer]:
                    tr.layer_incl[layer] += dur
                if parent is not None:
                    parent[0] += dur
                if sid is not None:
                    tr.spans[sid] = (sid, name, t0, t1, parent_span)
            if is_eval:
                bits = max_coeff_bits(result)
                if bits > tr.maxima["pochhammer.max_coeff_bits"]:
                    tr.maxima["pochhammer.max_coeff_bits"] = bits
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kernel(self, fn, prefactor: bool):
        tr = self
        counts = self.counts
        stack = self.stack
        layer_self = self.layer_self
        depth = self.depth

        def wrapper(buf, m, *rest):
            if prefactor:
                counts["pochhammer.kernel_passes_prefactor"] += 1
            elif stack and stack[-1][2] == RENDER_UNIT:
                counts["pochhammer.kernel_passes_render"] += 1
            else:
                counts["pochhammer.kernel_passes_other"] += 1
            n = len(buf)
            if m < n:
                counts["pochhammer.kernel_coeff_ops"] += n - m
            t0 = perf_counter()
            try:
                return fn(buf, m, *rest)
            finally:
                dur = perf_counter() - t0
                counts["pochhammer.kernel_s"] += dur
                layer_self["pochhammer"] += dur
                if not depth["pochhammer"]:
                    tr.layer_incl["pochhammer"] += dur
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _pool_class(self, base):
        tr = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                ctx = kwargs.get("mp_context", args[1] if len(args) > 1 else None)
                if (ctx or multiprocessing.get_context()).get_start_method() != "fork":
                    raise RuntimeError("tracing pool workers needs the fork start method")
                t0 = perf_counter()
                super().__init__(*args, **kwargs)
                tr.counts["engine.pools_started"] += 1
                tr.counts["engine.pool_setup_s"] += perf_counter() - t0
                self._bench_started = False

            def submit(self, fn, /, *args, **kwargs):
                # the first submit forks the workers, so it is set-up time
                t0 = perf_counter()
                inner = super().submit(_traced_call, fn, args, kwargs)
                if not self._bench_started:
                    self._bench_started = True
                    tr.counts["engine.pool_setup_s"] += perf_counter() - t0
                outer = _Relay(tr)

                def relay(done):
                    if outer.cancelled():
                        return
                    if done.cancelled():
                        outer.cancel()
                        return
                    exc = done.exception()
                    if exc is not None:
                        outer.set_exception(exc)
                        return
                    result, agg = done.result()
                    if agg is not None:
                        tr._pending.append(agg)   # merged on the main thread
                    outer.set_result(result)

                inner.add_done_callback(relay)
                outer.add_done_callback(lambda o: o.cancelled() and inner.cancel())
                return outer

            def shutdown(self, wait=True, *, cancel_futures=False):
                t0 = perf_counter()
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                tr.counts["engine.pool_shutdown_s"] += perf_counter() - t0
                tr.merge_pending()

        TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
        return TracedPool

    # -- installation -----------------------------------------------------------

    def _qrr_modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "qrr" or name.startswith("qrr."))]

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_bindings(self, original, make) -> None:
        """Replace `original` at every qrr module binding; make(module) gives
        the wrapper for that binding."""
        for mod in self._qrr_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, make(mod))

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        importlib.import_module("qrr.cli")
        _ACTIVE = self
        try:
            self._install_targets()
        except BaseException:
            self.uninstall()
            raise

    def _install_targets(self) -> None:
        for modname, path, name, layer, mode in TARGETS:
            try:
                owner, attr, original = _resolve(importlib.import_module(modname), path)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{path}")
                continue
            if mode == COUNT:
                wrapped = self._counted(original, name)
            else:
                wrapped = self._timed(original, name, layer, mode == SPAN)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                self._patch_bindings(original, lambda _mod, w=wrapped: w)

        poch = importlib.import_module(KERNELS[0])
        for kname in KERNELS[1]:
            original = vars(poch).get(kname)
            if original is None:
                self.missing.append(f"{KERNELS[0]}.{kname}")
                continue
            self._patch_bindings(
                original,
                lambda mod, fn=original: self._kernel(fn, mod.__name__ == _FRAMEWORK))

        self._install_term_counters(poch)
        self._patch_bindings(ProcessPoolExecutor,
                             lambda _mod: self._pool_class(ProcessPoolExecutor))

    def _install_term_counters(self, poch) -> None:
        counts = self.counts
        product = getattr(poch, "PochProduct", None)
        state = vars(product).get("state") if product is not None else None
        if isinstance(state, property):
            fget = state.fget

            def counted_state(term):
                st = fget(term)
                if st == "zero":     # every caller drops a zero term on sight
                    counts["pochhammer.terms_zero_skipped"] += 1
                return st

            self._patch(product, "state", property(counted_state))
        else:
            fget = None
            self.missing.append(f"{_POCH}.PochProduct.state")

        acc = getattr(poch, "SeriesAccumulator", None)
        add = vars(acc).get("add") if acc is not None else None
        if add is None:
            self.missing.append(f"{_POCH}.SeriesAccumulator.add")
            return

        def counted_add(self_, term, *args, **kwargs):
            if fget is None or fget(term) == "ok":
                counts["pochhammer.terms_added"] += 1
            return add(self_, term, *args, **kwargs)

        self._patch(acc, "add", counted_add)

    def uninstall(self) -> None:
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None
        self.merge_pending()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class _Relay(Future):
    """The future handed back to the program for a traced pool call.  Time
    spent blocked in ``result()`` is waiting for the workers: it is counted
    as ``engine.pool_wait_s`` and not as the waiting caller's self time."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def result(self, timeout=None):
        tr = self._tracer
        t0 = perf_counter()
        try:
            return super().result(timeout)
        finally:
            dur = perf_counter() - t0
            tr.counts["engine.pool_wait_s"] += dur
            if tr.stack:
                tr.stack[-1][0] += dur


def _traced_call(fn, args, kwargs):
    """Runs in a pool worker: one submitted call, plus the worker's aggregates
    for exactly that call (the worker's inherited state is cleared first)."""
    tr = _ACTIVE
    if tr is None:
        return fn(*args, **kwargs), None
    tr.reset()
    tr.record_spans = False
    result = fn(*args, **kwargs)
    return result, tr.aggregates()

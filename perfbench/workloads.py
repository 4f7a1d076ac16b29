"""The three workloads: seeded inputs, expected verdicts and one pass of each.

Import this only after ``src/`` of the checkout is on ``sys.path`` (see
``child.py``); the program is never imported from anywhere else.

A *check* is one verdict.  Calls that return several verdicts (a Bailey pair
over n = 0..10, the sites of one identity in the mutation control) count
once per verdict, and their latency is split evenly between them; each
binomial sweep is a single check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
from time import perf_counter

from qrr import bailey, binomial, cli, telescoping
from qrr.identities import engine
from qrr.series import SeriesError

from spec import CERT_T, DEEP_T, MUTATION_T, REGISTRY_T, RR_T

REGISTRY_JOBS = 2
REGISTRY_LATENCY_SHARE = 4   # 1 in 4 sweep points is timed serially
DEEP_PER_RECORD = 28
CHAIN_TARGETS = ("ABCDE1", "ABCDE2", "ABCDE3")
CHAIN_DEPTHS = range(5)
CHAIN_TUPLES = 12            # seeded exponent tuples per (target, depth)
PAIR_N_MAX = 10
LIU_EXPONENTS = range(1, 6)


class Item:
    """One call into the program: ``run()`` returns its verdicts."""

    __slots__ = ("label", "run", "expected")

    def __init__(self, label: str, run, expected: str):
        self.label = label
        self.run = run
        self.expected = expected


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def registry_points() -> list[tuple[str, dict]]:
    """Every default-grid point of every record, in sweep order."""
    return [(ident, p) for ident in engine.list_identities()
            for p in engine.grid_points(engine.get_record(ident))]


def _stratified(points: list, k: int, rng: random.Random) -> list:
    """k points, one drawn at random from each of k equal strata of the
    points ordered by parameter sum (a proxy for their cost), so that every
    seed samples the same spread of cheap and costly points."""
    if k >= len(points):
        return list(points)
    ordered = sorted(points, key=lambda pt: sum(pt[1].values()))
    return [rng.choice(ordered[i * len(ordered) // k:(i + 1) * len(ordered) // k])
            for i in range(k)]


def registry_latency_points(seed: int, points: list) -> list[tuple[str, dict]]:
    """A seeded stratified quarter of each record's sweep points."""
    rng = random.Random(seed)
    out = []
    for _, group in itertools.groupby(points, key=lambda pt: pt[0]):
        mine = list(group)
        out += _stratified(mine, len(mine) // REGISTRY_LATENCY_SHARE, rng)
    return out


def deep_window_points(seed: int) -> list[tuple[str, dict]]:
    """A seeded stratified sample of at most DEEP_PER_RECORD grid points per
    record."""
    rng = random.Random(seed)
    out = []
    for ident in engine.list_identities():
        points = [(ident, p) for p in engine.grid_points(engine.get_record(ident))]
        out += _stratified(points, DEEP_PER_RECORD, rng)
    return out


def chain_inputs(seed: int) -> list[tuple[str, int, tuple[int, int, int, int]]]:
    """Seeded exponent tuples from [1,3]^4 for every chain target and depth."""
    rng = random.Random(seed)
    return [(target, depth, tuple(rng.randint(1, 3) for _ in range(4)))
            for target in CHAIN_TARGETS for depth in CHAIN_DEPTHS
            for _ in range(CHAIN_TUPLES)]


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


def _verify_item(ident: str, params: dict, trunc: int) -> Item:
    return Item(ident, lambda: [engine.verify(ident, params, trunc).verdict], "EQUAL")


def verify_items(points, trunc: int) -> list[Item]:
    return [_verify_item(ident, p, trunc) for ident, p in points]


def _mutation_verdicts(ident: str) -> list[str]:
    """The negative control for one record: every exponent site, bumped by
    +1 and -1 at two off-minimum points, must be detected."""
    rec = engine.get_record(ident)
    base = {p.name: p.low + 1 for p in rec.params}
    probes = (base, {p.name: p.low + 2 for p in rec.params})
    verdicts = []
    for site in engine.identity_sites(ident, base, MUTATION_T):
        verdict = "blind"
        for delta, params in itertools.product((1, -1), probes):
            try:
                rep = engine.verify_mutated(ident, params, site, delta, MUTATION_T)
            except SeriesError:
                verdict = "detected"
                break
            if rep.verdict != "EQUAL":
                verdict = "detected"
                break
        verdicts.append(verdict)
    return verdicts


def _equal(ok: bool) -> list[str]:
    return ["EQUAL" if ok else "MISMATCH"]


def _call(module, name: str, *args, **kwargs):
    """Look the program function up at call time, so a tracer installed
    after the inputs were built still sees the call."""
    return getattr(module, name)(*args, **kwargs)


def certificate_items(seed: int) -> list[Item]:
    items = []
    for l, m, n in itertools.product(range(4), repeat=3):
        for u, v in itertools.product((1, 2, 3), repeat=2):
            for name in ("verify_telescoping", "verify_sk_tk"):
                items.append(Item("telescoping", lambda f=name, a=(l, m, n, u, v):
                                  [_call(telescoping, f, *a, CERT_T).verdict], "EQUAL"))
    for target, depth, exps in chain_inputs(seed):
        items.append(Item("chain", lambda t=target, d=depth, e=exps:
                          [bailey.chain_reproduce(t, d, *e, trunc=CERT_T).verdict],
                          "EQUAL"))
    for make in ("unit_pair_x1", "unit_bilateral_x1", "unit_bilateral_xq",
                 "lattice_seed_pair"):
        items.append(Item("pair", lambda f=make: [
            r.verdict for r in bailey.verify_pair(_call(bailey, f), n_max=PAIR_N_MAX,
                                                  trunc=CERT_T)],
            "EQUAL"))
    for ident in engine.list_identities():
        items.append(Item("mutation", lambda i=ident: _mutation_verdicts(i), "detected"))
    for which in ("RR1", "RR2"):
        items.append(Item("rr_limit", lambda w=which: [engine.rr_limit_check(w, RR_T).verdict],
                          "EQUAL"))
    for which in ("LIU1", "LIU2"):
        for a in LIU_EXPONENTS:
            items.append(Item("liu", lambda w=which, a=a:
                              [engine.liu_counterexample(w, a, CERT_T).verdict], "MISMATCH"))
    items += _binomial_items()
    return items


def _sides_agree(name: str, *args) -> bool:
    return len(set(_call(binomial, name, *args))) == 1


def _binomial_items() -> list[Item]:
    """The q -> 1 sweeps of the acceptance suite, one check per sweep (a
    sweep holds only if every point in it holds)."""
    sweeps = {
        "cor57 on [0,4]^5": lambda: all(
            _sides_agree("cor57_sides", *a) for a in itertools.product(range(5), repeat=5)),
        "cor58a on [0,4]^4": lambda: all(
            _sides_agree("cor58a_sides", *a) for a in itertools.product(range(5), repeat=4)),
        "cor58b on [0,4]^4": lambda: all(
            _sides_agree("cor58b_sides", *a) for a in itertools.product(range(5), repeat=4)),
        "bino5 for n <= 20": lambda: all(_sides_agree("bino5_sides", n) for n in range(21)),
        "bino4 for n <= 20": lambda: all(_sides_agree("bino4_sides", n) for n in range(21)),
        "divisibility for n <= 20": lambda: all(
            binomial.divisibility_check(n, p) for n in range(21) for p in (4, 5)),
        "cyclic sums, length <= 5, entries <= 3": lambda: all(
            binomial.general_divisibility_check(list(e))
            for m in range(1, 6) for e in itertools.product(range(4), repeat=m)),
        "quartic identity": lambda: telescoping.verify_quartic_identity(),
    }
    return [Item(f"binomial {label}", lambda run=run: _equal(run()), "EQUAL")
            for label, run in sweeps.items()]


def build_inputs(workload: str, seed: int) -> tuple[list[Item], int]:
    """Everything a run needs before its first check: the items it times one
    by one, and how many points ``verify-all`` must report (0 if it runs no
    sweep)."""
    if workload == "registry-sweep":
        points = registry_points()
        return verify_items(registry_latency_points(seed, points), REGISTRY_T), len(points)
    if workload == "deep-window":
        return verify_items(deep_window_points(seed), DEEP_T), 0
    if workload == "certificates":
        return certificate_items(seed), 0
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class PassResult:
    __slots__ = ("wall", "cpu", "attempted", "failed", "latencies_ms", "marks", "errors")

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: list[float] = []
        self.marks: list[int] = []    # reference-loop samples taken before each call
        self.errors: list[str] = []

    def scaled(self, factors: list[float]) -> "PassResult":
        """A copy with every time scaled to the reference speed (see
        ``speed.py``): each call's latency by its own factor, the pass's wall
        and CPU time by the factor of its calls, weighted by their latency."""
        out = PassResult()
        out.attempted, out.failed, out.errors = self.attempted, self.failed, self.errors
        out.latencies_ms = [x * f for x, f in zip(self.latencies_ms, factors)]
        factor = sum(out.latencies_ms) / sum(self.latencies_ms)
        out.wall, out.cpu = self.wall * factor, self.cpu * factor
        return out


def run_items(items: list[Item], probe=None) -> PassResult:
    """Run every item once, timing each call and checking each verdict.
    With a ``speed.SpeedProbe``, the reference loop runs between calls; its
    time counts in the pass's wall but in no call's latency."""
    res = PassResult()
    start = perf_counter()
    for item in items:
        if probe is not None:
            probe.maybe_sample()
        mark = len(probe.samples) if probe is not None else 0
        t0 = perf_counter()
        try:
            verdicts = item.run()
        except Exception as exc:   # a check that raises is a failed check
            verdicts = [f"{type(exc).__name__}: {exc}"]
        dt = (perf_counter() - t0) * 1000.0
        if not verdicts:
            verdicts = ["no verdict"]
        share = dt / len(verdicts)
        for verdict in verdicts:
            res.latencies_ms.append(share)
            res.marks.append(mark)
            res.attempted += 1
            if verdict != item.expected:
                res.failed += 1
                if len(res.errors) < 5:
                    res.errors.append(f"{item.label}: expected {item.expected}, got {verdict}")
    res.wall = perf_counter() - start
    return res


def sweep_argv(jobs: int, out_path: str) -> list[str]:
    return ["verify-all", "--trunc", str(REGISTRY_T), "--jobs", str(jobs),
            "--format", "json", "--out", out_path]


def sweep_digest(doc: dict) -> str:
    """sha256 of a parsed verify-all report with its ``config.jobs`` set to 1.

    ``config.jobs`` is the one field that differs between worker counts; the
    document is re-serialised exactly as the CLI writes it, so the digest of
    a ``--jobs 1`` report is the digest of its raw bytes.
    """
    doc = dict(doc, config=dict(doc["config"], jobs=1))
    return hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest()


def run_sweep(expected_points: int, jobs: int, out_path: str,
              reference: str | None) -> tuple[PassResult, str, int]:
    """One ``verify-all`` through the CLI: (result, digest, bytes written)."""
    res = PassResult()
    start = perf_counter()
    rc = cli.main(sweep_argv(jobs, out_path))
    res.wall = perf_counter() - start
    with open(out_path, "rb") as fh:
        raw = fh.read()
    os.remove(out_path)
    doc = json.loads(raw)
    digest = sweep_digest(doc)
    if jobs == 1 and digest != hashlib.sha256(raw).hexdigest():
        res.errors.append("the --jobs 1 report does not re-serialise to its own bytes")
    if reference is not None and digest != reference:
        res.errors.append(f"--jobs {jobs} report digest {digest[:12]} differs from "
                          f"the --jobs 1 digest {reference[:12]}")
    if rc != 0:
        res.errors.append(f"verify-all exited {rc}")
    reports = doc["reports"]
    if len(reports) != expected_points:
        res.errors.append(f"verify-all reported {len(reports)} points, expected {expected_points}")
    equal = sum(1 for r in reports if r["verdict"] == "EQUAL")
    res.attempted = expected_points
    res.failed = expected_points - equal
    print(f"sweep jobs={jobs}: {res.wall:.3f} s, {equal}/{expected_points} equal",
          file=sys.stderr)
    return res, digest, len(raw)

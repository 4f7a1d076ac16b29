"""One workload in a process of its own; ``run.py`` starts it.

    python3 perfbench/child.py setup <workload> <seed>
    python3 perfbench/child.py run <workload> <seed> <seconds> <trace> <workdir>

``setup`` imports the program, loads the registry, builds the seeded inputs
and prints ``ready``: ``run.py`` times it from a fresh interpreter.  ``run``
prints one JSON line with the measurements.  A process of its own keeps the
peak memory and the CPU time (the process plus its reaped pool workers) to
the workload alone.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from time import perf_counter

import spec
from speed import REFERENCE_MS, SpeedProbe, local_scales, scale
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3                # timed passes per run, whatever --seconds says
LATENCY_REPEATS = 2           # serial latency passes after each registry sweep


def load_program() -> None:
    """Import qrr from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import qrr
    if not os.path.abspath(qrr.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qrr was imported from {qrr.__file__}, not from {SRC}")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident size of this process plus that of its largest reaped
    child (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _per_check_latency(passes) -> list[float]:
    """One latency per check: its median over the passes, which run the same
    checks in the same order (a failed call may yield fewer verdicts; then
    every sample is kept)."""
    lengths = {len(p.latencies_ms) for p in passes}
    if len(lengths) != 1:
        return [x for p in passes for x in p.latencies_ms]
    return [statistics.median(col) for col in zip(*(p.latencies_ms for p in passes))]


class Outcome:
    """Checks attempted and failed over every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors += res.errors[: max(0, 10 - len(self.errors))]


def _summary(timed, latency, sweep: bool) -> dict:
    """The time metrics of one run from its timed passes and the passes
    that give the latencies (the same passes, except in registry-sweep)."""
    # the median over every timed call; the tail over one latency per check
    # (its median over the passes), so that its sample count, and with it
    # the percentile, does not depend on how many passes fitted in the run
    calls = [x for res in latency for x in res.latencies_ms]
    medians = _per_check_latency(latency)
    if sweep:
        checks_per_s = statistics.median(r.attempted / r.wall for r in timed)
    else:
        # the throughput of a pass in which every check took its median time:
        # a burst of contention on the shared machine slows a few checks of
        # one pass, not the per-check medians
        checks_per_s = len(medians) / (sum(medians) / 1000.0)
    tail_ms, tail_pct, beyond = spec.tail(medians)
    return {
        "checks_per_s": checks_per_s,
        "cpu_s_per_kcheck": (sum(r.cpu for r in timed)
                             / (sum(r.attempted for r in timed) / 1000.0)),
        "check_p50_ms": statistics.median(calls),
        "check_tail_ms": tail_ms,
        "tail": (tail_pct, beyond, len(medians)),
        "calls": len(calls),
    }


def measure(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """End-to-end metrics: an untraced warm-up pass, then whole passes until
    `seconds` have elapsed and at least MIN_PASSES have run.  Every time is
    scaled to the reference speed by the reference-loop samples taken during
    its own pass, a call's latency by those nearest it (see ``speed.py``)."""
    import workloads as wl

    items, sweep_points = wl.build_inputs(workload, seed)
    out = Outcome()
    probe = SpeedProbe()
    raw_timed, raw_latency, timed, latency = [], [], [], []
    factors = []
    sweep = workload == "registry-sweep"

    def serial_pass():
        cpu0, loop_cpu0 = _cpu_seconds(), probe.cpu_s
        res = wl.run_items(items, probe)
        res.cpu = _cpu_seconds() - cpu0 - (probe.cpu_s - loop_cpu0)
        samples = probe.take()
        factors.append(scale(samples))
        return res, res.scaled(local_scales(samples, res.marks))

    if sweep:
        path = os.path.join(workdir, f"verify-all-{os.getpid()}.json")
        warm, reference, _ = wl.run_sweep(sweep_points, 1, path, None)
    else:
        warm, _ = serial_pass()
        factors.clear()
    out.add(warm)
    start = perf_counter()
    while len(timed) < MIN_PASSES or perf_counter() - start < seconds:
        if sweep:
            # the sweep is not scaled: it keeps every core busy with its own
            # pool workers, and its times do not follow the reference loop
            # (they stay within a few percent while the loop's time swings
            # by a half)
            cpu0 = _cpu_seconds()
            res, _, _ = wl.run_sweep(sweep_points, wl.REGISTRY_JOBS, path, reference)
            res.cpu = _cpu_seconds() - cpu0
            raw_timed.append(res)
            timed.append(res)
            # the sweep's checks run inside pool workers, where they cannot be
            # timed one by one, so each sweep is followed by a seeded sample
            # of its points verified serially in-process
            for _ in range(LATENCY_REPEATS):
                raw, scaled = serial_pass()
                raw_latency.append(raw)
                latency.append(scaled)
        else:
            raw, scaled = serial_pass()
            raw_timed.append(raw)
            timed.append(scaled)
    for res in raw_timed + raw_latency:
        out.add(res)
    got = _summary(timed, latency or timed, sweep)
    raw = _summary(raw_timed, raw_latency or raw_timed, sweep)
    tail_pct, beyond, samples = got["tail"]
    names = ("checks_per_s", "cpu_s_per_kcheck", "check_p50_ms", "check_tail_ms")
    return {
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "values": dict({name: got[name] for name in names}, peak_rss_mb=_peak_rss_mb()),
        "notes": {
            "timed_passes": len(timed),
            "scaling": (f"times at the reference speed (reference loop = "
                        f"{REFERENCE_MS} ms){'; sweeps unscaled' if sweep else ''}; "
                        f"factor per serial pass min/median/max "
                        f"{min(factors):.3f}/{statistics.median(factors):.3f}/"
                        f"{max(factors):.3f} over {len(factors)} passes"),
            "raw": {name: round(raw[name], 6) for name in names},
            "checks_per_s": ("median over the timed sweeps" if sweep else
                             "checks / sum of per-check median latencies"),
            "pass_walls_s": [round(r.wall, 4) for r in raw_timed],
            "checks_per_pass": timed[0].attempted,
            "check_p50_ms": (f"{got['calls']} calls over {len(latency or timed)} "
                             + ("serial in-process passes" if sweep else "timed passes")),
            "check_tail_ms": f"p{tail_pct:.3f}, {beyond} samples beyond, {samples} "
                             "samples, one per check (its median over the passes)",
        },
    }


def _traced_pass(workload, items, sweep_points, path, reference):
    """One pass under the tracer: (pass result, per-layer values, spans)."""
    import workloads as wl

    tr = Tracer()
    with tr.installed():
        if workload == "registry-sweep":
            res, _, size = wl.run_sweep(sweep_points, wl.REGISTRY_JOBS, path, reference)
        else:
            res, size = wl.run_items(items), 0
    values = spec.layer_values(tr, size)
    return res, values, tr.spans, tr.missing


def trace(workload: str, seed: int, workdir: str) -> dict:
    """Per-layer metrics: a warm-up pass, one untraced pass, then two traced
    passes whose counts must agree exactly."""
    import workloads as wl

    items, sweep_points = wl.build_inputs(workload, seed)
    out = Outcome()
    path = os.path.join(workdir, f"verify-all-{os.getpid()}.json")
    reference = None
    if workload == "registry-sweep":
        warm, reference, _ = wl.run_sweep(sweep_points, 1, path, None)
        out.add(warm)
        untraced, _, _ = wl.run_sweep(sweep_points, wl.REGISTRY_JOBS, path, reference)
    else:
        out.add(wl.run_items(items))
        untraced = wl.run_items(items)
    out.add(untraced)

    res_a, values_a, spans, missing = _traced_pass(workload, items, sweep_points, path, reference)
    res_b, values_b, _, _ = _traced_pass(workload, items, sweep_points, path, reference)
    out.add(res_a)
    out.add(res_b)
    for name in spec.STEADY_COUNTS:
        if values_a[name] != values_b[name]:
            out.errors.append(f"unsteady count {name}: {values_a[name]} then {values_b[name]}")

    values = {}
    for name, unit, _, _ in spec.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if unit == "s":
            values[name] = (values_a[name] + values_b[name]) / 2.0
        else:
            values[name] = values_a[name]
    traced_wall = (res_a.wall + res_b.wall) / 2.0
    values["trace.overhead_s"] = traced_wall - untraced.wall

    spans_path = os.path.join(workdir, f"spans-{workload}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "fields": ["id", "name", "start_s", "end_s", "parent_id"],
                   "spans": [list(s) for s in spans if s]}, fh)
    return {
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "values": values,
        "notes": {
            "untraced_wall_s": round(untraced.wall, 4),
            "traced_wall_s": [round(res_a.wall, 4), round(res_b.wall, 4)],
            "trace_overhead_frac": round(traced_wall / untraced.wall - 1.0, 4),
            "spans": len(spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "missing_targets": missing,
            "pochhammer.kernel_coeff_ops": "computed as the sum of len(buf) - m per pass",
            "worker_time": "registry-sweep layer seconds are summed over pool workers",
        },
    }


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    load_program()
    if mode == "setup":
        import workloads as wl
        wl.build_inputs(workload, seed)
        print("ready", flush=True)
        return 0
    seconds, traced, workdir = float(argv[3]), argv[4] == "1", argv[5]
    doc = trace(workload, seed, workdir) if traced else measure(workload, seed, seconds, workdir)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

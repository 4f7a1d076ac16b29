"""Tests of the benchmark itself: seeded inputs, tracer hygiene, steady
counts, the result contract and the tables in BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import spec
import speed
import workloads as wl
from tracing import Tracer

from qrr.identities import engine, framework
from qrr import pochhammer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_seeded_inputs_repeat_and_vary():
    a = wl.deep_window_points(7)
    assert a == wl.deep_window_points(7)
    assert a != wl.deep_window_points(8)
    assert wl.chain_inputs(7) == wl.chain_inputs(7)
    assert wl.chain_inputs(7) != wl.chain_inputs(8)
    per_record = {}
    for ident, _ in a:
        per_record[ident] = per_record.get(ident, 0) + 1
    assert len(per_record) == len(engine.list_identities())
    assert max(per_record.values()) <= wl.DEEP_PER_RECORD
    assert 900 <= len(a) <= 1100
    assert all(1 <= e <= 3 for _, _, exps in wl.chain_inputs(7) for e in exps)
    points = wl.registry_points()
    sample = wl.registry_latency_points(7, points)
    assert sample == wl.registry_latency_points(7, points)
    assert sample != wl.registry_latency_points(8, points)
    assert len(points) == 10664 and 2600 <= len(sample) <= len(points) // wl.REGISTRY_LATENCY_SHARE


def _bindings():
    """Every qrr module attribute and class attribute the tracer may patch."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qrr" or name.startswith("qrr."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_original():
    before = _bindings()
    tr = Tracer()
    with tr.installed():
        assert framework.mul_binomial is not pochhammer.mul_binomial
        assert engine.ProcessPoolExecutor.__module__ != "concurrent.futures.process"
        assert engine.verify("ANDREWS1", {"n": 3}, 20).equal
    assert _bindings() == before
    assert tr.missing == []
    counts = dict(tr.counts)
    calls = dict(tr.calls)
    assert calls["engine.verify"] == 1 and counts["framework.affine_evals"] > 0

    # an untraced pass after the traced one runs unwrapped code
    assert engine.verify("ANDREWS1", {"n": 3}, 20).equal
    assert dict(tr.counts) == counts and dict(tr.calls) == calls


def _traced_counts(run):
    tr = Tracer()
    with tr.installed():
        run()
    values = spec.layer_values(tr, 0)
    return {name: values[name] for name in spec.STEADY_COUNTS if name in values}


def test_traced_counts_repeat_exactly():
    items = wl.verify_items(wl.deep_window_points(3)[::40], 60) + \
        wl.certificate_items(3)[::97]
    wl.run_items(items)
    first = _traced_counts(lambda: wl.run_items(items))
    assert first == _traced_counts(lambda: wl.run_items(items))
    assert first["pochhammer.kernel_passes_prefactor"] > 0
    assert first["pochhammer.kernel_passes_render"] > 0


def test_pool_workers_report_the_same_counts_as_serial():
    ranges = {"l": (0, 1), "m": (0, 1), "n": (0, 1), "u": (0, 1), "v": (0, 1)}
    serial = _traced_counts(lambda: engine.verify_grid("LMNRS1", ranges, 30, jobs=1))
    pooled_tr = Tracer()
    with pooled_tr.installed():
        reports = engine.verify_grid("LMNRS1", ranges, 30, jobs=2)
    assert len(reports) == 32 and all(r.equal for r in reports)
    pooled = spec.layer_values(pooled_tr, 0)
    assert pooled["engine.pools_started"] == 1
    assert pooled["engine.pool_setup_s"] > 0 and pooled["engine.pool_wait_s"] > 0
    for name in ("engine.verify_calls", "pochhammer.kernel_passes_prefactor",
                 "pochhammer.kernel_passes_render", "framework.affine_evals",
                 "pochhammer.max_coeff_bits"):
        assert pooled[name] == serial[name], name


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = spec.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0
    with pytest.raises(ValueError):
        spec.tail(list(range(10)))


def test_times_scale_by_the_nearest_reference_samples():
    ref = speed.REFERENCE_MS
    samples = [2 * ref] * 4 + [ref / 2] * 8     # a slow stretch, then a fast one
    res = wl.PassResult()
    res.latencies_ms, res.marks = [1.0, 2.0], [0, 10]
    res.wall, res.cpu = 3.0, 3.0
    factors = speed.local_scales(samples, res.marks)
    assert factors == [0.5, 2.0]
    out = res.scaled(factors)
    assert out.latencies_ms == [0.5, 4.0]
    assert out.wall == out.cpu == 4.5           # the latency-weighted factor, 1.5
    with pytest.raises(ValueError):
        speed.scale([])


def test_probe_times_leave_out_the_reference_loop():
    probe = speed.SpeedProbe()
    items = wl.verify_items(wl.deep_window_points(5)[:3], 20)
    res = wl.run_items(items, probe)
    assert res.failed == 0 and res.marks[0] == 1 and len(probe.samples) >= 1
    assert probe.cpu_s > 0 and len(probe.take()) >= 1 and probe.samples == []


def test_sweep_digest_ignores_only_the_worker_count():
    doc = {"artifact_version": 1, "command": "verify-all",
           "config": {"trunc": 40, "jobs": 1}, "reports": [], "summary": {}}
    raw = (json.dumps(doc, indent=2) + "\n").encode()
    assert wl.sweep_digest(doc) == hashlib.sha256(raw).hexdigest()
    assert wl.sweep_digest(dict(doc, config={"trunc": 40, "jobs": 2})) == \
        wl.sweep_digest(doc)
    assert wl.sweep_digest(dict(doc, config={"trunc": 41, "jobs": 1})) != \
        wl.sweep_digest(doc)


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(name, f"{why}; {spec.MACHINE_NOTE}") for name, why in spec.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [row[:3] for row in spec.PER_LAYER]
    setup_bound = dict((m["name"], m["bound"]) for m in doc["end_to_end"])["setup_s"]
    assert setup_bound == max(m["bound"] for m in doc["end_to_end"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep-window",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout

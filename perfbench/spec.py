"""What the benchmark runs and reports: workloads, truncations, metrics.

``WORKLOADS``, ``END_TO_END`` and ``PER_LAYER`` are the single source of the
names, units, directions and bounds; ``BENCHMARK.json`` must list the same
ones (a test checks this).  Each per-layer entry also says which end-to-end
metric it should move, and on which workload, so that a change can be
checked against its prediction.
"""

from __future__ import annotations

from tracing import LAYERS

# name, why
WORKLOADS = (
    ("registry-sweep",
     "The command users run: verify-all at T=40, --jobs 2, all 10,664 points; "
     "many short windows, so per-term overhead, 38 pools and JSON emission dominate"),
    ("deep-window",
     "A seeded sample of ~1,000 grid points verified serially at T=160, where "
     "prefactor expansion and the O(T) binomial kernels dominate; no pool, no CLI"),
    ("certificates",
     "Telescoping grid, seeded Bailey chains, unit pairs, mutation control, RR "
     "limits, LIU and binomial sweeps: many small hand-built sums, no pool"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
MACHINE_NOTE = "figures from a shared 2-core sandbox"

REGISTRY_T = 40
DEEP_T = 160
CERT_T = 40
MUTATION_T = 18
RR_T = 300

TRUNCATIONS = {
    "registry-sweep": {"verify-all": REGISTRY_T},
    "deep-window": {"verify": DEEP_T},
    "certificates": {"certificates": CERT_T, "mutation": MUTATION_T,
                     "rr_limit": RR_T, "liu": CERT_T},
}

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("checks_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_kcheck", "s/kcheck", "lower", 0.25),
    ("check_p50_ms", "ms", "lower", 0.25),
    ("check_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_ALL = "checks_per_s on all three workloads, most on deep-window"
_CERT_REG = "checks_per_s and check_p50_ms on certificates and registry-sweep"
_FANOUT = "checks_per_s and cpu_s_per_kcheck on registry-sweep only"
_CERT = "checks_per_s on certificates only"
_PREFACTOR = ("checks_per_s: strongly on deep-window, a little on registry-sweep "
              "and on certificates (its certificates and probes evaluate registry sides)")

# name, unit, better, what it should move
PER_LAYER = (
    ("pochhammer.kernel_passes_prefactor", "count", "lower", _PREFACTOR),
    ("pochhammer.kernel_s", "s", "lower", _PREFACTOR),
    ("framework.eval_side_self_s", "s", "lower", _PREFACTOR),
    ("framework.prefactor_s", "s", "lower", _PREFACTOR),
    ("pochhammer.kernel_passes_render", "count", "lower", _ALL),
    ("pochhammer.kernel_passes_other", "count", "lower", _CERT),
    ("pochhammer.kernel_coeff_ops", "count", "lower", _ALL + " (computed)"),
    ("pochhammer.render_s", "s", "lower", _ALL),
    ("pochhammer.max_coeff_bits", "bits", "lower", "nothing: bounds any int64 kernel"),
    ("pochhammer.terms_added", "count", "lower", _CERT_REG),
    ("pochhammer.terms_zero_skipped", "count", "lower", _CERT_REG),
    ("pochhammer.product_muls", "count", "lower", _CERT_REG),
    ("pochhammer.sum_terms_calls", "count", "lower", _CERT_REG),
    ("framework.affine_evals", "count", "lower", _CERT_REG),
    ("framework.site_calls", "count", "lower", _CERT_REG),
    ("framework.compare_s", "s", "lower", _CERT_REG),
    ("engine.verify_calls", "count", "lower", _FANOUT),
    ("engine.verify_s", "s", "lower", _FANOUT),
    ("engine.pools_started", "count", "lower", _FANOUT),
    ("engine.pool_setup_s", "s", "lower", _FANOUT),
    ("engine.pool_shutdown_s", "s", "lower", _FANOUT),
    ("engine.pool_wait_s", "s", "lower", _FANOUT),
    ("cli.emit_s", "s", "lower", "checks_per_s on registry-sweep only"),
    ("cli.emit_bytes", "bytes", "lower", "checks_per_s on registry-sweep only"),
    ("bailey.chain_s", "s", "lower", _CERT),
    ("bailey.pair_s", "s", "lower", _CERT),
    ("telescoping.certificate_s", "s", "lower", _CERT),
    ("binomial.s", "s", "lower", _CERT),
    ("series.dense_s", "s", "lower", _CERT),
) + tuple(
    (f"{layer}.self_s", "s", "lower", "self time of the layer: its share of checks_per_s")
    for layer in LAYERS
) + (
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced wall of one pass"),
)

# counts that must repeat exactly between two traced passes of one seed
STEADY_COUNTS = tuple(name for name, unit, _, _ in PER_LAYER
                      if unit in ("count", "bits", "bytes"))


def layer_values(tr, emit_bytes: int) -> dict:
    """Per-layer values (all but the tracing overhead) from one traced pass."""
    incl = tr.incl
    counts = tr.counts
    out = {
        "pochhammer.kernel_passes_prefactor": counts["pochhammer.kernel_passes_prefactor"],
        "pochhammer.kernel_s": counts["pochhammer.kernel_s"],
        "framework.eval_side_self_s": counts["framework.eval_side_self_s"],
        "framework.prefactor_s": incl["framework.prefactor"],
        "pochhammer.kernel_passes_render": counts["pochhammer.kernel_passes_render"],
        "pochhammer.kernel_passes_other": counts["pochhammer.kernel_passes_other"],
        "pochhammer.kernel_coeff_ops": counts["pochhammer.kernel_coeff_ops"],
        "pochhammer.render_s": incl["pochhammer.render"],
        "pochhammer.max_coeff_bits": tr.maxima["pochhammer.max_coeff_bits"],
        "pochhammer.terms_added": counts["pochhammer.terms_added"],
        "pochhammer.terms_zero_skipped": counts["pochhammer.terms_zero_skipped"],
        "pochhammer.product_muls": tr.calls["pochhammer.product_mul"],
        "pochhammer.sum_terms_calls": tr.calls["pochhammer.sum_terms"],
        "framework.affine_evals": counts["framework.affine_evals"],
        "framework.site_calls": counts["framework.site_calls"],
        "framework.compare_s": incl["framework.compare"],
        "engine.verify_calls": tr.calls["engine.verify"],
        "engine.verify_s": incl["engine.verify"],
        "engine.pools_started": counts["engine.pools_started"],
        "engine.pool_setup_s": counts["engine.pool_setup_s"],
        "engine.pool_shutdown_s": counts["engine.pool_shutdown_s"],
        "engine.pool_wait_s": counts["engine.pool_wait_s"],
        "cli.emit_s": incl["cli.emit"],
        "cli.emit_bytes": emit_bytes,
        "bailey.chain_s": incl["bailey.chain"],
        "bailey.pair_s": incl["bailey.pair"],
        "telescoping.certificate_s": incl["telescoping.certificate"],
        "binomial.s": tr.layer_incl["binomial"],
        "series.dense_s": tr.layer_incl["series"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tr.layer_self[layer]
    return out


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples beyond it:
    (value, percentile, samples beyond).  Needs at least eleven samples."""
    if len(samples) < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {len(samples)}")
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n, 10

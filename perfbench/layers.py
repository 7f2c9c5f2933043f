"""Per-layer metrics and cross-layer reconciliation, computed from spans.

``.s`` is the summed duration of a function's spans, ``.self_s`` that minus
the time their child spans cover, and ``<layer>.self_s`` the self time of
every span of the layer.  Spans of pool workers run in parallel, so a
parent's self time subtracts the union of its children's intervals.
"""

from __future__ import annotations

import statistics

from tracing import self_times, under

LAYERS = ("system", "pauli", "smc", "bayes", "search", "harness", "bath")

# (metric, unit, span name, field of the span aggregate)
SPAN_METRICS = (
    ("system.probabilities.calls", "count", "system.probabilities", "calls"),
    ("system.probabilities.s", "s", "system.probabilities", "s"),
    ("system.probabilities.particles", "count", "system.probabilities", "particles"),
    ("system.eigh.matrices", "count", "system.eigh", "matrices"),
    ("system.eigh.s", "s", "system.eigh", "s"),
    ("system.probabilities_over.calls", "count", "system.probabilities_over", "calls"),
    ("system.probabilities_over.s", "s", "system.probabilities_over", "s"),
    ("system.probabilities_over.experiments", "count", "system.probabilities_over", "experiments"),
    ("system.new_design.s", "s", "system.new_design", "s"),
    ("system.truth_probability.calls", "count", "system.truth_probability", "calls"),
    ("system.truth_probability.s", "s", "system.truth_probability", "s"),
    ("pauli.assemble_batch.s", "s", "pauli.assemble_batch", "s"),
    ("smc.run_qhl.calls", "count", "smc.run_qhl", "calls"),
    ("smc.run_qhl.self_s", "s", "smc.run_qhl", "self_s"),
    ("smc.bayes_update.self_s", "s", "smc.bayes_update", "self_s"),
    ("smc.design_heuristic.s", "s", "smc.design_heuristic", "s"),
    ("smc.liu_west_resample.calls", "count", "smc.liu_west_resample", "calls"),
    ("smc.liu_west_resample.s", "s", "smc.liu_west_resample", "s"),
    ("smc.volume.s", "s", "smc.volume", "s"),
    ("bayes.bayes_factor.calls", "count", "bayes.bayes_factor", "calls"),
    ("bayes.bayes_factor.s", "s", "bayes.bayes_factor", "s"),
    ("bayes.cumulative_log_likelihood.calls", "count", "bayes.cumulative_log_likelihood", "calls"),
    ("bayes.cumulative_log_likelihood.s", "s", "bayes.cumulative_log_likelihood", "s"),
    ("bayes.cumulative_log_likelihood.experiments", "count", "bayes.cumulative_log_likelihood", "experiments"),
    ("bayes.union_dataset.s", "s", "bayes.union_dataset", "s"),
    ("search.run_instance.self_s", "s", "search.run_instance", "self_s"),
    ("search.consolidate.self_s", "s", "search.consolidate", "self_s"),
    ("harness.run_batch.self_s", "s", "harness.run_batch", "self_s"),
    ("harness.write.calls", "count", "harness.write", "calls"),
    ("harness.write.s", "s", "harness.write", "s"),
    ("harness.write.bytes", "bytes", "harness.write", "bytes"),
    ("harness.emit_plot_data.s", "s", "harness.emit_plot_data", "s"),
    ("harness.aggregate_report.s", "s", "harness.aggregate_report", "s"),
    ("bath.mha_run.self_s", "s", "bath.mha_run", "self_s"),
    ("bath.cle_train.calls", "count", "bath.cle_train", "calls"),
    ("bath.cle_train.self_s", "s", "bath.cle_train", "self_s"),
    ("bath.hyper_signal_batch.calls", "count", "bath.hyper_signal_batch", "calls"),
    ("bath.hyper_signal_batch.s", "s", "bath.hyper_signal_batch", "s"),
    ("bath.hyper_signal_batch.particles", "count", "bath.hyper_signal_batch", "particles"),
    ("bath.hyper_log_likelihood.calls", "count", "bath.hyper_log_likelihood", "calls"),
    ("bath.hyper_log_likelihood.s", "s", "bath.hyper_log_likelihood", "s"),
)

DERIVED_METRICS = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("smc.resample_ratio", "ratio"),
    ("search.models_trained", "count"),
    ("harness.run_single_instance.samples", "count"),
    ("harness.run_single_instance.p50_s", "s"),
    ("harness.run_single_instance.tail_s", "s"),
    ("harness.run_single_instance.tail_pct", "pct"),
    ("harness.worker_busy_frac", "ratio"),
    ("bath.single_particle_ratio", "ratio"),
    ("bath.experiments_held", "count"),
)

# measured by comparing traced with untraced units, not from spans
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"))

UNITS = {
    **{m: unit for m, unit, *_ in SPAN_METRICS},
    **dict(DERIVED_METRICS),
    **dict(TRACE_METRICS),
}
COUNT_METRICS = tuple(m for m, unit in UNITS.items() if unit == "count")

TAIL_PERCENTILES = (99, 95, 90, 75)


def aggregate(spans) -> dict:
    """Span name -> calls, summed duration, summed self time, summed attrs."""
    selfs = self_times(spans)
    agg = {}
    for sid, _, name, start, end, attrs in spans:
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += end - start
        a["self_s"] += selfs[sid]
        for key, value in (attrs or {}).items():
            a[key] = a.get(key, 0) + value
    return agg


def tail(samples) -> tuple:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least ten
    samples above it, else the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
    return 50, statistics.median(ordered) if ordered else 0.0


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` with a span called ``ancestor`` above them."""
    inside = under(spans, ancestor)
    return sum(1 for s in spans if s[2] == name and s[0] in inside)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def unit_metrics(spans) -> dict:
    """Every span-derived per-layer metric of one traced unit."""
    agg = aggregate(spans)
    out = {m: agg.get(name, {}).get(field, 0) for m, _, name, field in SPAN_METRICS}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            a["self_s"] for name, a in agg.items() if name.startswith(layer + ".")
        )
    out["smc.resample_ratio"] = _ratio(
        count_under(spans, "smc.liu_west_resample", "smc.run_qhl"),
        count_under(spans, "smc.bayes_update", "smc.run_qhl"),
    )
    out["search.models_trained"] = count_under(spans, "smc.run_qhl", "search.run_instance")
    durations = [s[4] - s[3] for s in spans if s[2] == "harness.run_single_instance"]
    pct, value = tail(durations)
    out["harness.run_single_instance.samples"] = len(durations)
    out["harness.run_single_instance.p50_s"] = statistics.median(durations) if durations else 0.0
    out["harness.run_single_instance.tail_s"] = value
    out["harness.run_single_instance.tail_pct"] = pct
    capacity = sum(
        (s[4] - s[3]) * s[5]["workers"] for s in spans if s[2] == "harness.run_batch" and s[5]
    )
    out["harness.worker_busy_frac"] = _ratio(sum(durations), capacity)
    batches = [s for s in spans if s[2] == "bath.hyper_signal_batch"]
    singles = sum(1 for s in batches if s[5]["particles"] == 1)
    out["bath.single_particle_ratio"] = _ratio(singles, len(batches))
    out["bath.experiments_held"] = max(
        (s[5]["experiments_held"] for s in spans if s[2] == "bath.mha_run" and s[5]), default=0
    )
    return out


def combine(per_unit: list) -> dict:
    """Counts from the first traced unit (they repeat exactly); every other
    metric as the median over traced units."""
    out = {}
    for metric in per_unit[0]:
        if metric in COUNT_METRICS:
            out[metric] = per_unit[0][metric]
        else:
            out[metric] = statistics.median(u[metric] for u in per_unit)
    return out


def reconcile(spans, *, instances: int, models: int) -> list:
    """Checks that adjacent layers saw the same work: ``(name, ok, detail)``.

    ``instances`` and ``models`` are the search instances run and the models
    their artifacts list.  A check whose spans are absent is skipped.
    """
    agg = aggregate(spans)
    checks = []

    def count(name, field="calls"):
        return agg[name].get(field, 0)

    def check(name, needs, seen, expected):
        if all(n in agg for n in needs):
            seen, expected = seen(), expected()
            checks.append((name, seen == expected, f"{seen} vs {expected}"))

    if instances:
        check("harness.run_single_instance spans = instances run", ["harness.run_single_instance"],
              lambda: count("harness.run_single_instance"), lambda: instances)
        check("smc.run_qhl under search = models in artifacts", ["search.run_instance"],
              lambda: count_under(spans, "smc.run_qhl", "search.run_instance"), lambda: models)
        check("bayes_factor calls = comparisons reaching break_cycles",
              ["bayes.bayes_factor", "search.break_cycles"],
              lambda: count("bayes.bayes_factor"), lambda: count("search.break_cycles", "comparisons"))
    check("bayes_update under run_qhl = epochs trained", ["smc.run_qhl"],
          lambda: count_under(spans, "smc.bayes_update", "smc.run_qhl"),
          lambda: count("smc.run_qhl", "epochs"))
    check("liu_west_resample under run_qhl = resampled epochs in records", ["smc.run_qhl"],
          lambda: count_under(spans, "smc.liu_west_resample", "smc.run_qhl"),
          lambda: count("smc.run_qhl", "resampled"))
    check("cle_train calls = initial fit + moves of the walk", ["bath.mha_run", "bath.cle_train"],
          lambda: count("bath.cle_train"),
          lambda: count("bath.mha_run") + count("bath.mha_run", "moves"))
    return checks

"""Tests of the benchmark itself: span arithmetic, the wrappers, and that the
output checks reject a perturbed kernel and a perturbed bath likelihood.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import qmla  # noqa: E402
import qmla.bath  # noqa: E402
import qmla.search  # noqa: E402
from qmla.system import HamiltonianModel  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from tracing import Tracer, covered, install, self_times, under  # noqa: E402
from workloads import echo_dataset  # noqa: E402


def span(sid, parent, name, start, end, attrs=None):
    return (sid, parent, name, start, end, attrs)


# root 0-10 with two overlapping children (as from two pool workers), one
# child running past the root's end, and a grandchild
TREE = [
    span(1, None, "harness.run_batch", 0.0, 10.0, {"workers": 2}),
    span(2, 1, "harness.run_single_instance", 1.0, 4.0),
    span(3, 1, "harness.run_single_instance", 3.0, 6.0),
    span(4, 1, "harness.write", 8.0, 12.0, {"bytes": 7}),
    span(5, 2, "search.run_instance", 2.0, 3.0),
]


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(1, 4), (3, 6), (8, 10)]) == 7.0
    assert covered([(0, 5), (1, 2)]) == 5.0


def test_self_time_subtracts_union_of_children():
    selfs = self_times(TREE)
    assert selfs == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}


def test_aggregate_and_ancestry():
    agg = layers.aggregate(TREE)
    assert agg["harness.run_single_instance"] == {"calls": 2, "s": 6.0, "self_s": 5.0}
    assert agg["harness.write"]["bytes"] == 7
    assert under(TREE, "harness.run_single_instance") == {5}
    metrics = layers.unit_metrics(TREE)
    assert metrics["harness.self_s"] == 3.0 + 5.0 + 4.0
    assert metrics["harness.worker_busy_frac"] == 6.0 / 20.0
    assert metrics["harness.run_single_instance.samples"] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail(range(1, 41))[0] == 75
    assert layers.tail(range(1, 101))[0] == 90
    assert layers.tail([1.0, 3.0]) == (50, 2.0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_install_wraps_every_binding_and_restores():
    original = qmla.search.run_qhl
    inst = install(Tracer())
    try:
        assert not inst.missing
        assert not inst.leftover_bindings()
        assert qmla.search.run_qhl.__wrapped__ is original
        compare = qmla.search.parental_consolidation.__kwdefaults__["compare"]
        assert compare.__wrapped__ is qmla.bayes.bayes_factor.__wrapped__
        assert qmla.bath.liu_west_resample is qmla.smc.liu_west_resample
    finally:
        inst.remove()
    assert qmla.search.run_qhl is original
    assert not hasattr(qmla.search.parental_consolidation.__kwdefaults__["compare"], "__wrapped__")


def test_traced_batch_reconciles(tmp_path):
    config = qmla.parse_config({
        "mode": "simulate", "true_model": "Sz", "true_params": [3.0],
        "growth_stages": [["Sx", "Sy", "Sz"]], "num_particles": 20, "num_epochs": 6,
        "instances": 2, "parallelism": 2, "probe_policy": "random", "seed": 5,
    })
    tracer = Tracer()
    inst = install(tracer, spool_dir=tmp_path)
    try:
        qmla.run_batch(config, tmp_path / "out", workers=2)
    finally:
        inst.remove()
    tracer.collect_spool(tmp_path)
    models = sum(
        len(layer["models"])
        for i in range(2)
        for layer in json.loads((tmp_path / "out" / f"instance_{i:04d}.json").read_text())["layers"]
    )
    results = layers.reconcile(tracer.spans, instances=2, models=models)
    assert results and all(ok for _, ok, _ in results), results
    metrics = layers.unit_metrics(tracer.spans)
    assert metrics["search.models_trained"] == models
    assert metrics["smc.run_qhl.calls"] == models


def test_kernel_check_passes_and_rejects_perturbed_kernel(monkeypatch):
    assert all(ok for _, ok, _ in checks.kernel_checks(3, particles=4, designs=1))
    exact = HamiltonianModel.probabilities

    def perturbed(self, params_batch, design):
        return np.clip(exact(self, params_batch, design) + 1e-6, 0.0, 1.0)

    monkeypatch.setattr(HamiltonianModel, "probabilities", perturbed)
    results = checks.kernel_checks(3, particles=4, designs=1)
    assert not any(ok for _, ok, _ in results)


@pytest.fixture(scope="module")
def dataset():
    return echo_dataset()


def test_bath_check_passes_and_rejects_perturbed_likelihood(monkeypatch, dataset):
    assert all(ok for _, ok, _ in checks.bath_checks(3, dataset, spins=(2,), epochs=2, particles=50))
    exact = qmla.bath.hyper_signal_batch

    def perturbed(*args, **kwargs):
        return exact(*args, **kwargs) * (1.0 - 1e-6)

    monkeypatch.setattr(qmla.bath, "hyper_signal_batch", perturbed)
    results = checks.bath_checks(3, dataset, spins=(2,), epochs=2, particles=50)
    assert not any(ok for _, ok, _ in results)

"""The benchmark's workloads.

Each workload builds its inputs from the seed (``setup``), runs one timed
unit of fixed size (``run``), and checks what the unit produced
(``outcome``).  A run repeats the unit on the same inputs, so every unit of
a run must produce the same digest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
# kept back from tuning; a claim made on DEFAULT_SEED is re-checked on it
HELD_OUT_SEED = 2027


def worker_count() -> int:
    """Two pool workers, or fewer on a smaller machine."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class Outcome:
    digest: str
    operations: int
    failed_operations: int
    checks: list = field(default_factory=list)
    instances: int = 0
    models: int = 0


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _batch_outcome(report, out_dir: Path, instances: int) -> tuple:
    """Models listed and per-instance checks common to both batch workloads."""
    from checks import tree_digest

    checks = [("batch reports no failed instance", not report.failures, str(report.failures))]
    models = 0
    for i in range(instances):
        path = out_dir / f"instance_{i:04d}.json"
        if not path.is_file():
            checks.append((f"instance {i} artifact written", False, str(path.name)))
            continue
        res = json.loads(path.read_text("utf-8"))
        layer_models = [m for layer in res["layers"] for m in layer["models"]]
        models += len(layer_models)
        params = [v for m in layer_models for v in m["params"]] + res["champion"]["params"]
        checks.append((f"instance {i} parameters and R^2 finite",
                       _finite(params) and _finite([res["r_squared"]]),
                       f"R^2 = {res['r_squared']}"))
    return models, checks, tree_digest(out_dir)


class SearchDesk:
    """The paper's model search at desk scale: one in-process instance."""

    name = "search_desk"
    why = ("desk-scale model search (SxyzAz, 500 particles x 250 epochs, 9 layers, "
           "18 models): the likelihood kernel and batched 4x4 eigh dominate; bath idle")
    LAYERS, MODELS = 9, 18

    def setup(self, seed: int, out_root: Path) -> None:
        from qmla import parse_config

        self.config = parse_config({
            "mode": "simulate",
            "true_model": "SxyzAz",
            "true_params": [2.8, 5.7, 1.6, 3.4],
            "num_particles": 500,
            "num_epochs": 250,
            "instances": 1,
            "parallelism": 1,
            "seed": seed,
        })
        out_root.mkdir(parents=True, exist_ok=True)

    def run(self, out_dir: Path) -> None:
        from qmla import run_batch

        self.report = run_batch(self.config, out_dir, workers=1)

    def outcome(self, out_dir: Path) -> Outcome:
        models, checks, digest = _batch_outcome(self.report, out_dir, 1)
        res = json.loads((out_dir / "instance_0000.json").read_text("utf-8"))
        layers = len(res["layers"])
        checks.append(("search has 9 layers and 18 models",
                       layers == self.LAYERS and models == self.MODELS,
                       f"{layers} layers, {models} models"))
        return Outcome(digest, 1, len(self.report.failures), checks, instances=1, models=models)


class BatchSmall:
    """Many tiny instances through the harness process pool."""

    name = "batch_small"
    why = ("40 tiny Sz instances (150 particles x 40 epochs) on 2 workers: per-call "
           "overhead, the process pool and artifact writes dominate, not eigh flops")
    INSTANCES = 40

    def setup(self, seed: int, out_root: Path) -> None:
        from qmla import parse_config

        self.config = parse_config({
            "mode": "simulate",
            "true_model": "Sz",
            "true_params": [3.0],
            "growth_stages": [["Sx", "Sy", "Sz"]],
            "num_particles": 150,
            "num_epochs": 40,
            "instances": self.INSTANCES,
            "parallelism": worker_count(),
            "probe_policy": "random",
            "seed": seed,
        })
        out_root.mkdir(parents=True, exist_ok=True)

    def run(self, out_dir: Path) -> None:
        from qmla import run_batch

        self.report = run_batch(self.config, out_dir, workers=worker_count())

    def outcome(self, out_dir: Path) -> Outcome:
        models, checks, digest = _batch_outcome(self.report, out_dir, self.INSTANCES)
        return Outcome(digest, self.INSTANCES, len(self.report.failures), checks,
                       instances=self.INSTANCES, models=models)


def echo_dataset(n_spins: int = 8, n_points: int = 300, t_max: float = 40.0):
    """Hahn-echo data from one bath realization of fixed hyperparameters: the
    synthetic dataset of the package's bath tests."""
    import numpy as np

    from qmla import BathHyperparameters, RecordedDataset, hahn_signal, sample_bath_realization

    hyper = BathHyperparameters(
        b0=np.array([0.0, 0.0, 1.0]), b1_mean=np.array([0.7, 0.0, 0.4]),
        sigma_b=0.2, omega0=0.8, delta_omega=0.15, sigma_omega=0.08,
    )
    realization = sample_bath_realization(hyper, n_spins, np.random.default_rng(123))
    times = np.linspace(0.2, t_max, n_points)
    probs = np.array([hahn_signal(realization, hyper.b0, hyper.omega0, t) for t in times])
    return RecordedDataset(times=times, probabilities=probs, source="synthetic")


class BathWalk:
    """The spin-count walk: one-step Metropolis-Hastings walks from the true
    count.  Every step from n=8 moves, so each unit fits 24 models whatever
    the seed, and their spin counts sum to 192 +- 12: the work hardly
    depends on the seed."""

    name = "bath_walk"
    why = ("12 one-step spin-count walks from n=8 on the 8-spin, 300-point echo data, 100 "
           "epochs x 1000 particles per fit: bath fits and per-tau scoring; system idle")
    WALKS, STEPS, N_START = 12, 1, 8
    EPOCHS, PARTICLES = 100, 1000

    def setup(self, seed: int, out_root: Path) -> None:
        self.seed = seed
        self.dataset = echo_dataset()
        out_root.mkdir(parents=True, exist_ok=True)

    def run(self, out_dir: Path) -> None:
        import numpy as np

        from qmla import mha_run

        self.traces = [
            mha_run(self.dataset, self.STEPS, self.EPOCHS, self.PARTICLES,
                    np.random.default_rng([self.seed, k]), n_start=self.N_START)
            for k in range(self.WALKS)
        ]

    def outcome(self, out_dir: Path) -> Outcome:
        import hashlib

        checks = []
        blob = []
        for k, trace in enumerate(self.traces):
            record = trace.to_dict()
            lls = [s[key] for s in record["steps"] for key in ("ll_proposal", "ll_current")]
            checks.append((f"walk {k}: {self.STEPS} steps, finite scores",
                           len(record["steps"]) == self.STEPS and _finite(lls),
                           f"{len(record['steps'])} steps"))
            blob.append({"trace": record, "final": trace.final_hypers})
        digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
        return Outcome(digest, self.WALKS, 0, checks)


WORKLOADS = {w.name: w for w in (SearchDesk, BathWalk, BatchSmall)}

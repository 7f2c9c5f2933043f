"""Configuration, batch orchestration, aggregation and plot-data emission.

A batch launches independent search instances with seeds split from one
master seed, persists each instance result as JSON, and aggregates win
rates, success/credible rates, R-squared statistics and parameter
histograms.  Everything written is byte-reproducible for a fixed seed and
config.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .pauli import ModelExpression, parse_model
from .search import DEFAULT_STAGES, GrowthRule, run_instance, to_dot
from .smc import PriorSpec
from .system import (
    ExperimentDesign,
    HamiltonianModel,
    NoiseConfig,
    RecordedDataset,
    ReplaySystem,
    SimulatedSystem,
    phase_plus_state,
    plus_state,
    r_squared,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "BatchReport",
    "load_config",
    "parse_config",
    "run_batch",
    "run_single_instance",
    "compute_r_squared",
    "estimate_runtime",
    "estimate_runtime_raw",
    "emit_plot_data",
    "aggregate_report",
    "DEFAULT_CREDIBLE_MODELS",
]

DEFAULT_CREDIBLE_MODELS = ("SxyzAz", "SxyzAyz", "SxyzAxz", "SxyzAxyz")
HAMILTONIAN_EXP_SECONDS = 5e-4  # measured cost of one dense exponentiation


class ConfigError(ValueError):
    """A config file violates the schema; the message names the field."""


_TOP_LEVEL_DEFAULTS = {
    "mode": None,  # required
    "true_model": None,
    "true_params": None,
    "growth_stages": [list(s) for s in DEFAULT_STAGES],
    "num_particles": 3000,
    "num_epochs": 1000,
    "evidence_threshold": 10.0,
    "reduced_model_threshold": 100.0,
    "prior": {"low": 0.0, "high": 10.0},
    "noise": {
        "probe_offset_sigma": 0.03,
        "shot_count": 1_000_000,
        "binomial_readout": True,
    },
    "seed": 1,
    "parallelism": 6,
    "instances": 1,
    "dataset_path": None,
    "max_time_us": 10.0,
    "probe_policy": "plus",
    "credible_models": list(DEFAULT_CREDIBLE_MODELS),
    "heuristic_tail_fraction": 0.1,
    "heuristic_tail_boost": 10.0,
    "likelihood_power": 100.0,
    "eval_grid": 200,
    "bath": {
        "mha_steps": 2000,
        "cle_epochs": 100,
        "cle_particles": 1000,
        "n_start": 1,
        "n_max": None,
        "omega0": None,
        "envelope_exponent": 3.0,
        "squared_cross": True,
        "prior": None,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with defaults filled in."""

    mode: str
    true_model: str | None
    true_params: tuple | None
    growth_stages: tuple
    num_particles: int
    num_epochs: int
    evidence_threshold: float
    reduced_model_threshold: float
    prior_low: float
    prior_high: float
    noise: NoiseConfig
    seed: int
    parallelism: int
    instances: int
    dataset_path: str | None
    max_time_us: float
    probe_policy: str
    credible_models: tuple
    heuristic_tail_fraction: float
    heuristic_tail_boost: float
    likelihood_power: float
    eval_grid: int
    bath: dict

    def effective(self) -> dict:
        """The full config with defaults applied, as written to reports."""
        return {
            "mode": self.mode,
            "true_model": self.true_model,
            "true_params": list(self.true_params) if self.true_params else None,
            "growth_stages": [list(s) for s in self.growth_stages],
            "num_particles": self.num_particles,
            "num_epochs": self.num_epochs,
            "evidence_threshold": self.evidence_threshold,
            "reduced_model_threshold": self.reduced_model_threshold,
            "prior": {"low": self.prior_low, "high": self.prior_high},
            "noise": {
                "probe_offset_sigma": self.noise.probe_offset_sigma,
                "shot_count": self.noise.shot_count,
                "binomial_readout": self.noise.binomial_readout,
            },
            "seed": self.seed,
            "parallelism": self.parallelism,
            "instances": self.instances,
            "dataset_path": self.dataset_path,
            "max_time_us": self.max_time_us,
            "probe_policy": self.probe_policy,
            "credible_models": list(self.credible_models),
            "heuristic_tail_fraction": self.heuristic_tail_fraction,
            "heuristic_tail_boost": self.heuristic_tail_boost,
            "likelihood_power": self.likelihood_power,
            "eval_grid": self.eval_grid,
            "bath": self.bath,
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.effective(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def growth_rule(self) -> GrowthRule:
        return GrowthRule(
            stages=self.growth_stages, evidence_threshold=self.evidence_threshold
        )

    def replace(self, **overrides) -> "RunConfig":
        merged = self.effective()
        for key, value in overrides.items():
            if key not in merged:
                raise ConfigError(f"unknown config field {key!r}")
            merged[key] = value
        return parse_config(merged)


# numeric fields, validated before use; integers with their minimum
_INTEGER_FIELDS = {"num_particles": 2, "num_epochs": 1, "instances": 1,
                   "parallelism": 1, "seed": 0, "eval_grid": 0}
_BATH_INTEGER_FIELDS = {"mha_steps": 1, "cle_epochs": 1, "cle_particles": 2, "n_start": 1}
_REAL_FIELDS = ("evidence_threshold", "reduced_model_threshold", "max_time_us",
                "heuristic_tail_fraction", "heuristic_tail_boost", "likelihood_power")


def _check_keys(section: dict, defaults: dict, where: str) -> None:
    for key in section:
        if key not in defaults:
            raise ConfigError(f"unknown config field '{where}{key}'")


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict: unknown keys are rejected, defaults are
    filled in, and cross-field requirements are enforced."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _TOP_LEVEL_DEFAULTS, "")
    merged = {**_TOP_LEVEL_DEFAULTS, **raw}
    for section in ("prior", "noise", "bath"):
        given = raw.get(section, {})
        if given is None:
            given = {}
        if not isinstance(given, dict):
            raise ConfigError(f"{section!r} must be an object")
        _check_keys(given, _TOP_LEVEL_DEFAULTS[section], f"{section}.")
        merged[section] = {**_TOP_LEVEL_DEFAULTS[section], **given}

    mode = merged["mode"]
    if mode not in ("simulate", "replay", "bath"):
        raise ConfigError(f"mode must be simulate, replay or bath, got {mode!r}")
    if mode == "simulate" and not merged["true_model"]:
        raise ConfigError("simulate mode requires 'true_model'")
    if mode in ("replay", "bath") and not merged["dataset_path"]:
        raise ConfigError(f"{mode} mode requires 'dataset_path'")
    if merged["probe_policy"] not in ("plus", "random"):
        raise ConfigError(f"probe_policy must be plus or random")
    for name, minimum in _INTEGER_FIELDS.items():
        merged[name] = _integer(name, merged[name], minimum)
    for name in _REAL_FIELDS:
        merged[name] = _number(name, merged[name])
    _positive("likelihood_power", merged["likelihood_power"])
    prior = merged["prior"]
    for bound in ("low", "high"):
        prior[bound] = _number(f"prior.{bound}", prior[bound])
    if not prior["low"] < prior["high"]:
        raise ConfigError("prior.low must be below prior.high")

    true_model = merged["true_model"]
    true_params = merged["true_params"]
    try:
        if true_model is not None:
            expr = parse_model(true_model)
            true_model = expr.name
            if true_params is not None and len(true_params) != expr.num_terms:
                raise ConfigError(
                    f"true_params must have {expr.num_terms} entries for {true_model}"
                )
        if true_params is not None:
            true_params = tuple(
                _number(f"true_params[{i}]", v) for i, v in enumerate(true_params)
            )
        noise = NoiseConfig(
            probe_offset_sigma=float(merged["noise"]["probe_offset_sigma"]),
            shot_count=_integer("noise.shot_count", merged["noise"]["shot_count"], 1),
            binomial_readout=bool(merged["noise"]["binomial_readout"]),
        )
        growth_stages = tuple(tuple(s) for s in merged["growth_stages"])
        GrowthRule(stages=growth_stages)
        credible = tuple(parse_model(name).name for name in merged["credible_models"])
        _check_bath(merged["bath"])
    except (ValueError, TypeError) as err:  # ConfigError keeps its message
        raise ConfigError(str(err)) from err

    return RunConfig(
        mode=mode,
        true_model=true_model,
        true_params=true_params,
        growth_stages=growth_stages,
        num_particles=merged["num_particles"],
        num_epochs=merged["num_epochs"],
        evidence_threshold=merged["evidence_threshold"],
        reduced_model_threshold=merged["reduced_model_threshold"],
        prior_low=prior["low"],
        prior_high=prior["high"],
        noise=noise,
        seed=merged["seed"],
        parallelism=merged["parallelism"],
        instances=merged["instances"],
        dataset_path=merged["dataset_path"],
        max_time_us=merged["max_time_us"],
        probe_policy=merged["probe_policy"],
        credible_models=credible,
        heuristic_tail_fraction=merged["heuristic_tail_fraction"],
        heuristic_tail_boost=merged["heuristic_tail_boost"],
        likelihood_power=merged["likelihood_power"],
        eval_grid=merged["eval_grid"],
        bath=merged["bath"],
    )


def _number(name: str, value) -> float:
    """A finite real config value, else a ``ConfigError`` naming the field."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _positive(name: str, value) -> float:
    """A finite config value above zero."""
    value = _number(name, value)
    if value <= 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


def _check_bath(bath: dict) -> None:
    """Validate the bath section.  Values are kept as given, so a valid
    section hashes as it did before it was checked."""
    for name, minimum in _BATH_INTEGER_FIELDS.items():
        _integer(f"bath.{name}", bath[name], minimum)
    if bath["n_max"] is not None:
        _integer("bath.n_max", bath["n_max"], bath["n_start"])
    if bath["omega0"] is not None:
        _positive("bath.omega0", bath["omega0"])
    _positive("bath.envelope_exponent", bath["envelope_exponent"])
    if not isinstance(bath["squared_cross"], bool):
        raise ConfigError(f"bath.squared_cross must be true or false, got {bath['squared_cross']!r}")
    if bath["prior"] is not None:
        try:
            PriorSpec(tuple(tuple(m) for m in bath["prior"]))
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bath.prior: {err}") from err


def _integer(name: str, value, minimum: int) -> int:
    """An integer config value of at least ``minimum``; integral floats such
    as 3.0 are accepted, 2.7 is not truncated but rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return parse_config(raw)


# ---------------------------------------------------------------------------
# instances and batches


def run_single_instance(config: RunConfig, index: int) -> dict:
    """Run one search instance with its counter-derived seed; returns the
    result as a JSON-ready dict."""
    seq = np.random.SeedSequence([config.seed, index])
    setup_rng = np.random.default_rng(seq.spawn(1)[0])
    env_phase = float(setup_rng.uniform(0.0, 2.0 * math.pi))
    truth = None
    if config.mode == "simulate":
        truth = parse_model(config.true_model)
        if config.true_params is not None:
            params = np.array(config.true_params, dtype=float)
        else:
            params = setup_rng.uniform(
                config.prior_low, config.prior_high, size=truth.num_terms
            )
        system = SimulatedSystem(
            truth,
            params,
            noise=config.noise,
            probe_policy=config.probe_policy,
            env_phase=env_phase,
            max_time=config.max_time_us,
        )
        truth_params = [float(v) for v in params]
    else:
        dataset = RecordedDataset.from_csv(config.dataset_path)
        system = ReplaySystem(dataset, noise=config.noise, env_phase=env_phase)
        truth_params = None

    result, _ = run_instance(
        system,
        config.growth_rule(),
        (config.prior_low, config.prior_high),
        config.num_epochs,
        config.num_particles,
        seq,
        truth=truth,
        eval_grid=config.eval_grid,
        reduced_threshold=config.reduced_model_threshold,
        tail_fraction=config.heuristic_tail_fraction,
        tail_boost=config.heuristic_tail_boost,
        likelihood_power=config.likelihood_power,
    )
    result.seed = [config.seed, index]
    result.config_hash = config.config_hash
    out = result.to_dict()
    out["instance"] = index
    out["truth_params"] = truth_params
    return out


def _instance_job(args) -> dict:
    config, index = args
    return run_single_instance(config, index)


@dataclass
class BatchReport:
    instances: int
    config: dict
    win_counts: dict
    win_rates: dict
    success_rate: float | None
    credible_rate: float | None
    median_r_squared: float | None
    classification_counts: dict
    parameter_values: dict
    delta_histogram: dict
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "config": self.config,
            "win_counts": self.win_counts,
            "win_rates": self.win_rates,
            "success_rate": self.success_rate,
            "credible_rate": self.credible_rate,
            "median_r_squared": self.median_r_squared,
            "classification_counts": self.classification_counts,
            "parameter_values": self.parameter_values,
            "delta_histogram": self.delta_histogram,
            "failures": self.failures,
        }


def aggregate_report(config: RunConfig, results: list, failures: list) -> BatchReport:
    """Fold per-instance results into batch statistics."""
    win_counts, classifications, delta_hist = {}, {}, {}
    param_values = {}
    r2_values = []
    successes = credible = truth_known = 0
    for res in results:
        champion = res["champion"]["name"]
        win_counts[champion] = win_counts.get(champion, 0) + 1
        if res.get("r_squared") is not None:
            r2_values.append(res["r_squared"])
        expr = parse_model(champion)
        for term, value in zip(expr.term_labels, res["champion"]["params"]):
            param_values.setdefault(term, []).append(float(value))
        if res.get("truth"):
            truth_known += 1
            if champion == res["truth"]:
                successes += 1
            if champion in config.credible_models:
                credible += 1
            cls = res.get("classification")
            classifications[cls] = classifications.get(cls, 0) + 1
            delta = expr.num_terms - res["truth_num_params"]
            delta_hist[str(delta)] = delta_hist.get(str(delta), 0) + 1
    completed = len(results)
    return BatchReport(
        instances=config.instances,
        config=config.effective(),
        win_counts=dict(sorted(win_counts.items())),
        win_rates={
            name: count / completed for name, count in sorted(win_counts.items())
        }
        if completed
        else {},
        success_rate=successes / truth_known if truth_known else None,
        credible_rate=credible / truth_known if truth_known else None,
        median_r_squared=float(np.median(r2_values)) if r2_values else None,
        classification_counts=dict(sorted(classifications.items())),
        parameter_values={k: v for k, v in sorted(param_values.items())},
        delta_histogram=dict(sorted(delta_hist.items())),
        failures=failures,
    )


def _write_json_atomic(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_batch(config: RunConfig, out_dir, *, workers: int | None = None) -> BatchReport:
    """Run all configured instances, persist each result, aggregate a report.

    Instance failures are recorded and the batch continues; the report lists
    them.  ``workers`` overrides the configured parallelism.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = config.parallelism if workers is None else workers
    jobs = [(config, i) for i in range(config.instances)]
    results, failures = [], []
    if workers > 1 and config.instances > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(_instance_job, job) for i, job in enumerate(jobs)}
            for i in range(config.instances):
                try:
                    results.append(futures[i].result())
                except Exception as err:  # noqa: BLE001 - batch continues
                    failures.append({"instance": i, "error": str(err)})
    else:
        for i, job in enumerate(jobs):
            try:
                results.append(_instance_job(job))
            except Exception as err:  # noqa: BLE001
                failures.append({"instance": i, "error": str(err)})
    results.sort(key=lambda r: r["instance"])
    for res in results:
        _write_json_atomic(out_dir / f"instance_{res['instance']:04d}.json", res)
    report = aggregate_report(config, results, failures)
    emit_plot_data(results, out_dir, credible_models=config.credible_models)
    _write_json_atomic(out_dir / "report.json", report.to_dict())
    return report


# ---------------------------------------------------------------------------
# metrics


def compute_r_squared(
    expression: ModelExpression,
    params,
    dataset: RecordedDataset,
    *,
    env_phase: float = 0.0,
) -> float:
    """R^2 of a trained model's predicted dynamics against recorded data."""
    probe_sys, probe_env = plus_state(), phase_plus_state(env_phase)
    designs = [
        ExperimentDesign(
            time=float(t),
            probe_id="plus",
            probe_sys=probe_sys,
            probe_env=probe_env,
            source=dataset.source,
        )
        for t in dataset.times
    ]
    predicted = HamiltonianModel(expression).probabilities_over(params, designs)
    return r_squared(predicted, dataset.probabilities)


# ---------------------------------------------------------------------------
# runtime estimation


def enumerate_layers(stages) -> tuple:
    """Model and comparison counts per layer implied by greedy growth:
    a stage of m terms contributes layers of m, m-1, ..., 1 models."""
    models_per_layer = []
    for stage in stages:
        for remaining in range(len(stage), 0, -1):
            models_per_layer.append(remaining)
    comparisons_per_layer = [m * (m - 1) // 2 for m in models_per_layer]
    return models_per_layer, comparisons_per_layer


def estimate_runtime_raw(
    stages,
    num_particles: int,
    num_epochs: int,
    parallelism: int,
    t_h: float = HAMILTONIAN_EXP_SECONDS,
) -> float:
    """Expected wall-clock seconds for one instance.

    Cost model: training a model takes N_P * N_E exponentiations and each
    pairwise comparison twice that; jobs run in rounds of ``parallelism``.
    The final consolidation of the N_C layer champions is costed at its
    all-pairs comparison count.
    """
    if num_particles <= 0 or num_epochs <= 0:
        return 0.0
    models, comparisons = enumerate_layers(stages)
    n_layers = len(models)
    champion_pairs = n_layers * (n_layers - 1) // 2
    rounds = (
        sum(math.ceil(m / parallelism) for m in models)
        + 2 * sum(math.ceil(c / parallelism) for c in comparisons if c)
        + 2 * math.ceil((n_layers - 1) / parallelism)
        + 2 * math.ceil(champion_pairs / parallelism)
    )
    return t_h * rounds * num_particles * num_epochs


def estimate_runtime(config: RunConfig, t_h: float = HAMILTONIAN_EXP_SECONDS) -> float:
    return estimate_runtime_raw(
        config.growth_stages,
        config.num_particles,
        config.num_epochs,
        config.parallelism,
        t_h,
    )


# ---------------------------------------------------------------------------
# plot-ready exports


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def emit_plot_data(results: list, out_dir, *, credible_models=DEFAULT_CREDIBLE_MODELS):
    """Write plot-ready CSVs (volumes, champion dynamics, win rates,
    parameter histograms) and a DOT rendering of each comparative graph."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    volume_rows = []
    dynamics_rows = []
    param_rows = []
    winrate_rows = {}
    for res in results:
        idx = res["instance"]
        champion = res["champion"]["name"]
        keep = set(credible_models) | {champion}
        for model, volumes in res.get("volumes", {}).items():
            if model not in keep:
                continue
            volume_rows.extend(
                (idx, model, epoch, vol) for epoch, vol in enumerate(volumes)
            )
        dyn = res.get("champion_dynamics", {})
        for t, obs, pred in zip(
            dyn.get("times", []), dyn.get("observed", []), dyn.get("predicted", [])
        ):
            dynamics_rows.append((idx, champion, t, obs, pred))
        expr = parse_model(champion)
        for term, value in zip(expr.term_labels, res["champion"]["params"]):
            param_rows.append((term, value))
        if res.get("truth"):
            delta = expr.num_terms - res["truth_num_params"]
            key = (delta, res.get("classification"))
            winrate_rows[key] = winrate_rows.get(key, 0) + 1

    _write_csv(
        out_dir / "volume_vs_epoch.csv", "instance,model,epoch,volume", volume_rows
    )
    _write_csv(
        out_dir / "champion_dynamics.csv",
        "instance,model,time_us,observed,predicted",
        dynamics_rows,
    )
    _write_csv(
        out_dir / "parameter_histograms.csv",
        "term,value",
        sorted(param_rows),
    )
    _write_csv(
        out_dir / "win_rate.csv",
        "param_delta,classification,count",
        [(k[0], k[1], v) for k, v in sorted(winrate_rows.items())],
    )
    for res in results:
        dot = _comparisons_to_dot(res)
        (out_dir / f"instance_{res['instance']:04d}.dot").write_text(
            dot, encoding="utf-8"
        )


def _comparisons_to_dot(res: dict) -> str:
    from .bayes import BayesFactorResult

    comparisons = [
        BayesFactorResult(
            model_i=c["model_i"],
            model_j=c["model_j"],
            log_bayes_factor=c["log_bayes_factor"],
            dataset_size=c["dataset_size"],
            direction=c["direction"],
        )
        for c in res.get("comparisons", [])
    ]
    return to_dot(comparisons)

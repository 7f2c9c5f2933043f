"""Configuration, batch orchestration, aggregation and plot-data emission.

A batch launches independent search instances with seeds split from one
master seed, persists each instance result as JSON, and aggregates win
rates, success/credible rates, R-squared statistics and parameter
histograms.  Everything written is byte-reproducible for a fixed seed and
config.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bath import DEFAULT_BATH_PRIOR
from .bayes import BayesFactorResult
from .pauli import parse_model
from .search import DEFAULT_STAGES, GrowthRule, run_instance, to_dot
from .smc import PriorSpec
from .system import NoiseConfig, RecordedDataset, ReplaySystem, SimulatedSystem

__all__ = [
    "ConfigError",
    "RunConfig",
    "BatchReport",
    "load_config",
    "parse_config",
    "run_batch",
    "run_single_instance",
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


# ---------------------------------------------------------------------------
# config checks: each turns the raw JSON value of the field ``name`` into the
# stored value, or raises ``ConfigError`` naming the field


def _number(name: str, value) -> float:
    """A finite real config value, else a ``ConfigError`` naming the field."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _positive(name: str, value) -> float:
    """A finite config value above zero."""
    value = _number(name, value)
    if value <= 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


def _fraction(name: str, value) -> float:
    """A config value in [0, 1]."""
    value = _number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _threshold(name: str, value) -> float:
    """A Bayes-factor threshold: below 1 it would invert the inconclusive
    band and record the less likely model as the winner."""
    value = _number(name, value)
    if value < 1.0:
        raise ConfigError(f"{name} must be at least 1, got {value!r}")
    return value


def _integer(name: str, value, minimum: int = 1) -> int:
    """An integer config value of at least ``minimum``; integral floats such
    as 3.0 are accepted, 2.7 is not truncated but rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    _number(name, value)  # counts enter float arithmetic: reject ints beyond float range
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _list(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _names(name: str, value) -> tuple:
    return tuple(_string(f"{name}[{i}]", v) for i, v in enumerate(_list(name, value)))


def _model(name: str, value) -> str:
    return parse_model(_string(name, value)).name


def _models(name: str, value) -> tuple:
    return tuple(parse_model(v).name for v in _names(name, value))


def _numbers(name: str, value) -> tuple:
    if not _list(name, value):
        raise ConfigError(f"{name} must not be empty")
    return tuple(_number(f"{name}[{i}]", v) for i, v in enumerate(value))


def _stages(name: str, value) -> tuple:
    stages = tuple(_names(f"{name}[{i}]", s) for i, s in enumerate(_list(name, value)))
    GrowthRule(stages=stages)
    return stages


def _marginals(name: str, value) -> tuple:
    """One ``(kind, a, b)`` marginal per bath hyperparameter, as
    ``PriorSpec`` accepts them."""
    marginals = []
    for i, m in enumerate(_list(name, value)):
        where = f"{name}[{i}]"
        m = _list(where, m)
        if len(m) != 3:
            raise ConfigError(f"{where} must be [kind, a, b], got {list(m)!r}")
        marginals.append((m[0], _number(f"{where}[1]", m[1]), _number(f"{where}[2]", m[2])))
    PriorSpec(tuple(marginals))  # rejects unknown kinds and empty ranges
    needed = DEFAULT_BATH_PRIOR.num_params
    if len(marginals) != needed:
        raise ConfigError(f"{name} needs {needed} marginals, got {len(marginals)}")
    return tuple(marginals)


def _optional(check):
    """``check`` for a field that may also be null."""
    return lambda name, value: None if value is None else check(name, value)


def _choice(*options):
    def check(name, value):
        if value not in options:
            raise ConfigError(f"{name} must be one of {', '.join(options)}, got {value!r}")
        return value
    return check


def _checked(raw: dict, table: dict, where: str = "") -> dict:
    """Run each ``key: (default, check)`` of ``table`` on ``raw``, filling in
    the defaults; keys outside the table are rejected."""
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown config field '{where}{key}'")
    checked = {}
    for key, (default, check) in table.items():
        name = where + key
        try:
            checked[key] = check(name, raw.get(key, default))
        except ConfigError:
            raise
        except (ValueError, TypeError) as err:
            raise ConfigError(f"{name}: {err}") from err
    return checked


def _section(name: str, value, table: dict) -> dict:
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name!r} must be an object")
    return _checked(value, table, f"{name}.")


_PRIOR = {"low": (0.0, _number), "high": (10.0, _number)}
_NOISE = {  # the defaults are NoiseConfig's own
    "probe_offset_sigma": (NoiseConfig.probe_offset_sigma, _number),
    "shot_count": (NoiseConfig.shot_count, _integer),
}
_BATH = {
    "mha_steps": (2000, _integer),
    "cle_epochs": (100, _integer),
    "cle_particles": (1000, lambda name, value: _integer(name, value, 2)),
    "n_start": (1, _integer),
    "n_max": (None, _optional(_integer)),
    "omega0": (None, _optional(_positive)),
    "envelope_exponent": (3.0, _positive),
    "prior": (None, _optional(_marginals)),
}


def _field(default, check):
    """A ``RunConfig`` field: the raw value used when the key is absent, and
    the check that turns a raw value into the stored one."""
    return field(metadata={"schema": (default, check)})


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with defaults filled in.  Its fields are
    the config schema: ``parse_config`` runs each field's check."""

    mode: str = _field(None, _choice("simulate", "replay", "bath"))
    true_model: str | None = _field(None, _optional(_model))
    true_params: tuple | None = _field(None, _optional(_numbers))
    growth_stages: tuple = _field(DEFAULT_STAGES, _stages)
    num_particles: int = _field(3000, lambda name, value: _integer(name, value, 2))
    num_epochs: int = _field(1000, _integer)
    evidence_threshold: float = _field(10.0, _threshold)
    reduced_model_threshold: float = _field(100.0, _threshold)
    prior: dict = _field({}, lambda name, value: _section(name, value, _PRIOR))
    noise: NoiseConfig = _field(
        {}, lambda name, value: NoiseConfig(**_section(name, value, _NOISE))
    )
    seed: int = _field(1, lambda name, value: _integer(name, value, 0))
    parallelism: int = _field(6, _integer)
    instances: int = _field(1, _integer)
    dataset_path: str | None = _field(None, _optional(_string))
    max_time_us: float = _field(10.0, _positive)
    probe_policy: str = _field("plus", _choice("plus", "random"))
    credible_models: tuple = _field(DEFAULT_CREDIBLE_MODELS, _models)
    heuristic_tail_fraction: float = _field(0.1, _fraction)
    heuristic_tail_boost: float = _field(10.0, _positive)
    likelihood_power: float = _field(100.0, _positive)
    eval_grid: int = _field(200, lambda name, value: _integer(name, value, 0))
    bath: dict = _field({}, lambda name, value: _section(name, value, _BATH))

    def effective(self) -> dict:
        """The full config with defaults applied, as written to reports."""
        return asdict(self)

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.effective(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def growth_rule(self) -> GrowthRule:
        return GrowthRule(
            stages=self.growth_stages, evidence_threshold=self.evidence_threshold
        )


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict: unknown keys are rejected, each field's
    check fills in its default, then the rules tying fields together are
    enforced."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    schema = {f.name: f.metadata["schema"] for f in fields(RunConfig)}
    config = RunConfig(**_checked(raw, schema))
    if config.mode == "simulate" and not config.true_model:
        raise ConfigError("simulate mode requires 'true_model'")
    if config.mode != "simulate" and not config.dataset_path:
        raise ConfigError(f"{config.mode} mode requires 'dataset_path'")
    if config.mode == "replay" and config.noise.shot_count != NoiseConfig.shot_count:
        raise ConfigError(
            "noise.shot_count is not read in replay mode (a replayed outcome is "
            f"the recorded frequency), got {config.noise.shot_count!r}"
        )
    if config.mode == "bath" and config.noise != NoiseConfig():
        raise ConfigError(f"noise is not read in bath mode, got {config.noise!r}")
    if not config.prior["low"] < config.prior["high"]:
        raise ConfigError("prior.low must be below prior.high")
    if config.true_model and config.true_params:
        expected = parse_model(config.true_model).num_terms
        if len(config.true_params) != expected:
            raise ConfigError(
                f"true_params must have {expected} entries for {config.true_model}"
            )
    n_start, n_max = config.bath["n_start"], config.bath["n_max"]
    if n_max is not None and n_max < n_start:
        raise ConfigError(
            f"bath.n_max must be at least bath.n_start ({n_start}), got {n_max!r}"
        )
    return config


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:  # a directory, not UTF-8, not JSON
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
                config.prior["low"], config.prior["high"], size=truth.num_terms
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
        (config.prior["low"], config.prior["high"]),
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
    result.update(
        seed=[config.seed, index],
        config_hash=config.config_hash,
        instance=index,
        truth_params=truth_params,
    )
    return result


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
    r_squared_undefined: int  # instances whose R^2 is undefined, not in the median
    classification_counts: dict
    parameter_values: dict
    delta_histogram: dict
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


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
        r_squared_undefined=len(results) - len(r2_values),
        classification_counts=dict(sorted(classifications.items())),
        parameter_values={k: v for k, v in sorted(param_values.items())},
        delta_histogram=dict(sorted(delta_hist.items())),
        failures=failures,
    )


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` in one step: write a temporary file beside
    it, created with the default mode, and rename it over ``path``.  A failed
    write leaves the old file in place and no temporary file behind."""
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json_atomic(path: Path, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=1))


def run_batch(config: RunConfig, out_dir, *, workers: int | None = None) -> BatchReport:
    """Run all configured instances, persist each result, aggregate a report.

    Each ``instance_NNNN.json`` is written as its result is collected, in
    index order.  Instance failures are recorded and the batch continues; the
    report lists them.  ``workers`` overrides the configured parallelism; the
    pool is never wider than the batch.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(config.parallelism if workers is None else workers, config.instances)
    jobs = [(config, i) for i in range(config.instances)]
    results, failures = [], []
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            pending = [pool.submit(_instance_job, job).result for job in jobs]
        else:
            pending = [functools.partial(_instance_job, job) for job in jobs]
        for i, outcome in enumerate(pending):
            try:
                res = outcome()
            except Exception as err:  # noqa: BLE001 - batch continues
                failures.append({"instance": i, "error": str(err)})
                continue
            _write_json_atomic(out_dir / f"instance_{i:04d}.json", res)
            results.append(res)
    report = aggregate_report(config, results, failures)
    emit_plot_data(results, out_dir, credible_models=config.credible_models)
    _write_json_atomic(out_dir / "report.json", report.to_dict())
    return report


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
    return HAMILTONIAN_EXP_SECONDS * rounds * num_particles * num_epochs


def estimate_runtime(config: RunConfig) -> float:
    return estimate_runtime_raw(
        config.growth_stages,
        config.num_particles,
        config.num_epochs,
        config.parallelism,
    )


# ---------------------------------------------------------------------------
# plot-ready exports


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    _write_atomic(path, "".join(line + "\n" for line in lines))


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
        for model, volumes in sorted(res.get("volumes", {}).items()):
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
        _write_atomic(out_dir / f"instance_{res['instance']:04d}.dot", _comparisons_to_dot(res))


def _comparisons_to_dot(res: dict) -> str:
    return to_dot([BayesFactorResult(**c) for c in res.get("comparisons", [])])

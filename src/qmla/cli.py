"""Command-line entry points.

``qmla run``       launch a batch of search instances from a JSON config
``qmla bath``      estimate the bath spin count and T2 from Hahn-echo data
``qmla estimate``  print the expected runtime of one instance
``qmla report``    re-aggregate a results directory

Exit codes: 0 success, 2 config error, 3 partial batch failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bath import (
    DEFAULT_BATH_PRIOR,
    FitError,
    estimate_T2,
    fit_logistic,
    mha_run,
)
from .harness import (
    ConfigError,
    aggregate_report,
    emit_plot_data,
    estimate_runtime,
    load_config,
    parse_config,
    run_batch,
    _integer,
    _write_csv,
    _write_json_atomic,
)
from .pauli import parse_model
from .smc import PriorSpec
from .system import RecordedDataset


def _read_dataset(path) -> RecordedDataset:
    """The recorded dataset at ``path``, or a ``ConfigError`` naming it."""
    try:
        return RecordedDataset.from_csv(path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read dataset {path}: {err}") from err


def _read_json(path):
    """The JSON value stored at ``path``, or a ``ConfigError`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err


def _read_instance(path) -> dict:
    """The instance result stored at ``path``, or a ``ConfigError`` naming it."""
    res = _read_json(path)
    champion = res.get("champion") if isinstance(res, dict) else None
    if not (
        isinstance(champion, dict)
        and isinstance(res.get("instance"), int)
        and isinstance(champion.get("name"), str)
        and isinstance(champion.get("params"), list)
    ):
        raise ConfigError(f"{path} is not an instance result")
    if not all(isinstance(v, (int, float)) for v in champion["params"]):
        raise ConfigError(f"{path}: champion params must be numbers")
    if res.get("truth") and not isinstance(res.get("truth_num_params"), int):
        raise ConfigError(f"{path}: a truth needs an integer truth_num_params")
    if not isinstance(res.get("r_squared"), (int, float, type(None))):
        raise ConfigError(f"{path}: r_squared must be a number or null")
    volumes = res.get("volumes", {})
    if not (isinstance(volumes, dict) and all(isinstance(v, list) for v in volumes.values())):
        raise ConfigError(f"{path}: volumes must map model names to lists")
    if not isinstance(res.get("champion_dynamics", {}), dict):
        raise ConfigError(f"{path}: champion_dynamics must be an object")
    if not isinstance(res.get("classification"), (str, type(None))):
        raise ConfigError(f"{path}: classification must be a string or null")
    try:
        parse_model(champion["name"])
    except ValueError as err:
        raise ConfigError(f"{path}: bad champion name: {err}") from err
    return res


def _load_search_config(path):
    """The config at ``path``, which must describe a model search."""
    config = load_config(path)
    if config.mode not in ("simulate", "replay"):
        raise ConfigError(
            f"mode {config.mode!r} runs no model search; 'qmla run' and "
            "'qmla estimate' need a simulate or replay config"
        )
    return config


def _cmd_run(args) -> int:
    config = _load_search_config(args.config)
    if config.mode == "replay":  # each instance reads it; fail before any output
        _read_dataset(config.dataset_path)
    if args.parallelism is None:
        workers = config.parallelism
    else:
        workers = _integer("--parallelism", args.parallelism)
    report = run_batch(config, args.out, workers=workers)
    print(f"completed {config.instances - len(report.failures)}/{config.instances} instances")
    for name, count in report.win_counts.items():
        print(f"  {name}: {count} wins")
    if report.success_rate is not None:
        print(f"success rate: {report.success_rate:.2f}")
    if report.credible_rate is not None:
        print(f"credible rate: {report.credible_rate:.2f}")
    if report.median_r_squared is not None:
        print(f"median R^2: {report.median_r_squared:.3f}")
    if report.r_squared_undefined:
        print(f"R^2 undefined (flat observations) for {report.r_squared_undefined} instances")
    print(f"report written to {Path(args.out) / 'report.json'}")
    return 3 if report.failures else 0


def _cmd_bath(args) -> int:
    config = load_config(args.config)
    if config.mode != "bath":
        raise ConfigError("'qmla bath' needs a config with mode 'bath'")
    dataset = _read_dataset(config.dataset_path)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bath = config.bath
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    trace = mha_run(
        dataset,
        bath["mha_steps"],
        bath["cle_epochs"],
        bath["cle_particles"],
        rng,
        prior=DEFAULT_BATH_PRIOR if bath["prior"] is None else PriorSpec(bath["prior"]),
        n_start=bath["n_start"],
        n_max=bath["n_max"],
        likelihood_power=config.likelihood_power,
    )
    _write_json_atomic(out_dir / "mha_trace.json", trace.to_dict())
    _write_csv(
        out_dir / "mha_trace.csv",
        "step,n_before,proposal,ll_proposal,ll_current,accepted,n_after",
        (
            (s["step"], s["n_before"], s["proposal"], s["ll_proposal"],
             s["ll_current"], int(s["accepted"]), s["n_after"])
            for s in trace.steps
        ),
    )
    samples = trace.log_likelihood_samples()
    _write_csv(
        out_dir / "plateau.csv",
        "n_s,mean_abs_loglik",
        ((n, float(np.mean(samples[n]))) for n in sorted(samples)),
    )
    fits: dict = {"final_n": trace.current_n}
    try:
        logistic = fit_logistic(trace)
        fits["logistic"] = logistic.to_dict()
        print(f"plateau onset: {logistic.plateau_onset:.1f} spins")
    except (ValueError, FitError) as err:
        fits["logistic"] = {"error": str(err)}
        print(f"logistic fit unavailable: {err}")
    omega0 = bath["omega0"]
    if omega0 is None and trace.final_hypers is not None:
        omega0 = trace.final_hypers["omega0"]
    if omega0:
        try:
            t2 = estimate_T2(dataset, omega0, exponent=bath["envelope_exponent"])
            fits["t2"] = t2.to_dict()
            if math.isfinite(t2.t2):
                print(f"T2 = {t2.t2:.1f} +/- {t2.stderr:.1f} us")
            else:
                print("no decay detected in revival envelope")
        except (ValueError, FitError) as err:
            fits["t2"] = {"error": str(err)}
            print(f"T2 fit unavailable: {err}")
    _write_json_atomic(out_dir / "fits.json", fits)
    print(f"bath analysis written to {out_dir}")
    return 0


def _cmd_estimate(args) -> int:
    config = _load_search_config(args.config)
    seconds = estimate_runtime(config)
    print(f"expected runtime per instance: {seconds:.0f} s ({seconds / 3600.0:.2f} h)")
    rounds = math.ceil(config.instances / max(1, config.parallelism))
    print(
        f"batch of {config.instances} at parallelism {config.parallelism}: "
        f"~{rounds * seconds / 3600.0:.2f} h"
    )
    return 0


def _cmd_report(args) -> int:
    out_dir = Path(args.dir)
    report_path = out_dir / "report.json"
    if not report_path.exists():
        raise ConfigError(f"{report_path} not found; run a batch first")
    stored = _read_json(report_path)
    if not isinstance(stored, dict) or "config" not in stored:
        raise ConfigError(f"{report_path} holds no 'config' object")
    config = parse_config(stored["config"])
    results = [_read_instance(path) for path in sorted(out_dir.glob("instance_*.json"))]
    report = aggregate_report(config, results, stored.get("failures", []))
    emit_plot_data(results, out_dir, credible_models=config.credible_models)
    _write_json_atomic(report_path, report.to_dict())
    print(f"re-aggregated {len(results)} instances into {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmla",
        description="Bayesian model learning for quantum spin systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a batch of search instances")
    run.add_argument("config", help="path to a JSON config")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--parallelism", type=int, default=None,
                     help="worker processes (overrides the config's parallelism)")
    run.set_defaults(func=_cmd_run)

    bath = sub.add_parser("bath", help="spin-bath estimation from Hahn-echo data")
    bath.add_argument("config", help="path to a JSON config with mode 'bath'")
    bath.add_argument("--out", required=True, help="output directory")
    bath.set_defaults(func=_cmd_bath)

    estimate = sub.add_parser("estimate", help="print the expected runtime")
    estimate.add_argument("config", help="path to a JSON config")
    estimate.set_defaults(func=_cmd_estimate)

    report = sub.add_parser("report", help="re-aggregate a results directory")
    report.add_argument("dir", help="directory with instance_*.json files")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import json

import numpy as np
import pytest

from qmla.harness import (
    ConfigError,
    compute_r_squared,
    emit_plot_data,
    enumerate_layers,
    estimate_runtime_raw,
    load_config,
    parse_config,
    run_batch,
    run_single_instance,
)
from qmla.pauli import parse_model
from qmla.search import DEFAULT_STAGES
from qmla.system import RecordedDataset, r_squared


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SMALL_SIM = {
    "mode": "simulate",
    "true_model": "Sz",
    "true_params": [3.0],
    "growth_stages": [["Sx", "Sy", "Sz"]],
    "num_particles": 150,
    "num_epochs": 40,
    "instances": 2,
    "parallelism": 1,
    "probe_policy": "random",
    "noise": {"probe_offset_sigma": 0.0},
    "seed": 5,
}


class TestConfig:
    def test_defaults_filled(self, tmp_path):
        path = write_config(tmp_path, {"mode": "simulate", "true_model": "SxyzAz"})
        config = load_config(path)
        assert config.num_particles == 3000
        assert config.num_epochs == 1000
        assert config.parallelism == 6
        assert config.noise.probe_offset_sigma == 0.03
        assert config.noise.shot_count == 1_000_000
        assert config.growth_stages == DEFAULT_STAGES
        assert config.credible_models == ("SxyzAz", "SxyzAyz", "SxyzAxz", "SxyzAxyz")

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"mode": "simulate", "true_model": "Sz", "nope": 1})
        with pytest.raises(ConfigError, match="nope"):
            load_config(path)

    def test_nested_unknown_key(self):
        with pytest.raises(ConfigError, match="noise.shots"):
            parse_config(
                {"mode": "simulate", "true_model": "Sz", "noise": {"shots": 5}}
            )

    def test_replay_requires_dataset(self):
        with pytest.raises(ConfigError, match="dataset_path"):
            parse_config({"mode": "replay"})

    def test_simulate_requires_model(self):
        with pytest.raises(ConfigError, match="true_model"):
            parse_config({"mode": "simulate"})

    def test_param_count_checked(self):
        with pytest.raises(ConfigError, match="4 entries"):
            parse_config(
                {"mode": "simulate", "true_model": "SxyzAz", "true_params": [1.0]}
            )

    def test_invalid_mode_and_counts(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"mode": "train"})
        with pytest.raises(ConfigError, match="num_particles"):
            parse_config(
                {"mode": "simulate", "true_model": "Sz", "num_particles": 0}
            )

    def test_hash_stable_and_sensitive(self):
        a = parse_config({"mode": "simulate", "true_model": "Sz"})
        b = parse_config({"mode": "simulate", "true_model": "Sz"})
        c = parse_config({"mode": "simulate", "true_model": "Sz", "seed": 2})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash


class TestRSquared:
    def test_perfect_prediction(self):
        assert r_squared([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 1.0

    def test_mean_prediction_is_zero(self):
        observed = np.array([0.2, 0.4, 0.9])
        predicted = np.full(3, observed.mean())
        assert r_squared(predicted, observed) == pytest.approx(0.0)

    def test_worse_than_mean_is_negative(self):
        assert r_squared([1.0, 0.0], [0.0, 1.0]) == pytest.approx(-3.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            r_squared([0.5, 0.5], [0.5, 0.5])

    def test_model_against_dataset(self):
        # dataset generated by the model itself gives R^2 = 1
        from qmla.system import ExperimentDesign, HamiltonianModel, plus_state, phase_plus_state

        expr = parse_model("Sz")
        model = HamiltonianModel(expr)
        times = np.linspace(0.05, 3.0, 40)
        probs = [
            model.probability(
                np.array([2.0]),
                ExperimentDesign(
                    time=float(t), probe_id="plus", probe_sys=plus_state(),
                    probe_env=phase_plus_state(0.0),
                ),
            )
            for t in times
        ]
        dataset = RecordedDataset(times=times, probabilities=probs)
        assert compute_r_squared(expr, [2.0], dataset) == pytest.approx(1.0, abs=1e-12)


class TestEstimateRuntime:
    def test_reference_configuration(self):
        # 9 layers / 18 models at N_P=3000, N_E=1000, p=6 lands near 20 hours
        seconds = estimate_runtime_raw(DEFAULT_STAGES, 3000, 1000, 6)
        hours = seconds / 3600.0
        assert abs(hours - 20.0) / 20.0 <= 0.3

    def test_zero_epochs_or_particles(self):
        assert estimate_runtime_raw(DEFAULT_STAGES, 0, 1000, 6) == 0.0
        assert estimate_runtime_raw(DEFAULT_STAGES, 3000, 0, 6) == 0.0

    def test_layer_enumeration(self):
        models, comparisons = enumerate_layers(DEFAULT_STAGES)
        assert models == [3, 2, 1, 3, 2, 1, 3, 2, 1]
        assert comparisons == [3, 1, 0, 3, 1, 0, 3, 1, 0]
        assert sum(models) == 18

    def test_monotone_in_workload(self):
        base = estimate_runtime_raw(DEFAULT_STAGES, 1000, 500, 6)
        assert estimate_runtime_raw(DEFAULT_STAGES, 2000, 500, 6) >= base
        assert estimate_runtime_raw(DEFAULT_STAGES, 1000, 900, 6) >= base
        assert estimate_runtime_raw(DEFAULT_STAGES, 1000, 500, 12) <= base

    def test_parallelism_plateau(self):
        # once every round holds a single job, more workers change nothing
        wide = estimate_runtime_raw(DEFAULT_STAGES, 100, 100, 64)
        wider = estimate_runtime_raw(DEFAULT_STAGES, 100, 100, 128)
        assert wide == wider


class TestRunBatch:
    def test_single_instance_report(self, tmp_path):
        config = parse_config({**SMALL_SIM, "instances": 1})
        report = run_batch(config, tmp_path / "out")
        assert report.failures == []
        assert sum(report.win_counts.values()) == 1
        assert report.success_rate in (0.0, 1.0)
        assert (tmp_path / "out" / "instance_0000.json").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "volume_vs_epoch.csv").exists()
        assert (tmp_path / "out" / "instance_0000.dot").exists()

    def test_win_counts_partition_instances(self, tmp_path):
        config = parse_config(SMALL_SIM)
        report = run_batch(config, tmp_path / "out")
        assert sum(report.win_counts.values()) + len(report.failures) == 2
        assert sum(report.classification_counts.values()) == 2

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(SMALL_SIM)
        run_batch(config, tmp_path / "a")
        run_batch(config, tmp_path / "b")
        for name in ("report.json", "instance_0000.json", "instance_0001.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_parallel_matches_serial(self, tmp_path):
        config = parse_config(SMALL_SIM)
        run_batch(config, tmp_path / "serial", workers=1)
        run_batch(config, tmp_path / "parallel", workers=2)
        assert (tmp_path / "serial" / "report.json").read_bytes() == (
            tmp_path / "parallel" / "report.json"
        ).read_bytes()

    def test_failure_recorded_batch_continues(self, tmp_path):
        # a replay config whose dataset vanishes after validation
        dataset = tmp_path / "data.csv"
        dataset.write_text("time_us,probability\n1.0,0.5\n2.0,0.6\n")
        config = parse_config(
            {
                "mode": "replay",
                "dataset_path": str(dataset),
                "num_particles": 60,
                "num_epochs": 10,
                "growth_stages": [["Sx", "Sz"]],
                "instances": 1,
                "parallelism": 1,
            }
        )
        dataset.unlink()
        report = run_batch(config, tmp_path / "out")
        assert len(report.failures) == 1
        assert report.failures[0]["instance"] == 0

    def test_emit_plot_data_empty_batch(self, tmp_path):
        emit_plot_data([], tmp_path)
        content = (tmp_path / "win_rate.csv").read_text()
        assert content == "param_delta,classification,count\n"


class TestReplayInstance:
    def test_replay_runs_and_scores(self, tmp_path):
        from qmla.system import ExperimentDesign, HamiltonianModel, plus_state, phase_plus_state

        expr = parse_model("Sz")
        model = HamiltonianModel(expr)
        times = np.linspace(0.05, 4.0, 60)
        probs = [
            model.probability(
                np.array([3.0]),
                ExperimentDesign(
                    time=float(t), probe_id="plus", probe_sys=plus_state(),
                    probe_env=phase_plus_state(0.0),
                ),
            )
            for t in times
        ]
        dataset = tmp_path / "echo.csv"
        RecordedDataset(times=times, probabilities=probs).to_csv(dataset)
        config = parse_config(
            {
                "mode": "replay",
                "dataset_path": str(dataset),
                "growth_stages": [["Sx", "Sy", "Sz"]],
                "num_particles": 200,
                "num_epochs": 60,
                "instances": 1,
                "parallelism": 1,
                "seed": 3,
            }
        )
        result = run_single_instance(config, 0)
        assert result["champion"]["name"] in {"Sz", "Sy"}
        assert result["truth"] is None
        assert result["r_squared"] is not None


class TestCli:
    def test_estimate_command(self, tmp_path, capsys):
        from qmla.cli import main

        path = write_config(tmp_path, {"mode": "simulate", "true_model": "SxyzAz"})
        assert main(["estimate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "expected runtime" in out

    def test_config_error_exit_code(self, tmp_path):
        from qmla.cli import main

        path = write_config(tmp_path, {"mode": "simulate"})
        assert main(["estimate", str(path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"num_particles": "abc"},
            {"prior": {"low": "a"}},
            {"num_particles": 1},
            {"true_params": [float("nan")]},
            {"num_epochs": 2.7},
        ],
        ids=["text-count", "text-prior", "one-particle", "nan", "fraction"],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, override):
        from qmla.cli import main

        payload = {"mode": "simulate", "true_model": "Sz", "true_params": [3.0]}
        path = write_config(tmp_path, {**payload, **override})
        assert main(["estimate", str(path)]) == 2
        field = next(iter(override))
        assert field in capsys.readouterr().err

    def test_run_and_report_round_trip(self, tmp_path):
        from qmla.cli import main

        path = write_config(tmp_path, {**SMALL_SIM, "instances": 1})
        out_dir = tmp_path / "results"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        before = (out_dir / "report.json").read_bytes()
        assert main(["report", str(out_dir)]) == 0
        assert (out_dir / "report.json").read_bytes() == before

    def test_workers_env_override(self, tmp_path, monkeypatch):
        from qmla.cli import main

        monkeypatch.setenv("QMLA_WORKERS", "1")
        path = write_config(tmp_path, {**SMALL_SIM, "instances": 1, "parallelism": 4})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_bath_command(self, tmp_path):
        from qmla.cli import main
        from tests.test_bath import synthetic_echo_dataset

        dataset, _ = synthetic_echo_dataset(n_points=120)
        data_path = tmp_path / "echo.csv"
        dataset.to_csv(data_path)
        config = write_config(
            tmp_path,
            {
                "mode": "bath",
                "dataset_path": str(data_path),
                "bath": {"mha_steps": 12, "cle_epochs": 15, "cle_particles": 60},
            },
        )
        out_dir = tmp_path / "bath_out"
        assert main(["bath", str(config), "--out", str(out_dir)]) == 0
        for name in ("mha_trace.json", "mha_trace.csv", "plateau.csv", "fits.json"):
            assert (out_dir / name).exists()
        header = (out_dir / "plateau.csv").read_text().splitlines()[0]
        assert header == "n_s,mean_abs_loglik"

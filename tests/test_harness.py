import json
import os
import stat
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmla.harness import (
    ConfigError,
    _write_atomic,
    _write_csv,
    _write_json_atomic,
    aggregate_report,
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

    def test_valid_bath_section_kept_as_given(self):
        config = parse_config({
            "mode": "bath",
            "dataset_path": "d.csv",
            "bath": {"mha_steps": 12, "cle_epochs": 15.0, "cle_particles": 60, "n_max": 9,
                     "omega0": 1, "prior": [["uniform", 0, 1]] * 10},
        })
        # stored checked, like the other sections: counts as int, reals as float
        assert config.bath == {
            "mha_steps": 12, "cle_epochs": 15, "cle_particles": 60, "n_start": 1,
            "n_max": 9, "omega0": 1.0, "envelope_exponent": 3.0,
            "prior": (("uniform", 0.0, 1.0),) * 10,
        }
        assert type(config.bath["cle_epochs"]) is int
        assert type(config.bath["omega0"]) is float
        assert all(type(m[1]) is float for m in config.bath["prior"])

    @pytest.mark.parametrize("shots", [1, 1000])
    def test_replay_rejects_shot_count(self, tmp_path, capsys, shots):
        from qmla.cli import main

        # a replayed outcome is the recorded frequency: no shot count is read
        raw = {"mode": "replay", "dataset_path": "d.csv", "noise": {"shot_count": shots}}
        assert main(["estimate", str(write_config(tmp_path, raw))]) == 2
        assert "noise.shot_count" in capsys.readouterr().err
        assert parse_config({**raw, "mode": "simulate", "true_model": "Sz"})

    def test_replay_accepts_default_shot_count(self):
        # values are compared, not key presence, so effective() parses again
        config = parse_config({"mode": "replay", "dataset_path": "d.csv",
                               "noise": {"shot_count": 1_000_000.0}})
        assert parse_config(config.effective()) == config

    def test_hash_stable_and_sensitive(self):
        a = parse_config({"mode": "simulate", "true_model": "Sz"})
        b = parse_config({"mode": "simulate", "true_model": "Sz"})
        c = parse_config({"mode": "simulate", "true_model": "Sz", "seed": 2})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
VALID_BASE = {"mode": "simulate", "true_model": "Sz", "dataset_path": "d.csv"}
_DEFAULTS = parse_config(VALID_BASE).effective()
# every settable value: () is the whole config, then each field and nested key
KEY_PATHS = [()] + [(key,) for key in _DEFAULTS] + [
    (section, key) for section in ("prior", "noise", "bath") for key in _DEFAULTS[section]
]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
AT_LEAST_ONE = st.integers(1, 5) | st.floats(min_value=1.0, allow_infinity=False)
COUNT = st.integers(1, 10**6) | st.integers(1, 1000).map(float)


def _noise_as_read(raw):
    """A replayed outcome is the recorded frequency, so only simulate
    configs draw a shot count; bath mode reads no noise at all."""
    if raw["mode"] == "bath":
        raw.pop("noise", None)
    elif raw["mode"] != "simulate" and raw.get("noise"):
        raw["noise"].pop("shot_count", None)
    return raw


VALID_CONFIGS = st.fixed_dictionaries(
    {
        "mode": st.sampled_from(["simulate", "replay", "bath"]),
        "true_model": st.sampled_from(["Sz", " S z"]),
        "dataset_path": st.text(min_size=1, max_size=8),
    },
    optional={
        "true_params": st.none() | st.lists(FINITE, min_size=1, max_size=1),
        "growth_stages": st.sampled_from([[["Sx", "Sy", "Sz"]], [["Sx"], ["Az", "Txy"]]]),
        "num_particles": st.integers(2, 10**6),
        "num_epochs": COUNT,
        "evidence_threshold": AT_LEAST_ONE,
        "reduced_model_threshold": AT_LEAST_ONE,
        "prior": st.fixed_dictionaries(
            {}, optional={"low": st.floats(-10.0, 0.0), "high": st.integers(1, 10)}
        ),
        "noise": st.fixed_dictionaries({}, optional={
            "probe_offset_sigma": st.floats(0.0, 0.99) | st.just(0),
            "shot_count": COUNT,
        }),
        "seed": st.integers(0, 2**63),
        "parallelism": COUNT,
        "instances": COUNT,
        "max_time_us": POSITIVE,
        "probe_policy": st.sampled_from(["plus", "random"]),
        "credible_models": st.lists(st.sampled_from(["Sz", "SxyzAz", "Sx_Ay"]), max_size=3),
        "heuristic_tail_fraction": st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
        "heuristic_tail_boost": POSITIVE,
        "likelihood_power": st.floats(1e-3, 1e3) | st.integers(1, 100),
        "eval_grid": st.integers(0, 1000),
        "bath": st.none() | st.fixed_dictionaries({}, optional={
            "mha_steps": COUNT,
            "cle_epochs": COUNT,
            "cle_particles": st.integers(2, 5000),
            "n_start": st.integers(1, 4),
            "n_max": st.none() | st.integers(4, 40) | st.just(4.0),
            "omega0": st.none() | st.floats(0.01, 10.0) | st.just(1),
            "envelope_exponent": st.floats(0.1, 5.0) | st.just(2),
            "prior": st.none() | st.lists(
                st.sampled_from([["uniform", -1, 1.0], ["normal", 0.5, 2]]),
                min_size=10, max_size=10,
            ),
        }),
    },
).map(_noise_as_read)


class TestConfigProperties:
    @given(path=st.sampled_from(KEY_PATHS), value=JSON)
    @example(path=("evidence_threshold",), value=10**400)
    @example(path=("growth_stages",), value=[[{"S": 1}]])
    @example(path=("bath", "prior"), value=[[]])
    @settings(max_examples=300, deadline=None)
    def test_any_value_parses_or_raises_config_error(self, path, value):
        raw = dict(VALID_BASE)
        if path == ():
            raw = value
        elif len(path) == 1:
            raw[path[0]] = value
        else:
            raw[path[0]] = {path[1]: value}
        try:
            parse_config(raw)
        except ConfigError:
            pass

    @given(VALID_CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_effective_round_trips(self, raw):
        config = parse_config(raw)
        again = parse_config(config.effective())
        assert again == config
        assert again.config_hash == config.config_hash
        # as `qmla report` reads it back from report.json
        assert parse_config(json.loads(json.dumps(config.effective()))) == config


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

    def test_rounding_level_variance_rejected(self):
        # an SxAx truth read out in |+>: 1 at every time, up to rounding
        observed = 1.0 - np.array([0.0, 2.2e-16, 1.1e-16, 0.0] * 50)
        with pytest.raises(ValueError, match="variance"):
            r_squared(0.999 * observed, observed)
        resolved = observed - 1e-9 * np.arange(200)  # a small spread, still a signal
        assert r_squared(resolved, resolved) == 1.0


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


class InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records the pool width asked
    for and runs each job at submit, in this process."""

    widths = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:  # noqa: BLE001 - delivered through the future
            future.set_exception(err)
        return future


def file_modes(directory) -> set:
    return {stat.S_IMODE(path.stat().st_mode) for path in directory.iterdir()}


def default_mode() -> int:
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        _write_json_atomic(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            _write_atomic(path, "\ud800")  # a lone surrogate has no UTF-8 encoding
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "win_rate.csv"
        _write_csv(path, "a,b", [(1, 2)])

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            _write_csv(path, "a,b", [(3, 4)])
        assert path.read_text() == "a,b\n1,2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["win_rate.csv"]


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

    def test_report_counts_undefined_r_squared(self, tmp_path):
        # |+> is an eigenstate of SxAx: the evaluation readout is flat, so R^2
        # is undefined and the instance stays out of the median
        flat = parse_config({
            **SMALL_SIM, "true_model": "SxAx", "true_params": [2.0, 1.0],
            "growth_stages": [["Sx", "Sz"]], "num_particles": 60, "num_epochs": 20,
        })
        report = run_batch(flat, tmp_path / "flat")
        saved = json.loads((tmp_path / "flat" / "report.json").read_text())
        assert report.failures == []
        assert report.median_r_squared is None and report.r_squared_undefined == 2
        assert saved["r_squared_undefined"] == 2
        sz = parse_config({**SMALL_SIM, "instances": 1})
        mixed = [run_single_instance(flat, 0), run_single_instance(sz, 0)]
        report = aggregate_report(sz, mixed, [])
        assert report.r_squared_undefined == 1
        assert report.median_r_squared == mixed[1]["r_squared"]

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

    def test_report_rewrites_plot_data_unchanged(self, tmp_path):
        from qmla.cli import main

        # layer champions Sz then Sxz: search order is not alphabetical
        payload = {
            **SMALL_SIM,
            "growth_stages": [["Sz"], ["Sx"]],
            "credible_models": ["Sz", "Sxz"],
        }
        run_batch(parse_config(payload), tmp_path / "out")
        csv = tmp_path / "out" / "volume_vs_epoch.csv"
        written = csv.read_bytes()
        assert b",Sxz," in written and b",Sz," in written
        assert main(["report", str(tmp_path / "out")]) == 0
        assert csv.read_bytes() == written

    def test_artifacts_share_the_default_mode(self, tmp_path):
        from qmla.cli import main

        out_dir = tmp_path / "out"
        run_batch(parse_config(SMALL_SIM), out_dir)
        assert file_modes(out_dir) == {default_mode()}
        assert main(["report", str(out_dir)]) == 0
        assert file_modes(out_dir) == {default_mode()}

    def test_instance_written_before_the_next_runs(self, tmp_path, monkeypatch):
        import qmla.harness

        out_dir = tmp_path / "out"
        written, run = [], qmla.harness.run_single_instance

        def spy(config, index):
            written.append(sorted(p.name for p in out_dir.glob("instance_*.json")))
            return run(config, index)

        monkeypatch.setattr(qmla.harness, "run_single_instance", spy)
        run_batch(parse_config(SMALL_SIM), out_dir, workers=1)
        assert written == [[], ["instance_0000.json"]]

    def test_pool_never_wider_than_batch(self, tmp_path, monkeypatch):
        import qmla.harness

        monkeypatch.setattr(qmla.harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(InlinePool, "widths", [])
        config = parse_config(SMALL_SIM)
        run_batch(config, tmp_path / "pool", workers=5000)
        run_batch(config, tmp_path / "serial", workers=1)
        assert InlinePool.widths == [2]
        for name in ("report.json", "instance_0000.json", "instance_0001.json"):
            assert (tmp_path / "pool" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

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
            model.probabilities(
                np.atleast_2d([3.0]),
                ExperimentDesign(
                    time=float(t), probe_sys=plus_state(),
                    probe_env=phase_plus_state(0.0),
                ),
            )[0]
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

    def test_estimate_rejects_bath_config(self, tmp_path, capsys):
        from qmla.cli import main

        # a bath config runs no model search: nothing to run, nothing to cost
        path = write_config(tmp_path, {"mode": "bath", "dataset_path": "echo.csv"})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        run_err = capsys.readouterr().err
        assert main(["estimate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.err == run_err and "simulate or replay" in out.err
        assert "expected runtime" not in out.out

    @pytest.mark.parametrize(
        "noise", [{"shot_count": 5}, {"probe_offset_sigma": 0.1}], ids=["shots", "sigma"]
    )
    def test_bath_rejects_noise(self, tmp_path, capsys, noise):
        from qmla.cli import main

        # the bath fits read no noise section; the dataset is never opened
        data_path = tmp_path / "missing.csv"
        raw = {"mode": "bath", "dataset_path": str(data_path), "noise": noise}
        argv = ["bath", str(write_config(tmp_path, raw)), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "noise" in err and str(data_path) not in err
        assert not (tmp_path / "o").exists()
        # values are compared, not key presence, so the defaults parse
        config = parse_config({**raw, "noise": {"shot_count": 1_000_000.0,
                                                "probe_offset_sigma": 0.03}})
        assert parse_config(config.effective()) == config

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", None], ids=["not-utf8", "directory"])
    def test_unreadable_config_exit_code(self, tmp_path, content):
        from qmla.cli import main

        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["estimate", str(path)]) == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"num_particles": "abc"},
            {"prior": {"low": "a"}},
            {"num_particles": 1},
            {"true_params": [float("nan")]},
            {"num_epochs": 2.7},
            {"likelihood_power": -5},
            {"likelihood_power": 0},
            {"noise": {"binomial_readout": "false"}},  # a removed field: unknown
            {"noise": {"probe_offset_sigma": "0.1"}},
            {"dataset_path": 5},
            {"num_particles": 10**340},
            {"max_time_us": -1},
            {"max_time_us": 0},
            {"heuristic_tail_boost": -1},
            {"evidence_threshold": 0},
            {"evidence_threshold": 0.5},
            {"reduced_model_threshold": 0.5},
            {"heuristic_tail_fraction": 5},
            {"heuristic_tail_fraction": -3},
        ],
        ids=["text-count", "text-prior", "one-particle", "nan", "fraction",
             "negative-power", "zero-power", "text-flag", "text-sigma", "number-path",
             "count-beyond-float", "negative-time", "zero-time", "negative-boost",
             "zero-threshold", "inverting-threshold", "inverting-reduced-threshold",
             "tail-fraction-above-one", "negative-tail-fraction"],
    )
    def test_bad_value_exit_code(self, tmp_path, capsys, override):
        from qmla.cli import main

        payload = {"mode": "simulate", "true_model": "Sz", "true_params": [3.0]}
        path = write_config(tmp_path, {**payload, **override})
        assert main(["estimate", str(path)]) == 2
        field = next(iter(override))
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bath",
        [
            {"mha_steps": "abc"},
            {"cle_epochs": 0},
            {"cle_particles": 1},
            {"n_start": 2.5},
            {"n_start": 3, "n_max": 2},
            {"omega0": -1.0},
            {"envelope_exponent": float("inf")},
            {"squared_cross": 1},  # a removed field: unknown
            {"prior": [["gamma", 1.0, 2.0]]},
            {"prior": [["uniform", 0.0, 1.0]]},
        ],
        ids=["text-steps", "zero-epochs", "one-particle", "fraction", "n-max-below-start",
             "negative-omega0", "infinite-exponent", "int-flag", "prior-kind", "prior-length"],
    )
    def test_bad_bath_value_exit_code(self, tmp_path, capsys, bath):
        from qmla.cli import main

        data_path = tmp_path / "echo.csv"
        RecordedDataset(np.array([0.5, 1.0]), np.array([0.9, 0.8])).to_csv(data_path)
        small = {"mha_steps": 1, "cle_epochs": 1, "cle_particles": 2}
        path = write_config(tmp_path, {"mode": "bath", "dataset_path": str(data_path),
                                       "bath": {**small, **bath}})
        assert main(["bath", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"bath.{list(bath)[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content",
        [None, "t,p\n1.0,0.5\n", "time_us,probability\n0.5,0.9\n1.0,nan\n1.5,0.7\n"],
        ids=["missing-dataset_path", "bad-header-dataset_path", "nan-probability-dataset_path"],
    )
    def test_unreadable_bath_data_exit_code(self, tmp_path, capsys, content):
        from qmla.cli import main

        data_path = tmp_path / "echo.csv"
        if content is not None:
            data_path.write_text(content)
        config = {"mode": "bath", "dataset_path": str(data_path)}
        argv = ["bath", str(write_config(tmp_path, config)), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert str(data_path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content",
        [None, "t,p\n1.0,0.5\n", "time_us,probability\n0.5,0.9\n1.0,nan\n"],
        ids=["missing", "bad-header", "nan-probability"],
    )
    def test_unreadable_replay_data_exit_code(self, tmp_path, capsys, content):
        from qmla.cli import main

        data_path = tmp_path / "data.csv"
        if content is not None:
            data_path.write_text(content)
        config = write_config(tmp_path, {**SMALL_SIM, "mode": "replay",
                                         "true_model": None, "true_params": None,
                                         "dataset_path": str(data_path)})
        assert main(["run", str(config), "--out", str(tmp_path / "o")]) == 2
        out = capsys.readouterr()
        assert str(data_path) in out.err and "completed" not in out.out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "broken", ["report-not-json", "report-no-config", "report-list", "instance-not-json"]
    )
    def test_unreadable_report_exit_code(self, tmp_path, capsys, broken):
        from qmla.cli import main

        out_dir = tmp_path / "results"
        assert main(["run", str(write_config(tmp_path, {**SMALL_SIM, "instances": 1})),
                     "--out", str(out_dir)]) == 0
        damaged = {
            "report-not-json": ("report.json", "{not json"),
            "report-no-config": ("report.json", json.dumps({"instances": 1})),
            "report-list": ("report.json", "[]"),
            "instance-not-json": ("instance_0000.json", "\x00garbage"),
        }
        name, text = damaged[broken]
        (out_dir / name).write_text(text)
        capsys.readouterr()
        assert main(["report", str(out_dir)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            {},
            [],
            {"instance": 0},
            {"instance": 0, "champion": {"name": "Sz"}},
            {"instance": 0, "champion": {"name": "Qz", "params": [1.0]}},
            {"instance": 0, "champion": {"name": "Sz", "params": ["x"]}},
            {"instance": 0, "champion": {"name": "Sz", "params": [1.0]}, "truth": "Sz"},
            {"instance": 0, "champion": {"name": "Sz", "params": [1.0]}, "r_squared": "x"},
            {"instance": 0, "champion": {"name": "Sz", "params": [1.0]}, "volumes": []},
            {"instance": 0, "champion": {"name": "Sz", "params": [1.0]}, "volumes": {"Sz": 0.5}},
            {"instance": 0, "champion": {"name": "Sz", "params": [1.0]}, "champion_dynamics": []},
            {"instance": 0, "champion": {"name": "Sz", "params": [1.0]},
             "truth": "Sz", "truth_num_params": 1, "classification": ["Correct"]},
        ],
        ids=[
            "empty-object", "list", "no-champion", "no-params", "bad-champion-name",
            "non-numeric-param", "truth-without-param-count", "non-numeric-r-squared",
            "volumes-list", "volume-not-list", "dynamics-list", "list-classification",
        ],
    )
    def test_non_instance_file_exit_code(self, tmp_path, capsys, content):
        from qmla.cli import main

        out_dir = tmp_path / "results"
        out_dir.mkdir()
        stored = {"config": parse_config(SMALL_SIM).effective(), "failures": []}
        (out_dir / "report.json").write_text(json.dumps(stored))
        (out_dir / "instance_0000.json").write_text(json.dumps(content))
        assert main(["report", str(out_dir)]) == 2
        assert "instance_0000.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, env, source",
        [
            (["--parallelism", "-4"], None, "--parallelism"),
            # a worker count in the environment is not read, so it cannot rescue the flag
            (["--parallelism", "0"], "2", "--parallelism"),
        ],
    )
    def test_bad_worker_count_exit_code(self, tmp_path, capsys, monkeypatch, flag, env, source):
        from qmla.cli import main

        if env is None:
            monkeypatch.delenv("QMLA_WORKERS", raising=False)
        else:
            monkeypatch.setenv("QMLA_WORKERS", env)
        path = write_config(tmp_path, SMALL_SIM)
        assert main(["run", str(path), "--out", str(tmp_path / "o"), *flag]) == 2
        assert source in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_parallelism_flag_capped_at_instances(self, tmp_path, monkeypatch):
        import qmla.harness
        from qmla.cli import main

        monkeypatch.setattr(qmla.harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(InlinePool, "widths", [])
        path = write_config(tmp_path, SMALL_SIM)
        argv = ["run", str(path), "--out", str(tmp_path / "o"), "--parallelism", "5000"]
        assert main(argv) == 0
        assert InlinePool.widths == [2]

    def test_run_and_report_round_trip(self, tmp_path):
        from qmla.cli import main

        path = write_config(tmp_path, {**SMALL_SIM, "instances": 1})
        out_dir = tmp_path / "results"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        before = (out_dir / "report.json").read_bytes()
        assert main(["report", str(out_dir)]) == 0
        assert (out_dir / "report.json").read_bytes() == before

    def test_workers_env_not_read(self, tmp_path, monkeypatch):
        from qmla.cli import main

        path = write_config(tmp_path, {**SMALL_SIM, "instances": 1})
        assert main(["run", str(path), "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("QMLA_WORKERS", "two")
        assert main(["run", str(path), "--out", str(tmp_path / "env")]) == 0
        report = (tmp_path / "env" / "report.json").read_bytes()
        assert report == (tmp_path / "plain" / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--seed", "3"], ["run", "--instances", "2"], ["bath", "--data", "x.csv"]],
        ids=["run-seed", "run-instances", "bath-data"],
    )
    def test_settings_come_from_the_config(self, tmp_path, capsys, argv):
        from qmla.cli import main

        command, *override = argv
        path = write_config(tmp_path, {**SMALL_SIM, "instances": 1})
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(path), "--out", str(tmp_path / "o"), *override])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def mha_run_call(tmp_path, monkeypatch, **config) -> dict:
        """The arguments ``qmla bath`` passes to ``mha_run`` for a bath config
        with ``config`` on top; the walk itself is not run."""
        import qmla.cli

        data_path = tmp_path / "echo.csv"
        data_path.write_text("time_us,probability\n0.5,0.9\n1.0,0.8\n")
        seen = {}

        class Stop(Exception):
            pass

        def capture(*args, **kwargs):
            seen.update(kwargs, args=args)
            raise Stop

        monkeypatch.setattr(qmla.cli, "mha_run", capture)
        path = write_config(tmp_path, {"mode": "bath", "dataset_path": str(data_path),
                                       **config})
        with pytest.raises(Stop):
            qmla.cli.main(["bath", str(path), "--out", str(tmp_path / "o")])
        return seen

    def test_bath_passes_likelihood_power(self, tmp_path, monkeypatch):
        seen = self.mha_run_call(tmp_path, monkeypatch, likelihood_power=7.5)
        assert seen["likelihood_power"] == 7.5

    def test_bath_passes_checked_prior(self, tmp_path, monkeypatch):
        from qmla.smc import PriorSpec

        prior = [["uniform", -1, 1]] * 6 + [["normal", 0.3, 0.1], ["uniform", 0.2, 2]] + [
            ["uniform", -0.5, 0.5], ["uniform", 0.01, 0.3]]
        bath = {"mha_steps": 4.0, "cle_epochs": 15, "cle_particles": 60, "prior": prior}
        seen = self.mha_run_call(tmp_path, monkeypatch, bath=bath)
        assert seen["prior"] == PriorSpec(tuple((k, float(a), float(b)) for k, a, b in prior))
        assert seen["args"][1:4] == (4, 15, 60)
        assert all(type(v) is int for v in seen["args"][1:4])

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
        assert file_modes(out_dir) == {default_mode()}

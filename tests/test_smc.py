import hashlib
import json
import math

import numpy as np
import pytest

from qmla.harness import parse_config, run_single_instance
from qmla.pauli import parse_model
from qmla.smc import (
    ParticleCloud,
    PriorSpec,
    WeightCollapseError,
    _weighted_indices,
    bayes_update,
    design_heuristic,
    effective_sample_size,
    initialize_cloud,
    liu_west_resample,
    log_likelihood,
    run_qhl,
    should_resample,
    volume,
)
from qmla.system import (
    ExperimentDesign,
    HamiltonianModel,
    NoiseConfig,
    SimulatedSystem,
    plus_state,
    phase_plus_state,
)


def plus_design(t):
    return ExperimentDesign(
        time=t, probe_sys=plus_state(), probe_env=phase_plus_state(0.0)
    )


class TestInitializeCloud:
    def test_uniform_weights_and_bounds(self):
        cloud = initialize_cloud(PriorSpec.uniform(1, 0, 10), 3, np.random.default_rng(0))
        np.testing.assert_allclose(cloud.weights, [1 / 3] * 3)
        assert np.all((cloud.locations >= 0) & (cloud.locations <= 10))

    def test_normal_prior_clt(self):
        hits = 0
        for seed in range(100):
            cloud = initialize_cloud(
                PriorSpec.normal(1, 5.0, 1.0), 10_000, np.random.default_rng(seed)
            )
            hits += abs(cloud.locations.mean() - 5.0) <= 4.0 / math.sqrt(10_000)
        assert hits >= 99

    def test_deterministic(self):
        a = initialize_cloud(PriorSpec.uniform(2, 0, 10), 50, np.random.default_rng(9))
        b = initialize_cloud(PriorSpec.uniform(2, 0, 10), 50, np.random.default_rng(9))
        np.testing.assert_array_equal(a.locations, b.locations)

    def test_rejects_tiny_cloud(self):
        with pytest.raises(ValueError):
            initialize_cloud(PriorSpec.uniform(1, 0, 1), 1, np.random.default_rng(0))

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorSpec((("uniform", 2.0, 1.0),))
        with pytest.raises(ValueError):
            PriorSpec((("normal", 0.0, -1.0),))


class TestDesignHeuristic:
    def test_inverse_l1_distance(self):
        cloud = ParticleCloud(
            locations=np.array([[0.2, 0.5], [0.3, 0.1]]), weights=np.array([0.5, 0.5])
        )
        t, degenerate = design_heuristic(cloud, np.random.default_rng(0))
        assert t == pytest.approx(1.0 / 0.5)
        assert not degenerate

    def test_degenerate_returns_cap(self):
        cloud = ParticleCloud(
            locations=np.array([[1.0], [1.0]]), weights=np.array([0.5, 0.5])
        )
        t, degenerate = design_heuristic(cloud, np.random.default_rng(0), time_cap=50.0)
        assert t == 50.0
        assert degenerate

    def test_boost_and_cap(self):
        cloud = ParticleCloud(
            locations=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5])
        )
        t, _ = design_heuristic(cloud, np.random.default_rng(0), boost=10.0)
        assert t == pytest.approx(10.0)
        t, _ = design_heuristic(
            cloud, np.random.default_rng(0), boost=10.0, time_cap=4.0
        )
        assert t == 4.0

    def test_median_time_scales_with_shrinking_cloud(self):
        # volume x100 smaller in 2 params -> sd /10 -> median time x10
        def median_time(sd, seed):
            rng = np.random.default_rng(seed)
            cloud = initialize_cloud(PriorSpec.normal(2, 5.0, sd), 4000, rng)
            return np.median(
                [design_heuristic(cloud, rng)[0] for _ in range(800)]
            )

        ratio = median_time(0.05, 1) / median_time(0.5, 2)
        assert 8.0 < ratio < 12.5


class TestBayesUpdate:
    def setup_method(self):
        self.model = HamiltonianModel(parse_model("Sz"))

    def update(self, cloud, value, t):
        """Reweight ``cloud`` by the Sz model's likelihood of ``value`` at ``t``."""
        probs = self.model.probabilities(cloud.locations, plus_design(t))
        return bayes_update(cloud, log_likelihood(probs, value))

    def test_uninformative_at_t0(self):
        cloud = initialize_cloud(PriorSpec.uniform(1, 0, 10), 100, np.random.default_rng(0))
        updated = self.update(cloud, 1.0, 0.0)
        np.testing.assert_allclose(updated.weights, cloud.weights)

    def test_closed_form_weight_ratio(self):
        # particles alpha=1, alpha=2 scored on datum 1 at t=pi/4:
        # cos^2(pi/4) = 1/2 against cos^2(pi/2) = 0 (clamped)
        cloud = ParticleCloud(
            locations=np.array([[1.0], [2.0]]), weights=np.array([0.5, 0.5])
        )
        updated = self.update(cloud, 1.0, np.pi / 4)
        ratio = updated.weights[0] / updated.weights[1]
        assert ratio == pytest.approx(0.5 / 1e-10, rel=1e-4)

    def test_identical_particles_stay_identical(self):
        cloud = ParticleCloud(
            locations=np.array([[3.0], [3.0]]), weights=np.array([0.5, 0.5])
        )
        updated = self.update(cloud, 1.0, 0.3)
        assert updated.weights[0] == updated.weights[1]

    def test_weights_remain_probability_vector(self):
        rng = np.random.default_rng(3)
        cloud = initialize_cloud(PriorSpec.uniform(1, 0, 10), 200, rng)
        for _ in range(25):
            value = float(rng.integers(0, 2))
            cloud = self.update(cloud, value, rng.uniform(0, 5))
            assert np.all(cloud.weights >= 0)
            assert abs(cloud.weights.sum() - 1.0) < 1e-10


class TestEffectiveSampleSize:
    def test_uniform(self):
        cloud = ParticleCloud(np.zeros((100, 1)), np.full(100, 0.01))
        assert effective_sample_size(cloud) == pytest.approx(100.0)
        assert not should_resample(cloud)

    def test_collapsed(self):
        weights = np.zeros(100)
        weights[0] = 1.0
        cloud = ParticleCloud(np.zeros((100, 1)), weights)
        assert effective_sample_size(cloud) == pytest.approx(1.0)
        assert should_resample(cloud)

    def test_two_survivor_arithmetic(self):
        weights = np.zeros(100)
        weights[:2] = 0.5
        cloud = ParticleCloud(np.zeros((100, 1)), weights)
        assert effective_sample_size(cloud) == pytest.approx(2.0)
        assert should_resample(cloud)

    def test_bounds_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = rng.random(64)
            w /= w.sum()
            ess = effective_sample_size(ParticleCloud(np.zeros((64, 1)), w))
            assert 1.0 - 1e-9 <= ess <= 64.0 + 1e-9


class TestWeightedIndices:
    """``_weighted_indices`` draws what ``Generator.choice(n, size, p=w)``
    draws, from the same uniforms."""

    @staticmethod
    def weight_vectors(rng):
        for k in range(240):
            n = int(rng.integers(1, 400))
            kind = k % 4
            if kind == 0:
                w = rng.random(n)
            elif kind == 1:  # a posterior late in training: a few dominate
                w = np.exp(rng.normal(0.0, 30.0, n))
            elif kind == 2:
                w = np.zeros(n)
                w[rng.integers(n)] = 1.0
            else:
                w = rng.random(n) * (rng.random(n) < 0.3)
                w[-1] += 1e-300
            yield w / w.sum()

    def test_matches_generator_choice(self):
        rng = np.random.default_rng(13)
        for k, w in enumerate(self.weight_vectors(rng)):
            size = int(rng.integers(1, 500))
            expected_rng, rng_k = np.random.default_rng(k), np.random.default_rng(k)
            want = expected_rng.choice(len(w), size=size, p=w)
            got = _weighted_indices(w, size, rng_k)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert rng_k.random() == expected_rng.random()

    @pytest.mark.parametrize(
        "weights",
        [[1.5, -0.5], [0.5, np.nan], [np.inf, 0.0], [0.3, 0.3], [0.0, 0.0]],
        ids=["negative", "nan", "inf", "unnormalised", "zero"],
    )
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError, match="weights"):
            _weighted_indices(np.array(weights), 2, np.random.default_rng(0))

    def test_one_qubit_training_makes_no_eigh_call(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        expr = parse_model("Sxyz")
        system = SimulatedSystem(expr, [2.0, 1.0, 3.0], probe_policy="random")
        record = run_qhl(
            system, expr, PriorSpec.uniform(3, 0, 10), 60, 200, np.random.default_rng(3)
        )
        assert any(e["resampled"] for e in record.epochs)
        assert calls == []


class TestLiuWestResample:
    def test_a_one_is_multinomial(self):
        rng = np.random.default_rng(5)
        cloud = initialize_cloud(PriorSpec.uniform(2, 0, 10), 100, rng)
        resampled, degraded = liu_west_resample(cloud, 1.0, rng)
        assert not degraded
        originals = {tuple(row) for row in cloud.locations}
        assert all(tuple(row) in originals for row in resampled.locations)

    def test_identical_particles(self):
        cloud = ParticleCloud(np.full((50, 2), 3.0), np.full(50, 0.02))
        resampled, degraded = liu_west_resample(cloud, 0.98, np.random.default_rng(0))
        assert degraded
        np.testing.assert_allclose(resampled.locations, 3.0, atol=1e-4)

    def test_moment_preservation(self):
        rng = np.random.default_rng(11)
        n = 50_000
        locations = rng.multivariate_normal([2.0, -1.0], [[1.0, 0.3], [0.3, 0.5]], n)
        cloud = ParticleCloud(locations, np.full(n, 1.0 / n))
        resampled, _ = liu_west_resample(cloud, 0.98, rng)
        in_mean, in_cov = cloud.mean(), cloud.covariance()
        out_mean, out_cov = resampled.mean(), resampled.covariance()
        sd = np.sqrt(np.diag(in_cov))
        assert np.all(np.abs(out_mean - in_mean) < 3.0 * sd / math.sqrt(n))
        frob = np.linalg.norm(out_cov - in_cov) / np.linalg.norm(in_cov)
        assert frob < 0.05

    def test_mean_unbiased_over_repeats(self):
        rng = np.random.default_rng(13)
        n, repeats = 2000, 200
        cloud = initialize_cloud(PriorSpec.normal(1, 4.0, 1.0), n, rng)
        grand = np.mean(
            [liu_west_resample(cloud, 0.98, rng)[0].mean()[0] for _ in range(repeats)]
        )
        assert abs(grand - cloud.mean()[0]) < 4.0 / math.sqrt(repeats * n)


class TestVolume:
    def test_isotropic_gaussian(self):
        rng = np.random.default_rng(17)
        for k, sd in ((2, 0.5), (3, 1.5)):
            cloud = initialize_cloud(PriorSpec.normal(k, 0.0, sd), 60_000, rng)
            assert volume(cloud) == pytest.approx(sd**k, rel=0.05)

    def test_identical_particles_floor(self):
        cloud = ParticleCloud(np.full((10, 2), 1.0), np.full(10, 0.1))
        assert volume(cloud) == pytest.approx(math.sqrt(1e-300))

    def test_halving_scale(self):
        rng = np.random.default_rng(19)
        locations = rng.standard_normal((40_000, 3))
        weights = np.full(40_000, 1.0 / 40_000)
        v1 = volume(ParticleCloud(locations, weights))
        v2 = volume(ParticleCloud(locations / 2.0, weights))
        assert v2 / v1 == pytest.approx(2.0**-3, rel=1e-9)

    def test_single_param_sd(self):
        rng = np.random.default_rng(23)
        cloud = initialize_cloud(PriorSpec.normal(1, 0.0, 2.0), 50_000, rng)
        assert volume(cloud) == pytest.approx(2.0, rel=0.05)


class TestRunQhl:
    def test_zero_epochs_returns_prior_summary(self):
        system = SimulatedSystem(parse_model("Sz"), [3.0])
        record = run_qhl(
            system,
            parse_model("Sz"),
            PriorSpec.uniform(1, 0, 10),
            0,
            200,
            np.random.default_rng(0),
        )
        assert record.epochs == []
        assert len(record.experiments) == 0
        assert record.summary.mean[0] == pytest.approx(5.0, abs=0.5)

    def test_convergence_single_parameter(self):
        truth = 3.1
        system = SimulatedSystem(
            parse_model("Sz"), [truth], noise=NoiseConfig(probe_offset_sigma=0.0)
        )
        record = run_qhl(
            system,
            parse_model("Sz"),
            PriorSpec.uniform(1, 0, 10),
            100,
            1000,
            np.random.default_rng(4),
        )
        sd = record.final_sds[0]
        assert abs(record.final_params[0] - truth) < 3.0 * sd
        assert record.volumes[-1] < record.volumes[0]

    def test_determinism(self):
        def run():
            system = SimulatedSystem(parse_model("Sz"), [2.0])
            record = run_qhl(
                system,
                parse_model("Sz"),
                PriorSpec.uniform(1, 0, 10),
                30,
                100,
                np.random.default_rng(12),
            )
            return json.dumps(record.to_dict(), sort_keys=True)

        assert run() == run()

    def test_record_shape(self):
        system = SimulatedSystem(parse_model("Sz"), [2.0])
        record = run_qhl(
            system,
            parse_model("Sz"),
            PriorSpec.uniform(1, 0, 10),
            15,
            50,
            np.random.default_rng(1),
        )
        assert len(record.epochs) == 15
        assert len(record.experiments) == 15
        for column in ("probe_sys", "probe_env", "readouts"):
            assert getattr(record.experiments, column).shape == (15, 2)
        assert record.volumes.shape == record.resampled.shape == (15,)
        payload = record.to_dict()
        assert set(payload) == {"model", "final_params", "final_sd", "epochs"}
        assert set(payload["epochs"][0]) == {"t", "datum", "volume", "resampled"}
        assert [e["datum"] for e in payload["epochs"]] == record.experiments.values.tolist()

    # sha256 of a fixed-seed record's JSON: training may not move by a bit
    @pytest.mark.parametrize(
        "policy, digest",
        [
            ("plus", "55f29645c946de2b1bbc7a3e80f43015f53c2699d2a929fcf0603242c225265f"),
            ("random", "cc41de9e115465a9e1931f3340ea9db3144bc906f799775203fc692760608787"),
        ],
    )
    def test_record_bit_for_bit(self, policy, digest):
        truth = parse_model("SyAz")
        system = SimulatedSystem(truth, [2.0, 1.5], probe_policy=policy, env_phase=0.7)
        record = run_qhl(
            system, truth, PriorSpec.uniform(2, 0, 5), 60, 100, np.random.default_rng(11)
        )
        blob = json.dumps(record.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_instance_bit_for_bit(self):
        # sha256 of one search instance as a batch writes it: the artifact
        # bytes may not move from one version to the next
        config = parse_config({
            "mode": "simulate", "true_model": "Sz", "growth_stages": [["Sx", "Sz"]],
            "num_particles": 60, "num_epochs": 20, "seed": 7,
        })
        result = run_single_instance(config, 0)
        blob = json.dumps(result, sort_keys=True, indent=1).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "4215a16e0f957f1249be96db79d77c6c277e045a1bddfedf02e6d31b9c01b1c0"
        )

    def test_record_json_round_trip(self):
        system = SimulatedSystem(parse_model("SxAz"), [2.0, 0.7])
        record = run_qhl(
            system, parse_model("SxAz"), PriorSpec.uniform(2, 0, 10), 20, 60,
            np.random.default_rng(8),
        )
        payload = record.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["model"] == "SxAz" and len(payload["epochs"]) == 20
        assert payload["final_params"] == record.final_params.tolist()


class NanFrom:
    """An oracle whose ``measure`` returns NaN from epoch ``k`` on, after
    drawing what the wrapped system draws."""

    def __init__(self, system, k):
        self.system, self.k, self.epoch = system, k, 0
        self.max_time = system.max_time

    def new_design(self, t, rng):
        return self.system.new_design(t, rng)

    def measure(self, design, rng):
        value = self.system.measure(design, rng)
        self.epoch += 1
        return math.nan if self.epoch > self.k else value


class TestWeightCollapse:
    """A collapse raises ``WeightCollapseError`` carrying the record of the
    epochs before it, row for row those of the uninterrupted run."""

    @staticmethod
    def train(system):
        truth = parse_model("SyAz")
        return run_qhl(
            system, truth, PriorSpec.uniform(2, 0, 5), 40, 100, np.random.default_rng(11)
        )

    @pytest.mark.parametrize("k", [0, 1, 30])
    def test_record_holds_the_epochs_before(self, k):
        def system():
            return SimulatedSystem(parse_model("SyAz"), [2.0, 1.5], env_phase=0.7)

        full = self.train(system())
        with pytest.raises(WeightCollapseError) as info:
            self.train(NanFrom(system(), k))
        err = info.value
        assert err.epoch == k
        part = err.record
        assert len(part.experiments) == len(part.volumes) == len(part.resampled) == k
        for column in ("times", "probe_sys", "probe_env", "readouts", "values"):
            np.testing.assert_array_equal(
                getattr(part.experiments, column), getattr(full.experiments, column)[:k]
            )
        np.testing.assert_array_equal(part.volumes, full.volumes[:k])
        np.testing.assert_array_equal(part.resampled, full.resampled[:k])
        assert part.epochs == full.epochs[:k]
        if k == 30:
            assert part.resampled.any()


class TestSpectralCache:
    """Particle locations are frozen, so the model's spectrum is reused from
    one epoch to the next and recomputed only when a resample moves them."""

    def test_cloud_locations_read_only(self):
        locations = np.array([[0.2, 0.5], [0.3, 0.1]])
        cloud = ParticleCloud(locations, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            cloud.locations[0, 0] = 1.0
        assert locations.flags.writeable
        locations[0, 0] = 9.0
        assert cloud.locations[0, 0] == 0.2
        again = bayes_update(cloud, np.array([0.0, -1.0]))
        assert again.locations is cloud.locations

    @staticmethod
    def counting_eigh(monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return shapes

    def test_one_decomposition_per_location_set(self, monkeypatch):
        # SxyzAxz has no conserved environment axis, so its 4x4 batches go to eigh
        expr = parse_model("SxyzAxz")
        system = SimulatedSystem(expr, [2.8, 5.7, 1.6, 3.4, 1.2])
        shapes = self.counting_eigh(monkeypatch)
        record = run_qhl(
            system, expr, PriorSpec.uniform(5, 0, 10), 60, 200, np.random.default_rng(3)
        )
        resamples = sum(e["resampled"] for e in record.epochs[:-1])
        assert 0 < resamples < 30
        assert [shape[0] for shape in shapes] == [200] * (1 + resamples)

    def test_conserved_axis_trains_without_4x4_eigh(self, monkeypatch):
        shapes = self.counting_eigh(monkeypatch)
        expr = parse_model("SxyzAz")
        system = SimulatedSystem(expr, [2.8, 5.7, 1.6, 3.4])
        record = run_qhl(
            system, expr, PriorSpec.uniform(4, 0, 10), 60, 200, np.random.default_rng(3)
        )
        assert any(e["resampled"] for e in record.epochs[:-1])
        assert not [shape for shape in shapes if shape[-1] == 4]

    def test_cached_probabilities_bit_identical(self):
        expr = parse_model("SxyzAz")
        system = SimulatedSystem(expr, [2.8, 5.7, 1.6, 3.4])
        rng = np.random.default_rng(8)
        model = HamiltonianModel(expr)
        cloud = initialize_cloud(PriorSpec.uniform(4, 0, 10), 300, rng)
        for _ in range(2):
            for t in (0.4, 0.9, 2.5):
                design = system.new_design(t, rng)
                cached = model.probabilities(cloud.locations, design)
                fresh = HamiltonianModel(expr).probabilities(cloud.locations.copy(), design)
                assert np.array_equal(cached, fresh)
                cloud = bayes_update(cloud, log_likelihood(cached, system.measure(design, rng)))
            cloud, _ = liu_west_resample(cloud, 0.98, rng)

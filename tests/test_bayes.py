import math

import numpy as np
import pytest

import qmla.bayes
import qmla.search
from qmla.bayes import (
    TrainedModel,
    bayes_factor,
    cumulative_log_likelihood,
    min_particle_bound,
    union_dataset,
)
from qmla.harness import parse_config, run_single_instance
from qmla.pauli import parse_model
from qmla.smc import PriorSpec, run_qhl
from qmla.system import (
    ExperimentTable,
    NoiseConfig,
    RecordedDataset,
    ReplaySystem,
    SimulatedSystem,
    phase_plus_state,
    plus_state,
)


def table(times, values, probe=None):
    """Plus-probe experiments (or ``probe`` on the principal qubit) as a table."""
    m = len(times)
    probe = np.tile(plus_state() if probe is None else probe, (m, 1))
    return ExperimentTable(
        np.asarray(times, dtype=float),
        probe,
        np.tile(phase_plus_state(0.0), (m, 1)),
        probe,
        np.asarray(values, dtype=float),
    )


def random_table(rng, m):
    return table(rng.uniform(0, 5, m), rng.integers(0, 2, m))


def trained(name, params, experiments=None):
    expr = parse_model(name)
    params = np.asarray(params, dtype=float)
    return TrainedModel(
        expression=expr,
        params=params,
        param_sds=np.full(expr.num_terms, 0.1),
        experiments=table([], []) if experiments is None else experiments,
    )


class TestCumulativeLogLikelihood:
    def test_empty_dataset_is_zero_with_warning(self):
        with pytest.warns(UserWarning):
            assert cumulative_log_likelihood(parse_model("Sz"), [1.0], table([], [])) == 0.0

    def test_certain_datum(self):
        # at t=0 the model predicts 1 with certainty (up to the clamp)
        ll = cumulative_log_likelihood(parse_model("Sz"), [1.0], table([0.0], [1.0]))
        assert ll == pytest.approx(math.log(1.0 - 1e-10), abs=1e-12)

    def test_clamped_zero_probability(self):
        # alpha t = pi/2 makes cos^2 = 0, clamped to 1e-10
        ll = cumulative_log_likelihood(
            parse_model("Sz"), [1.0], table([np.pi / 2], [1.0])
        )
        assert ll == pytest.approx(math.log(1e-10), rel=1e-6)
        assert ll == pytest.approx(-23.03, abs=0.01)

    def test_hand_sum(self):
        # ten data, each with likelihood 1/2: alpha t = pi/4
        data = table(np.full(10, np.pi / 4), np.ones(10))
        ll = cumulative_log_likelihood(parse_model("Sz"), [1.0], data)
        assert ll == pytest.approx(10 * math.log(0.5), rel=1e-9)
        assert ll == pytest.approx(-6.931, abs=0.01)


# counts measured with the fingerprint-keyed dedup the row union replaced
REPLAY_SEARCH = {
    "mode": "replay",
    "num_particles": 200,
    "num_epochs": 100,
    "instances": 1,
    "parallelism": 1,
    "noise": {"probe_offset_sigma": 0.0},
    "seed": 1,
}
PLUS_BATCH = {
    "mode": "simulate",
    "true_model": "Sz",
    "true_params": [3.0],
    "growth_stages": [["Sx", "Sy", "Sz"]],
    "num_particles": 150,
    "num_epochs": 40,
    "instances": 2,
    "parallelism": 1,
    "probe_policy": "plus",
    "noise": {"probe_offset_sigma": 0.0},
    "seed": 1,
}


class TestUnionDataset:
    def test_dedup_shared_experiments(self):
        shared, only_i, only_j = table([1.0], [1.0]), table([2.0], [0.0]), table([3.0], [1.0])
        merged = union_dataset(table([1.0, 2.0], [1.0, 0.0]), table([1.0, 3.0], [1.0, 1.0]))
        assert len(merged) == 3
        assert len(union_dataset(shared, only_i, shared, only_j)) == 3

    def test_canonical_order(self):
        times, values = [1.0, 2.0, 0.5], [1.0, 0.0, 1.0]
        forward = union_dataset(table(times, values))
        backward = union_dataset(table(times[::-1], values[::-1]))
        assert np.array_equal(forward.rows(), backward.rows())
        assert forward.times.tolist() == [0.5, 1.0, 2.0]

    def test_distinct_outcomes_both_kept(self):
        merged = union_dataset(table([1.0], [1.0]), table([1.0], [0.0]))
        assert len(merged) == 2
        assert sorted(merged.values) == [0.0, 1.0]

    def test_distinct_probes_both_kept(self):
        other = np.array([1.0, 0.0], dtype=complex)
        merged = union_dataset(table([1.0], [1.0]), table([1.0], [1.0], probe=other))
        assert len(merged) == 2

    def test_rows_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(13)
        system = SimulatedSystem(parse_model("SxAz"), [2.0, 0.7], probe_policy="random")
        record = run_qhl(
            system, parse_model("SxAz"), PriorSpec.uniform(2, 0, 10), 30, 50, rng
        )
        e, back = record.experiments, ExperimentTable.from_rows(record.experiments.rows())
        for column in ("times", "probe_sys", "probe_env", "readouts", "values"):
            assert np.array_equal(getattr(back, column), getattr(e, column))
        assert len(union_dataset(e, e)) == len(e)

    def test_exact_probes_collapse_equal_rows(self):
        # without preparation jitter a replayed record repeats recorded
        # (time, outcome) pairs with the same probe: they count once
        dataset = RecordedDataset([0.5, 1.0, 1.5], [0.9, 0.4, 0.7])
        system = ReplaySystem(dataset, noise=NoiseConfig(probe_offset_sigma=0.0))
        record = run_qhl(
            system, parse_model("Sz"), PriorSpec.uniform(1, 0, 10), 40, 50,
            np.random.default_rng(2),
        )
        merged = union_dataset(record.experiments)
        assert len(merged) == len(set(record.experiments.times.tolist())) <= 3

    @pytest.mark.parametrize(
        "config, unions, rows, removed",
        [(REPLAY_SEARCH, 48, 10_300, 9_021), (PLUS_BATCH, 20, 1_680, 169)],
        ids=["replay_search", "plus_batch"],
    )
    def test_removes_as_many_rows_as_before(
        self, tmp_path, monkeypatch, config, unions, rows, removed
    ):
        seen = []
        union = qmla.bayes.union_dataset

        def counting(*datasets):
            merged = union(*datasets)
            seen.append((sum(len(d) for d in datasets), len(merged)))
            return merged

        monkeypatch.setattr(qmla.bayes, "union_dataset", counting)
        monkeypatch.setattr(qmla.search, "union_dataset", counting)
        if config["mode"] == "replay":
            times = np.linspace(0.05, 4.0, 60)
            path = tmp_path / "data.csv"
            RecordedDataset(times, np.cos(3.0 * times) ** 2).to_csv(path)
            config = dict(config, dataset_path=str(path))
        parsed = parse_config(config)
        for index in range(parsed.instances):
            run_single_instance(parsed, index)
        total = sum(r for r, _ in seen)
        assert (len(seen), total, total - sum(k for _, k in seen)) == (unions, rows, removed)


class TestBayesFactor:
    def test_self_comparison(self):
        data = table([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
        result = bayes_factor(trained("Sz", [1.0], data), trained("Sz", [1.0], data))
        assert result.log_bayes_factor == 0.0
        assert result.direction == "inconclusive"

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(3)
        data_i, data_j = random_table(rng, 40), random_table(rng, 40)
        mi, mj = trained("Sz", [2.0], data_i), trained("Sy", [1.5], data_j)
        fwd = bayes_factor(mi, mj)
        rev = bayes_factor(mj, mi)
        assert fwd.log_bayes_factor + rev.log_bayes_factor == 0.0

    def test_permutation_invariance(self):
        data = random_table(np.random.default_rng(5), 20)
        flipped = table(data.times[::-1], data.values[::-1])
        mi, mj = trained("Sz", [2.0]), trained("Sy", [1.5])
        a = bayes_factor(mi, mj, experiments=data).log_bayes_factor
        b = bayes_factor(mi, mj, experiments=flipped).log_bayes_factor
        assert a == b

    def test_equal_likelihood_datum_is_neutral(self):
        data = random_table(np.random.default_rng(7), 10)
        # both Sz and Sy predict 1 at t=0, so this datum cannot discriminate
        extended = table(np.append(data.times, 0.0), np.append(data.values, 1.0))
        mi, mj = trained("Sz", [2.0]), trained("Sy", [1.5])
        base = bayes_factor(mi, mj, experiments=data).log_bayes_factor
        extended = bayes_factor(mi, mj, experiments=extended).log_bayes_factor
        assert extended == pytest.approx(base, abs=1e-12)

    def test_true_model_beats_wrong_axis(self):
        # end-to-end: data from sigma-z dynamics with random probes
        wins = 0
        for seed in range(20):
            seq = np.random.SeedSequence([101, seed])
            rngs = [np.random.default_rng(s) for s in seq.spawn(2)]
            system = SimulatedSystem(
                parse_model("Sz"),
                [3.0],
                probe_policy="random",
                noise=NoiseConfig(probe_offset_sigma=0.0),
            )
            prior = PriorSpec.uniform(1, 0, 10)
            rec_true = run_qhl(system, parse_model("Sz"), prior, 200, 500, rngs[0])
            rec_wrong = run_qhl(system, parse_model("Sx"), prior, 200, 500, rngs[1])
            result = bayes_factor(
                TrainedModel.from_record(parse_model("Sz"), rec_true),
                TrainedModel.from_record(parse_model("Sx"), rec_wrong),
            )
            wins += result.log_bayes_factor > math.log(100.0)
        assert wins >= 18

    def test_direction_threshold(self):
        data = table([np.pi / 2, 3 * np.pi / 2], [1.0, 1.0])
        # model at alpha=1 is clamped to 1e-10 on these, alpha tiny predicts ~1
        good, bad = trained("Sz", [1e-6], data), trained("Sz", [1.0], data)
        result = bayes_factor(good, bad)
        assert result.direction == "i"
        assert result.winner == good.name and result.loser == bad.name
        mild = bayes_factor(good, bad, evidence_threshold=1e60)
        assert mild.direction == "inconclusive"


class TestMinParticleBound:
    def test_worked_example(self):
        assert min_particle_bound(1, 2, 3, 2, 1, 0.5) == 41_472

    def test_all_ones(self):
        assert min_particle_bound(1, 1, 1, 1, 1, 1) == 144

    def test_gap_scaling(self):
        base = min_particle_bound(1, 2, 3, 2, 1, 0.5)
        assert min_particle_bound(1, 2, 3, 2, 1, 1.0) * 4 == base

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="decision_gap"):
            min_particle_bound(1, 1, 1, 1, 1, 0)
        with pytest.raises(ValueError, match="positive"):
            min_particle_bound(-1, 1, 1, 1, 1, 1)

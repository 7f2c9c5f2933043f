import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from qmla.bath import (
    BathHyperparameters,
    BathRealization,
    DEFAULT_BATH_PRIOR,
    MhaTrace,
    cle_train,
    estimate_T2,
    fit_logistic,
    hahn_signal,
    hyper_signal_batch,
    mha_run,
    pseudospin,
    sample_bath_realization,
)
from qmla.system import RecordedDataset


def hypers(**overrides):
    base = dict(
        b0=np.array([0.0, 0.0, 1.0]),
        b1_mean=np.array([0.7, 0.0, 0.4]),
        sigma_b=0.2,
        omega0=0.8,
        delta_omega=0.15,
        sigma_omega=0.08,
    )
    base.update(overrides)
    return BathHyperparameters(**base)


def synthetic_echo_dataset(n_spins=8, seed=123, n_points=300, t_max=40.0):
    """Echo signal from one concrete bath realization of known hyperparameters."""
    rng = np.random.default_rng(seed)
    h = hypers()
    realization = sample_bath_realization(h, n_spins, rng)
    times = np.linspace(0.2, t_max, n_points)
    probs = np.array(
        [hahn_signal(realization, h.b0, h.omega0, t) for t in times]
    )
    return RecordedDataset(times=times, probabilities=probs, source="synthetic"), h


class TestPseudospin:
    def test_parallel_fields(self):
        for tau in (0.0, 0.7, 3.3):
            assert pseudospin([0, 0, 2.0], [0, 0, 0.5], 1.1, 0.9, tau) == 1.0

    def test_revival_times(self):
        omega0 = 0.8
        for k in (1, 2, 3):
            tau = 2.0 * math.pi * k / omega0
            s = pseudospin([1.0, 0, 0], [0, 1.0, 0], omega0, 1.3, tau)
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_fields_full_contrast(self):
        # both sine factors at 1 with perpendicular fields -> S = 0
        omega0, omega_j = 1.0, 3.0
        tau = math.pi  # omega0 tau/2 = pi/2 and omega_j tau/2 = 3pi/2
        s = pseudospin([1.0, 0, 0], [0, 2.0, 0], omega0, omega_j, tau)
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            b0 = rng.standard_normal(3)
            b1 = rng.standard_normal(3)
            rot = Rotation.random(rng=rng).as_matrix()
            a = pseudospin(b0, b1, 0.9, 1.4, 2.2)
            b = pseudospin(rot @ b0, rot @ b1, 0.9, 1.4, 2.2)
            assert abs(a - b) < 1e-10

    def test_bounded(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            s = pseudospin(
                rng.standard_normal(3),
                rng.standard_normal(3),
                rng.uniform(0.1, 3),
                rng.uniform(0.1, 3),
                rng.uniform(0, 50),
            )
            assert 0.0 <= s <= 1.0  # squared-cross form is non-negative

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            pseudospin([0, 0, 0], [1, 0, 0], 1.0, 1.0, 1.0)

    def test_unsquared_variant_can_reach_minus_one(self):
        s = pseudospin(
            [1.0, 0, 0], [0, 0.5, 0], 1.0, 1.0, math.pi, squared_cross=False
        )
        assert s == pytest.approx(-1.0)


class TestHahnSignal:
    def test_all_ones(self):
        realization = BathRealization(
            fields=np.tile([0.0, 0.0, 1.0], (4, 1)), frequencies=np.ones(4)
        )
        assert hahn_signal(realization, [0, 0, 2.0], 0.9, 1.7) == 1.0

    def test_single_fully_flipped_spin(self):
        realization = BathRealization(
            fields=np.array([[0.0, 0.5, 0.0]]), frequencies=np.array([1.0])
        )
        p = hahn_signal(realization, [1.0, 0, 0], 1.0, math.pi, squared_cross=False)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_two_spin_arithmetic(self):
        # (0.5 * -0.4 + 1)/2 = 0.4, via the product rule on known pseudospins
        assert ((0.5 * -0.4) + 1.0) / 2.0 == pytest.approx(0.4)

    def test_unit_at_tau_zero_and_revivals(self):
        rng = np.random.default_rng(5)
        h = hypers()
        realization = sample_bath_realization(h, 6, rng)
        assert hahn_signal(realization, h.b0, h.omega0, 0.0) == 1.0
        seen_below = False
        for k in (1, 2, 3):
            tau = 2.0 * math.pi * k / h.omega0
            assert hahn_signal(realization, h.b0, h.omega0, tau) == pytest.approx(
                1.0, abs=1e-9
            )
        for tau in np.linspace(0.5, 6.0, 40):
            p = hahn_signal(realization, h.b0, h.omega0, tau)
            assert 0.0 <= p <= 1.0
            seen_below |= p < 0.9
        assert seen_below  # collapse between revivals

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        h = hypers()
        vec = h.to_vector()
        draws = rng.standard_normal((5, 4))
        from scipy import special

        fields = h.b1_mean + h.sigma_b * draws[:, :3]
        mu = h.omega0 + h.delta_omega
        u = special.ndtr(draws[:, 3])
        lo = special.ndtr(-mu / h.sigma_omega)
        freqs = mu + h.sigma_omega * special.ndtri(
            np.clip(lo + u * (1 - lo), 1e-12, 1 - 1e-12)
        )
        realization = BathRealization(fields=fields, frequencies=freqs)
        for tau in (0.4, 2.2, 7.7):
            batch = hyper_signal_batch(vec[None, :], tau, draws)[0]
            scalar = hahn_signal(realization, h.b0, h.omega0, tau)
            assert batch == pytest.approx(scalar, abs=1e-9)

    def test_array_tau_matches_scalar_calls(self):
        rng = np.random.default_rng(11)
        particles = DEFAULT_BATH_PRIOR.sample(6, rng)
        draws = rng.standard_normal((7, 4))
        taus = rng.uniform(0.0, 40.0, 25)
        table = hyper_signal_batch(particles, taus, draws)
        assert table.shape == (6, 25)
        for k, tau in enumerate(taus):
            np.testing.assert_array_equal(
                table[:, k], hyper_signal_batch(particles, tau, draws)
            )


class TestSampleBathRealization:
    def test_degenerate_spread(self):
        h = hypers(sigma_b=1e-12, sigma_omega=1e-12)
        realization = sample_bath_realization(h, 5, np.random.default_rng(0))
        np.testing.assert_allclose(
            realization.fields, np.tile(h.b1_mean, (5, 1)), atol=1e-9
        )
        np.testing.assert_allclose(
            realization.frequencies, h.omega0 + h.delta_omega, atol=1e-9
        )

    def test_single_spin(self):
        realization = sample_bath_realization(hypers(), 1, np.random.default_rng(1))
        assert realization.n_spins == 1

    def test_clt_frequency_mean(self):
        h = hypers()
        realization = sample_bath_realization(h, 1000, np.random.default_rng(2))
        mu = h.omega0 + h.delta_omega
        assert abs(realization.frequencies.mean() - mu) < 4 * h.sigma_omega / math.sqrt(
            1000
        )

    def test_frequencies_positive(self):
        h = hypers(omega0=0.05, delta_omega=0.0, sigma_omega=0.5)
        realization = sample_bath_realization(h, 500, np.random.default_rng(3))
        assert np.all(realization.frequencies > 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_bath_realization(hypers(), 0, np.random.default_rng(0))


class TestCleTrain:
    def test_zero_epochs_returns_prior_mean(self):
        dataset, _ = synthetic_echo_dataset()
        result = cle_train(dataset, 4, 0, 400, np.random.default_rng(0))
        prior_mean = np.array(
            [(m[1] + m[2]) / 2.0 for m in DEFAULT_BATH_PRIOR.marginals]
        )
        np.testing.assert_allclose(
            result.hyper_mean.to_vector(), prior_mean, atol=0.25
        )
        assert math.isfinite(result.log_likelihood)

    def test_recovers_omega0(self):
        # the tempered posterior is tight, so allow a small absolute floor
        # on top of the 3-sd credible window
        dataset, truth = synthetic_echo_dataset()
        hits = 0
        for seed in range(10):
            result = cle_train(
                dataset, 8, 100, 1000, np.random.default_rng([17, seed])
            )
            sd = math.sqrt(max(result.summary.covariance[7, 7], 1e-12))
            hits += abs(result.hyper_mean.omega0 - truth.omega0) < max(3 * sd, 0.05)
        assert hits >= 8

    def test_improves_on_prior(self):
        dataset, _ = synthetic_echo_dataset()
        prior_fit = cle_train(dataset, 8, 0, 400, np.random.default_rng(3))
        trained_fit = cle_train(dataset, 8, 100, 1000, np.random.default_rng(3))
        assert trained_fit.log_likelihood > prior_fit.log_likelihood

    def test_consistent_data_never_tanks_per_datum_score(self):
        # appending data the fitted model itself predicts cannot drag the
        # per-datum mean log-likelihood down by more than the clamp bound
        from qmla.bath import BathExperiment, _hyper_log_likelihood

        dataset, _ = synthetic_echo_dataset()
        fit = cle_train(dataset, 8, 80, 600, np.random.default_rng(11), eval_seed=99)
        vec = fit.hyper_mean.to_vector()
        base = [
            BathExperiment(float(t), float(p), 1, "d")
            for t, p in zip(dataset.times, dataset.probabilities)
        ]
        base_mean = _hyper_log_likelihood(vec, 8, base, 99) / len(base)
        extra_times = np.linspace(0.3, 39.0, 50)
        predicted = [
            float(
                np.clip(
                    _hyper_log_likelihood(
                        vec, 8, [BathExperiment(float(t), 1.0, 1, "d")], 99
                    ),
                    None,
                    0.0,
                )
            )
            for t in extra_times
        ]
        extra = [
            BathExperiment(float(t), float(math.exp(lp)), 1, "d")
            for t, lp in zip(extra_times, predicted)
        ]
        new_mean = _hyper_log_likelihood(vec, 8, base + extra, 99) / (
            len(base) + len(extra)
        )
        assert new_mean >= base_mean + math.log(1e-10)


def table_trace(table):
    """MhaTrace for fit tests: one proposal evaluation per count in the table."""
    trace = MhaTrace()
    for n, value in table.items():
        trace.steps.append(
            {
                "step": len(trace.steps),
                "n_before": n,
                "proposal": n,
                "ll_proposal": -abs(value),
                "ll_current": -abs(value),
                "accepted": True,
                "n_after": n,
            }
        )
    return trace


class TestMhaRun:
    def test_flat_likelihood_unbiased_walk(self):
        rng = np.random.default_rng(41)
        trace = mha_run(
            None, 1000, 0, 0, rng, n_start=25, log_likelihood_fn=lambda n: -5.0
        )
        steps = [s["n_after"] - s["n_before"] for s in trace.steps]
        assert abs(np.mean(steps)) < 0.05
        assert all(s["accepted"] for s in trace.steps)

    def test_monotone_then_flat_concentrates_above_knee(self):
        def table(n):
            return float(min(n, 10) * 5.0)

        rng = np.random.default_rng(43)
        trace = mha_run(None, 2000, 0, 0, rng, log_likelihood_fn=table)
        visited = [s["n_after"] for s in trace.steps[200:]]
        assert np.mean(np.array(visited) >= 10) > 0.95

    def test_reflecting_boundary(self):
        rng = np.random.default_rng(47)
        trace = mha_run(
            None, 500, 0, 0, rng, n_start=1, n_max=3, log_likelihood_fn=lambda n: 0.0
        )
        ns = [s["n_after"] for s in trace.steps]
        assert min(ns) >= 1 and max(ns) <= 3

    def test_detailed_balance_against_table(self):
        # stationary frequencies must match the normalised target exp(ll);
        # the chain is thinned so the multinomial error model applies
        lls = {n: -0.3 * abs(n - 10) for n in range(1, 21)}
        rng = np.random.default_rng(53)
        trace = mha_run(
            None, 50_000, 0, 0, rng, n_start=10, n_max=20,
            log_likelihood_fn=lambda n: lls[n],
        )
        visited = np.array([s["n_after"] for s in trace.steps[2000::50]])
        target = np.array([math.exp(lls[n]) for n in range(1, 21)])
        target /= target.sum()
        counts = np.array([(visited == n).sum() for n in range(1, 21)])
        total = counts.sum()
        for n in range(20):
            sd = math.sqrt(total * target[n] * (1 - target[n]))
            assert abs(counts[n] - total * target[n]) < 3 * sd

    def test_requires_dataset_without_table(self):
        with pytest.raises(ValueError, match="dataset"):
            mha_run(None, 10, 5, 10, np.random.default_rng(0))


class TestFitLogistic:
    def test_exact_logistic_recovery(self):
        L, k, n0 = 40.0, 0.9, 7.0
        table = {n: L / (1 + math.exp(-k * (n - n0))) for n in range(1, 21)}
        fit = fit_logistic(table_trace(table))
        assert fit.plateau == pytest.approx(L, rel=0.01)
        assert fit.steepness == pytest.approx(k, rel=0.01)
        assert fit.midpoint == pytest.approx(n0, rel=0.01)

    def test_constant_input_degenerate(self):
        fit = fit_logistic(table_trace({n: 5.0 for n in range(1, 11)}))
        assert fit.degenerate
        assert fit.steepness == 0.0

    def test_step_function_onset(self):
        table = {n: (100.0 if n >= 13 else 1.0) for n in range(1, 26)}
        fit = fit_logistic(table_trace(table))
        assert fit.midpoint + 2.0 / fit.steepness == pytest.approx(13.0, abs=1.0)

    def test_needs_three_counts(self):
        with pytest.raises(ValueError, match="three"):
            fit_logistic(table_trace({1: 1.0, 2: 2.0}))


class TestEstimateT2:
    def synthetic_envelope(self, t2=80.0, omega0=0.8, t_max=160.0):
        times = np.arange(0.05, t_max, 0.05)
        period = 2 * math.pi / omega0
        # narrow revival peaks whose maxima decay as exp(-(t/T2)^3)
        nearest = np.round(times / period) * period
        peak = np.exp(-((times - nearest) ** 2) / 0.5)
        envelope = np.exp(-((times / t2) ** 3))
        probs = np.clip(0.5 + 0.5 * peak * envelope, 0.0, 1.0)
        return RecordedDataset(times=times, probabilities=probs, source="envelope")

    def test_recovers_t2(self):
        estimate = estimate_T2(self.synthetic_envelope(), 0.8)
        assert abs(estimate.t2 - 80.0) < 5.0
        assert not estimate.no_decay

    def test_constant_revivals_flagged(self):
        dataset = self.synthetic_envelope(t2=1e9)
        estimate = estimate_T2(dataset, 0.8)
        assert estimate.no_decay
        assert math.isinf(estimate.t2)

    def test_insufficient_windows(self):
        dataset = self.synthetic_envelope(t_max=10.0)
        with pytest.raises(ValueError, match="three"):
            estimate_T2(dataset, 0.8)

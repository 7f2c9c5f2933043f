import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import qmla.bath as bath
from qmla.bath import (
    BathHyperparameters,
    BathRealization,
    DEFAULT_BATH_PRIOR,
    MhaTrace,
    _hyper_log_likelihood,
    _shared_draws,
    _truncated_freqs,
    cle_train,
    estimate_T2,
    fit_logistic,
    hahn_signal,
    hyper_signal_batch,
    mha_run,
    pseudospin,
    sample_bath_realization,
)
from qmla.smc import log_likelihood
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
            assert 0.0 <= s <= 1.0

    def test_equals_np_cross_form(self):
        def with_np_cross(b0, b1, omega0, omega_j, tau):
            cross = np.cross(b0, b1)
            geometric = float(cross @ cross) / (float(b0 @ b0) * float(b1 @ b1))
            return 1.0 - geometric * math.sin(omega0 * tau / 2.0) ** 2 * math.sin(
                omega_j * tau / 2.0
            ) ** 2

        rng = np.random.default_rng(41)
        for _ in range(2000):
            b0, b1 = rng.standard_normal(3) * 3.0, rng.standard_normal(3)
            args = (b0, b1, rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0, 50))
            assert pseudospin(*args) == with_np_cross(*args)

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            pseudospin([0, 0, 0], [1, 0, 0], 1.0, 1.0, 1.0)


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
        # perpendicular fields, both sine factors at 1: S = 0, so Pr(1) = 1/2
        p = hahn_signal(realization, [1.0, 0, 0], 1.0, math.pi)
        assert p == pytest.approx(0.5, abs=1e-12)

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


def particle_major_signal(particles, tau, draws):
    """The particles x sites x 3 formulation (``np.cross`` and sums over the
    component axis) that the site-major kernel must reproduce bit for bit."""
    particles = np.atleast_2d(particles)
    b0 = particles[:, 0:3]
    sigma_b = np.clip(particles[:, 6], 1e-9, None)
    omega0 = np.clip(particles[:, 7], 1e-9, None)
    sigma_w = np.clip(particles[:, 9], 1e-9, None)
    fields = particles[:, None, 3:6] + sigma_b[:, None, None] * draws[None, :, :3]
    freqs = _truncated_freqs(
        (omega0 + particles[:, 8])[:, None], sigma_w[:, None], draws[None, :, 3]
    )
    n0 = np.clip(np.sum(b0**2, axis=1), 1e-12, None)
    n1 = np.clip(np.sum(fields**2, axis=2), 1e-12, None)
    geometric = np.sum(np.cross(b0[:, None, :], fields) ** 2, axis=2) / (n0[:, None] * n1)
    tau = np.asarray(tau, dtype=float)
    taus = tau.reshape(-1)[None, :]
    s0 = np.sin(omega0[:, None] * taus / 2.0) ** 2
    spins = 1.0 - geometric[:, None, :] * s0[:, :, None] * np.sin(
        freqs[:, None, :] * taus[:, :, None] / 2.0
    ) ** 2
    probs = (np.prod(spins, axis=2) + 1.0) / 2.0
    return probs.reshape(particles.shape[0], *tau.shape)


class TestHyperSignalBatchOracle:
    @pytest.mark.parametrize("n_spins", [1, 2, 8, 13])
    @pytest.mark.parametrize("n_particles", [1, 1000])
    @pytest.mark.parametrize("rows", ["prior", "normal"])
    def test_bit_identical_to_particle_major_form(self, n_spins, n_particles, rows):
        rng = np.random.default_rng(1000 * n_spins + n_particles)
        if rows == "prior":
            particles = DEFAULT_BATH_PRIOR.sample(n_particles, rng)
        else:  # negative spreads and frequencies hit the 1e-9 floors
            particles = rng.standard_normal((n_particles, 10))
        draws = rng.standard_normal((n_spins, 4))
        taus = {
            (): 7.3,
            (25,): rng.uniform(0.0, 40.0, 25),
            (3, 4): rng.uniform(0.0, 40.0, (3, 4)),
        }
        for tau_shape, tau in taus.items():
            got = hyper_signal_batch(particles, tau, draws)
            assert got.shape == (n_particles, *tau_shape)
            np.testing.assert_array_equal(got, particle_major_signal(particles, tau, draws))


class TestTruncatedFreqs:
    """Particles with no truncated mass share one ``ndtri`` per site, the
    others get one per site and particle, and together they give the same
    bits as one per site and particle throughout."""

    @staticmethod
    def per_particle(mu, sigma, z_col):
        from scipy import special

        u = special.ndtr(z_col)
        lo = special.ndtr(-mu / sigma)
        p = np.clip(lo + u * (1.0 - lo), 1e-12, 1.0 - 1e-12)
        return mu + sigma * special.ndtri(p)

    @staticmethod
    def particles(depth, n, rng):
        deep = (rng.uniform(1.0, 2.5, n), rng.uniform(0.01, 0.05, n))  # mu/sigma >= 20
        shallow = (rng.uniform(-0.5, 1.0, n), rng.uniform(0.3, 1.0, n))
        if depth == "deep":
            return deep
        if depth == "shallow":
            return shallow
        keep = rng.random(n) < 0.5
        return tuple(np.where(keep, a, b) for a, b in zip(deep, shallow))

    @pytest.mark.parametrize("depth", ["deep", "shallow", "mixed"])
    def test_bit_identical_to_per_particle_form(self, depth, monkeypatch):
        from scipy import special

        ndtri, shapes = special.ndtri, []

        def counted(x):
            shapes.append(np.shape(x))
            return ndtri(x)

        monkeypatch.setattr(special, "ndtri", counted)
        rng = np.random.default_rng(131)
        splits = 0
        for _ in range(60):
            n, sites = int(rng.integers(2, 300)), int(rng.integers(1, 14))
            mu, sigma = self.particles(depth, n, rng)
            z_col = rng.standard_normal((sites, 1)) * rng.choice([1.0, 3.0])
            shallow = int(np.sum(mu / sigma < 10.0))  # deep ones have mu/sigma >= 20
            shapes.clear()
            got = _truncated_freqs(mu, sigma, z_col)
            if shallow == 0:
                assert shapes == [(sites, 1)]
            elif shallow == n:
                assert shapes == [(sites, n)]
            else:
                assert shapes == [(sites, 1), (sites, shallow)]
                splits += 1
            np.testing.assert_array_equal(got, self.per_particle(mu, sigma, z_col))
        assert (splits > 0) == (depth == "mixed")


class TestParticleColumns:
    """A frozen particle batch keeps its draw-independent columns from one
    kernel call to the next, as ``cle_train`` passes its cloud's frozen
    locations every epoch; a writable array or a view is derived afresh."""

    @staticmethod
    def count_derivations(monkeypatch, n_particles):
        """Calls of ``special.ndtr`` along the particle axis: one per
        derivation of the truncated masses."""
        from scipy import special

        ndtr, calls = special.ndtr, []

        def counted(x):
            if np.shape(x) == (n_particles,):
                calls.append(n_particles)
            return ndtr(x)

        monkeypatch.setattr(special, "ndtr", counted)
        return calls

    def test_frozen_batch_derived_once(self, monkeypatch):
        rng = np.random.default_rng(71)
        particles = DEFAULT_BATH_PRIOR.sample(50, rng).copy()
        particles.flags.writeable = False
        cases = [(tau, rng.standard_normal((8, 4))) for tau in (0.4, 3.1, np.array([9.7, 20.5]))]
        expected = [particle_major_signal(particles, tau, draws) for tau, draws in cases]
        calls = self.count_derivations(monkeypatch, 50)
        for (tau, draws), want in zip(cases, expected):
            np.testing.assert_array_equal(hyper_signal_batch(particles, tau, draws), want)
        assert len(calls) == 1

    def test_one_derivation_per_location_set(self, monkeypatch):
        batches = []
        kernel = bath.hyper_signal_batch

        def kept(particles, tau, draws):
            if particles.shape[0] == 400:  # not the final one-vector scoring
                batches.append(particles)
            return kernel(particles, tau, draws)

        monkeypatch.setattr(bath, "hyper_signal_batch", kept)
        calls = self.count_derivations(monkeypatch, 400)
        dataset, _ = synthetic_echo_dataset()
        cle_train(dataset, 8, 30, 400, np.random.default_rng(5))
        location_sets = {id(b) for b in batches}  # all kept alive, so ids differ
        assert not any(b.flags.writeable for b in batches)
        assert len(batches) == 30 and 1 < len(location_sets) < 30
        assert len(calls) == len(location_sets)

    @pytest.mark.parametrize("kind", ["writable", "view"])
    def test_writable_or_view_derived_every_call(self, kind, monkeypatch):
        rng = np.random.default_rng(73)
        particles = DEFAULT_BATH_PRIOR.sample(50, rng).copy()
        if kind == "view":
            particles.flags.writeable = False
            particles = particles[:]
        calls = self.count_derivations(monkeypatch, 50)
        for tau in (0.4, 3.1, 9.7):
            hyper_signal_batch(particles, tau, rng.standard_normal((8, 4)))
        assert len(calls) == 3

    def test_mutated_writable_batch_bit_identical(self):
        rng = np.random.default_rng(79)
        particles = DEFAULT_BATH_PRIOR.sample(200, rng)
        draws = rng.standard_normal((8, 4))
        for _ in range(4):
            got = hyper_signal_batch(particles, 7.3, draws)
            np.testing.assert_array_equal(got, particle_major_signal(particles, 7.3, draws))
            particles += 0.05 * rng.standard_normal(particles.shape)


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
        dataset, _ = synthetic_echo_dataset()
        fit = cle_train(dataset, 8, 80, 600, np.random.default_rng(11), eval_seed=99)
        vec = fit.hyper_mean.to_vector()
        base = _hyper_log_likelihood(vec, 8, dataset, 99)
        extra_times = np.linspace(0.3, 39.0, 50)
        # scored at value 1.0, each row's log-likelihood is log q
        predicted = np.clip(
            _hyper_log_likelihood(
                vec, 8, RecordedDataset(extra_times, np.ones(extra_times.size)), 99
            ),
            None,
            0.0,
        )
        extra = _hyper_log_likelihood(
            vec, 8, RecordedDataset(extra_times, np.exp(predicted)), 99
        )
        base_mean = np.sum(base) / base.size
        new_mean = (np.sum(base) + np.sum(extra)) / (base.size + extra.size)
        assert new_mean >= base_mean + math.log(1e-10)


def list_formulation_score(vec, n_spins, experiments, eval_seed):
    """Score of a (time, value) list as the walk used to compute it: the
    kernel at the unique times, a per-experiment log-likelihood, one sum."""
    draws = _shared_draws(n_spins, eval_seed)
    times = np.array([t for t, _ in experiments])
    values = np.array([v for _, v in experiments])
    unique_times, inverse = np.unique(times, return_inverse=True)
    q_unique = hyper_signal_batch(vec[None, :], unique_times, draws)[0]
    return float(np.sum(log_likelihood(q_unique[inverse], values)))


class TestHyperLogLikelihoodOracle:
    @pytest.mark.parametrize("n_rows", [1, 17, 300, 30_100])
    def test_row_sum_bit_identical_to_list_formulation(self, n_rows):
        dataset, truth = synthetic_echo_dataset()
        rng = np.random.default_rng(n_rows)
        rows = rng.integers(0, dataset.times.size, n_rows)  # repeats included
        experiments = [
            (float(dataset.times[r]), float(dataset.probabilities[r])) for r in rows
        ]
        for vec in (truth.to_vector(), *DEFAULT_BATH_PRIOR.sample(3, rng)):
            for n_spins in (1, 8):
                row_ll = _hyper_log_likelihood(vec, n_spins, dataset, 99)
                assert row_ll.shape == dataset.times.shape
                assert float(np.sum(row_ll[rows])) == list_formulation_score(
                    vec, n_spins, experiments, 99
                )

    def test_cle_log_likelihood_is_row_sum(self):
        dataset, _ = synthetic_echo_dataset()
        fit = cle_train(dataset, 3, 10, 50, np.random.default_rng(5), eval_seed=7)
        experiments = list(zip(dataset.times.tolist(), dataset.probabilities.tolist()))
        assert fit.log_likelihood == list_formulation_score(
            fit.hyper_mean.to_vector(), 3, experiments, 7
        )
        assert fit.rows.shape == (10,)


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

    def test_short_walk_round_trips_and_holds_replayed_rows(self):
        dataset, _ = synthetic_echo_dataset()
        epochs = 15
        trace = mha_run(dataset, 12, epochs, 60, np.random.default_rng(61), n_max=2)
        record = trace.to_dict()
        assert json.loads(json.dumps(record)) == record
        moves = sum(1 for s in record["steps"] if s["proposal"] != s["n_before"])
        assert 0 < moves < len(record["steps"])  # both moves and stay-put steps
        assert record["num_experiments"] == epochs * (1 + moves)
        assert json.loads(json.dumps(trace.final_hypers)) == trace.final_hypers
        # the last step keeps its state, so its current score is the final
        # hyperparameters' list-formulation score of every held row, at the
        # eval seed (the walk's first draw)
        last = record["steps"][-1]
        assert last["n_after"] == last["n_before"]
        held = [
            (float(dataset.times[r]), float(dataset.probabilities[r]))
            for r in trace.experiments
        ]
        assert last["ll_current"] == list_formulation_score(
            BathHyperparameters(**trace.final_hypers).to_vector(),
            last["n_before"],
            held,
            int(np.random.default_rng(61).integers(2**63)),
        )

    def test_requires_dataset_without_table(self):
        with pytest.raises(ValueError, match="dataset"):
            mha_run(None, 10, 5, 10, np.random.default_rng(0))


class TestBathPins:
    """sha256 of fixed-seed bath results: a fit and a walk may not move by a
    bit from one version to the next."""

    def test_cle_train_bit_for_bit(self):
        dataset, _ = synthetic_echo_dataset()
        fit = cle_train(dataset, 8, 30, 400, np.random.default_rng(2024))
        digest = hashlib.sha256()
        digest.update(json.dumps(fit.hyper_mean.to_dict(), sort_keys=True).encode())
        digest.update(fit.rows.tobytes())
        digest.update(fit.row_log_likelihoods.tobytes())
        assert digest.hexdigest() == (
            "97ce3a0b0012d04cbca48e0782b68cbfb427da0b637c4b4b85efcc0e40681bf0"
        )

    def test_mha_run_bit_for_bit(self):
        dataset, _ = synthetic_echo_dataset()
        trace = mha_run(dataset, 6, 20, 300, np.random.default_rng(2025), n_start=4)
        blob = json.dumps(
            {"trace": trace.to_dict(), "final": trace.final_hypers}, sort_keys=True
        ).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "e4abc958315f885fbd4463dcbfe74d0ca40419a1d5a9bbba492360f29d7382f6"
        )


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

    @staticmethod
    def walked_peaks(dataset, omega0):
        """The first maximum of every revival window, found by walking each
        window from k = 1 to the last recorded time; the oracle for the
        windows ``estimate_T2`` visits."""
        period = 2.0 * math.pi / omega0
        half = period / 2.0
        peak_times, peak_values = [], []
        k = 1
        while (k * period - half) <= dataset.max_time:
            lo, hi = k * period - half, k * period + half
            mask = (dataset.times >= lo) & (dataset.times < hi)
            if mask.any():
                idx = np.argmax(dataset.probabilities[mask])
                peak_times.append(float(dataset.times[mask][idx]))
                peak_values.append(float(dataset.probabilities[mask][idx]))
            k += 1
        return tuple(peak_times), tuple(peak_values)

    @pytest.mark.parametrize("omega0", [0.8, 100.0, 1e4])
    def test_windows_match_walk(self, omega0):
        dataset, _ = synthetic_echo_dataset()
        estimate = estimate_T2(dataset, omega0)
        peaks = (estimate.window_times, estimate.window_maxima)
        assert peaks == self.walked_peaks(dataset, omega0)

    @pytest.mark.parametrize("omega0", [0.8, 1234.5])
    def test_boundary_times_keep_their_window(self, omega0):
        # one time in every third window, on a lower bound or one ulp either
        # side; at these omega0 some times' indices name the window below or
        # above their own, which no other time's neighbours then cover
        period = 2.0 * math.pi / omega0
        lower = np.arange(1, 120, 3) * period - period / 2.0
        for times in (lower, np.nextafter(lower, np.inf), np.nextafter(lower, -np.inf)):
            dataset = RecordedDataset(times=times, probabilities=np.full(times.size, 0.5))
            estimate = estimate_T2(dataset, omega0)
            peaks = (estimate.window_times, estimate.window_maxima)
            assert peaks == self.walked_peaks(dataset, omega0)

    def test_cost_follows_data_not_omega0(self):
        # one window per recorded time: walking all ~6e6 windows took ~30 s
        dataset, _ = synthetic_echo_dataset()
        start = time.perf_counter()
        estimate = estimate_T2(dataset, 1e6)
        assert time.perf_counter() - start < 1.0
        assert estimate.window_times == tuple(dataset.times.tolist())


def run_fresh(code: str) -> int:
    """Exit code of ``code`` run in a new interpreter that imports qmla from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env).returncode


class TestScipyOnUse:
    """scipy is imported by the bath functions that call it, not by qmla."""

    def test_import_leaves_scipy_out(self):
        code = "import sys, qmla, qmla.cli; sys.exit('scipy' in sys.modules)"
        assert run_fresh(code) == 0

    def test_bath_functions_run_after_fresh_import(self):
        code = """
            import math, sys
            import numpy as np
            import qmla
            from qmla.bath import (
                DEFAULT_BATH_PRIOR, MhaTrace, estimate_T2, fit_logistic,
                hyper_signal_batch,
            )
            from qmla.system import RecordedDataset

            assert "scipy" not in sys.modules
            rng = np.random.default_rng(0)
            q = hyper_signal_batch(
                DEFAULT_BATH_PRIOR.sample(4, rng), [0.5, 2.0], rng.standard_normal((3, 4))
            )
            assert q.shape == (4, 2) and np.all((q >= 0) & (q <= 1))

            trace = MhaTrace()
            for n in range(1, 11):
                ll = -40.0 / (1 + math.exp(-0.9 * (n - 5.0)))
                trace.steps.append({
                    "step": n - 1, "n_before": n, "proposal": n, "ll_proposal": ll,
                    "ll_current": ll, "accepted": True, "n_after": n,
                })
            assert abs(fit_logistic(trace).plateau - 40.0) < 0.5

            times = np.arange(0.05, 160.0, 0.05)
            period = 2 * math.pi / 0.8
            peak = np.exp(-((times - np.round(times / period) * period) ** 2) / 0.5)
            probs = 0.5 + 0.5 * peak * np.exp(-((times / 80.0) ** 3))
            estimate = estimate_T2(RecordedDataset(times=times, probabilities=probs), 0.8)
            assert abs(estimate.t2 - 80.0) < 5.0
        """
        assert run_fresh(code) == 0

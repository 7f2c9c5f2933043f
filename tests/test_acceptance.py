"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
as they complete).  Criteria are scaled-down statistical analogues of the
full-size study; the full-size figures are documented in the README.
"""

import json
import math

import numpy as np
import pytest

from qmla.bath import (
    estimate_T2,
    fit_logistic,
    mha_run,
)
from qmla.bayes import TrainedModel, bayes_factor, min_particle_bound
from qmla.harness import estimate_runtime_raw, parse_config, run_batch
from qmla.pauli import assemble_hamiltonian, evolve_unitary, parse_model, term_from_label, term_matrix
from qmla.search import DEFAULT_STAGES, consolidate
from qmla.smc import (
    ParticleCloud,
    PriorSpec,
    bayes_update,
    effective_sample_size,
    initialize_cloud,
    liu_west_resample,
    log_likelihood,
    run_qhl,
)
from qmla.system import (
    ExperimentDesign,
    ExperimentTable,
    NoiseConfig,
    RecordedDataset,
    SimulatedSystem,
    expectation_value,
    haar_state,
    open_system_likelihood,
    plus_state,
    phase_plus_state,
)
from tests.test_system import brute_force_open_system
from tests.test_bath import synthetic_echo_dataset


def verdict(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {status}: {description} {detail}".rstrip())
    assert ok, f"criterion {number}: {description} {detail}"


def test_01_open_system_oracle_equivalence():
    rng = np.random.default_rng(1001)
    model = parse_model("SxyzAxyzTxyxzyz")
    worst = 0.0
    for _ in range(100):
        H = assemble_hamiltonian(model, rng.uniform(0, 10, 9))
        psys, penv = haar_state(2, rng), haar_state(2, rng)
        t = rng.uniform(0, 10)
        d = int(rng.integers(0, 2))
        basis = np.eye(2, dtype=complex)
        got = open_system_likelihood(H, psys, penv, t, d=d, basis=basis)
        want = brute_force_open_system(H, psys, penv, t, d=d, basis=basis)
        worst = max(worst, abs(got - want))
    verdict(1, "partial-trace likelihood matches brute-force density matrix",
            worst < 1e-9, f"(max |diff| = {worst:.2e})")


def test_02_closed_form_likelihood():
    rng = np.random.default_rng(1002)
    probe = plus_state()
    worst = 0.0
    sz = term_matrix(term_from_label("Sz"), 1)
    for _ in range(1000):
        alpha, t = rng.uniform(0, 10), rng.uniform(0, 10)
        p = expectation_value(alpha * sz, probe, t)
        worst = max(worst, abs(p - math.cos(alpha * t) ** 2))
    verdict(2, "single-spin likelihood equals cos^2(alpha t)",
            worst < 1e-10, f"(max |diff| = {worst:.2e})")


def test_03_algebraic_invariants():
    rng = np.random.default_rng(1003)
    model = parse_model("SxyzAxyzTxyxzyz")
    ok, notes = True, []

    unit_err = 0.0
    group_err = 0.0
    for _ in range(50):
        H = assemble_hamiltonian(model, rng.uniform(0, 10, 9))
        t1, t2 = rng.uniform(0, 10, 2)
        U1, U2 = evolve_unitary(H, t1), evolve_unitary(H, t2)
        unit_err = max(unit_err, np.max(np.abs(U1.conj().T @ U1 - np.eye(4))))
        group_err = max(
            group_err, np.max(np.abs(U1 @ U2 - evolve_unitary(H, t1 + t2)))
        )
    ok &= unit_err < 1e-10 and group_err < 1e-9
    notes.append(f"unitarity {unit_err:.1e}, group {group_err:.1e}")

    for label in ("Sx", "Sy", "Sz", "Ax", "Ay", "Az", "Txy", "Txz", "Tyz"):
        P = term_matrix(term_from_label(label), 2)
        ok &= np.allclose(P @ P, np.eye(4), atol=1e-14)

    times = rng.uniform(0, 5, 30)
    outcomes = [float(rng.integers(0, 2)) for _ in times]
    plus = np.tile(plus_state(), (30, 1))
    env = np.tile(phase_plus_state(0.3), (30, 1))
    shared = ExperimentTable(times, plus, env, plus, np.array(outcomes))
    mi = TrainedModel(parse_model("Sz"), np.array([2.0]), np.array([0.1]), shared)
    mj = TrainedModel(parse_model("Sy"), np.array([1.0]), np.array([0.1]), shared)
    anti = (
        bayes_factor(mi, mj).log_bayes_factor
        + bayes_factor(mj, mi).log_bayes_factor
    )
    ok &= anti == 0.0
    notes.append(f"BF antisymmetry residual {anti!r}")

    model_sz = parse_model("Sz")
    from qmla.system import HamiltonianModel

    evaluator = HamiltonianModel(model_sz)
    cloud = initialize_cloud(PriorSpec.uniform(1, 0, 10), 256, rng)
    for _ in range(30):
        outcome = float(rng.integers(0, 2))
        design = ExperimentDesign(
            time=float(rng.uniform(0, 5)),
            probe_sys=plus_state(), probe_env=phase_plus_state(0.0),
        )
        probs = evaluator.probabilities(cloud.locations, design)
        cloud = bayes_update(cloud, log_likelihood(probs, outcome))
        ess = effective_sample_size(cloud)
        ok &= 1.0 - 1e-9 <= ess <= 256 + 1e-9
        ok &= abs(cloud.weights.sum() - 1.0) < 1e-10 and np.all(cloud.weights >= 0)
    verdict(3, "algebraic invariants (unitarity, P^2=I, BF antisymmetry, ESS, weights)",
            ok, "(" + "; ".join(notes) + ")")


def test_04_liu_west_moment_preservation():
    rng = np.random.default_rng(1004)
    n = 50_000
    cov = np.array([[1.0, 0.25], [0.25, 0.4]])
    locations = rng.multivariate_normal([3.0, -2.0], cov, n)
    cloud = ParticleCloud(locations, np.full(n, 1.0 / n))
    resampled, _ = liu_west_resample(cloud, 0.98, rng)
    mean_err = np.abs(resampled.mean() - cloud.mean())
    bound = 3.0 * np.sqrt(np.diag(cloud.covariance())) / math.sqrt(n)
    frob = np.linalg.norm(resampled.covariance() - cloud.covariance()) / np.linalg.norm(
        cloud.covariance()
    )
    ok = bool(np.all(mean_err < bound) and frob < 0.05)
    verdict(4, "Liu-West resampling preserves mean and covariance",
            ok, f"(mean err {mean_err.max():.2e}, cov Frobenius {frob:.3f})")


def test_05_qhl_convergence():
    truth = 3.1
    in_credible = 0
    volume_crash = 0
    for seed in range(20):
        system = SimulatedSystem(
            parse_model("Sz"), [truth],
            noise=NoiseConfig(probe_offset_sigma=0.0),
        )
        record = run_qhl(
            system,
            parse_model("Sz"),
            PriorSpec.uniform(1, 0, 10),
            100,
            1000,
            np.random.default_rng(np.random.SeedSequence([2005, seed])),
        )
        sd = record.final_sds[0]
        in_credible += abs(record.final_params[0] - truth) <= 3.0 * sd
        volumes = record.volumes
        volume_crash += volumes[-1] < 1e-2 * volumes[0]
    verdict(5, "single-parameter training converges (20 seeds)",
            in_credible >= 18 and volume_crash >= 19,
            f"(within 3 sd: {in_credible}/20, volume crash: {volume_crash}/20)")


def test_06_small_model_selection():
    champion_hits = 0
    bf_hits = 0
    prior = PriorSpec.uniform(1, 0, 10)
    for seed in range(20):
        seq = np.random.SeedSequence([2006, seed])
        system = SimulatedSystem(
            parse_model("Sz"), [3.0], probe_policy="random",
            noise=NoiseConfig(probe_offset_sigma=0.0),
        )
        records = {}
        for name, child in zip(("Sx", "Sy", "Sz"), seq.spawn(3)):
            expr = parse_model(name)
            records[name] = TrainedModel.from_record(
                expr,
                run_qhl(system, expr, prior, 200, 500, np.random.default_rng(child)),
            )
        champion, _, _ = consolidate(list(records.values()), 10.0)
        champion_hits += champion.name == "Sz"
        log_b = min(
            bayes_factor(records["Sz"], records["Sx"]).log_bayes_factor,
            bayes_factor(records["Sz"], records["Sy"]).log_bayes_factor,
        )
        bf_hits += log_b > math.log(100.0)
    verdict(6, "layer selection finds the true rotation axis (20 seeds)",
            champion_hits >= 18 and bf_hits >= 18,
            f"(champion: {champion_hits}/20, BF>100: {bf_hits}/20)")


@pytest.mark.slow
def test_07_full_search_desk_scale(tmp_path):
    config = parse_config(
        {
            "mode": "simulate",
            "true_model": "SxyzAz",
            "true_params": [2.8, 5.7, 1.6, 3.4],
            "num_particles": 500,
            "num_epochs": 250,
            "instances": 20,
            "parallelism": 4,
            "seed": 2007,
        }
    )
    report = run_batch(config, tmp_path / "desk")
    results = [
        json.loads((tmp_path / "desk" / f"instance_{i:04d}.json").read_text())
        for i in range(20)
    ]
    shape_ok = all(
        len(r["layers"]) == 9
        and sum(len(layer["models"]) for layer in r["layers"]) == 18
        for r in results
    )
    credible = sum(
        r["champion"]["name"] in config.credible_models for r in results
    )
    median_r2 = report.median_r_squared
    ok = shape_ok and credible >= 10 and median_r2 is not None and median_r2 >= 0.6
    verdict(7, "desk-scale full search (20 instances)",
            ok,
            f"(9 layers/18 models: {shape_ok}, credible: {credible}/20, "
            f"median R^2 = {median_r2:.3f})")


def test_08_runtime_estimator_and_particle_bound():
    seconds = estimate_runtime_raw(DEFAULT_STAGES, 3000, 1000, 6)
    hours = seconds / 3600.0
    bound = min_particle_bound(1, 2, 3, 2, 1, 0.5)
    ok = abs(hours - 20.0) / 20.0 <= 0.3 and bound == 41_472
    verdict(8, "runtime estimate near 20 h and exact particle bound",
            ok, f"(T = {hours:.1f} h, bound = {bound})")


@pytest.mark.slow
def test_09_bath_pipeline_synthetic():
    dataset, truth = synthetic_echo_dataset()
    trace = mha_run(dataset, 2000, 100, 1000, np.random.default_rng(2009))
    fit = fit_logistic(trace)
    onset_ok = 6.0 <= fit.plateau_onset <= 12.0

    omega0 = 0.8
    period = 2 * math.pi / omega0
    times = np.arange(0.05, 160.0, 0.05)
    nearest = np.round(times / period) * period
    peak = np.exp(-((times - nearest) ** 2) / 0.5)
    envelope = np.exp(-((times / 80.0) ** 3))
    synthetic = RecordedDataset(
        times=times,
        probabilities=np.clip(0.5 + 0.5 * peak * envelope, 0, 1),
        source="envelope",
    )
    t2 = estimate_T2(synthetic, omega0)
    t2_ok = abs(t2.t2 - 80.0) <= 5.0
    verdict(9, "bath pipeline: spin-count plateau and T2 envelope",
            onset_ok and t2_ok,
            f"(plateau onset = {fit.plateau_onset:.1f}, T2 = {t2.t2:.1f} us)")


def test_10_batch_determinism(tmp_path):
    config = parse_config(
        {
            "mode": "simulate",
            "true_model": "Sz",
            "true_params": [3.0],
            "growth_stages": [["Sx", "Sy", "Sz"]],
            "num_particles": 150,
            "num_epochs": 40,
            "instances": 2,
            "parallelism": 1,
            "probe_policy": "random",
            "seed": 2010,
        }
    )
    run_batch(config, tmp_path / "first")
    run_batch(config, tmp_path / "second")
    names = ["report.json", "instance_0000.json", "instance_0001.json"]
    identical = all(
        (tmp_path / "first" / n).read_bytes() == (tmp_path / "second" / n).read_bytes()
        for n in names
    )
    verdict(10, "identical seed and config give byte-identical artifacts", identical)


def test_11_mha_detailed_balance():
    lls = {n: -0.3 * abs(n - 10) for n in range(1, 21)}
    rng = np.random.default_rng(2011)
    trace = mha_run(
        None, 50_000, 0, 0, rng, n_start=10, n_max=20,
        log_likelihood_fn=lambda n: lls[n],
    )
    visited = np.array([s["n_after"] for s in trace.steps[2000::50]])
    target = np.array([math.exp(lls[n]) for n in range(1, 21)])
    target /= target.sum()
    counts = np.array([(visited == n).sum() for n in range(1, 21)])
    total = counts.sum()
    worst = 0.0
    for n in range(20):
        sd = math.sqrt(total * target[n] * (1 - target[n]))
        worst = max(worst, abs(counts[n] - total * target[n]) / sd)
    verdict(11, "spin-count sampler matches its stationary distribution",
            worst < 3.0, f"(max per-bin z = {worst:.2f})")

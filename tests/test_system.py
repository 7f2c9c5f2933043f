import dataclasses

import numpy as np
import pytest

from qmla.pauli import SINGLE_QUBIT, assemble_batch, assemble_hamiltonian, parse_model
from qmla.system import (
    ExperimentDesign,
    HamiltonianModel,
    NoiseConfig,
    RecordedDataset,
    ReplayRangeError,
    ReplaySystem,
    SimulatedSystem,
    expectation_value,
    haar_state,
    open_system_likelihood,
    outcome_probabilities,
    phase_plus_state,
    plus_state,
    randomized_probe,
    replay_probability,
    sample_datum,
)

SZ = SINGLE_QUBIT["z"]
SX = SINGLE_QUBIT["x"]


def brute_force_open_system(H, probe_sys, probe_env, t, d=0, basis=None):
    """Independent oracle: full density-matrix evolution, then a partial
    trace by explicit index summation."""
    from scipy.linalg import expm

    psi = np.kron(probe_sys, probe_env)
    rho = np.outer(psi, psi.conj())
    U = expm(-1j * H * t)
    rho_t = U @ rho @ U.conj().T
    ds, de = len(probe_sys), len(probe_env)
    rho_sys = np.zeros((ds, ds), dtype=complex)
    for a in range(ds):
        for b in range(ds):
            for e in range(de):
                rho_sys[a, b] += rho_t[a * de + e, b * de + e]
    if basis is None:
        basis = np.eye(ds, dtype=complex)
    vec = basis[:, d]
    return float(np.real(vec.conj() @ rho_sys @ vec))


class TestExpectationValue:
    def test_closed_form_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha, t = rng.uniform(0, 10), rng.uniform(0, 10)
            p = expectation_value(alpha * SZ, plus_state(), t)
            assert abs(p - np.cos(alpha * t) ** 2) < 1e-10

    def test_zero_at_quarter_period(self):
        assert expectation_value(SZ, plus_state(), np.pi / 2) < 1e-12

    def test_identity_evolution(self):
        rng = np.random.default_rng(5)
        H = assemble_hamiltonian(parse_model("SxyzAz"), rng.uniform(0, 10, 4))
        probe = haar_state(4, rng)
        assert expectation_value(H, probe, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_state_vector_oracle(self):
        # exp(-i (sz x sz) t)|++> = cos t |++> - i sin t |-->
        H = np.kron(SZ, SZ)
        probe = np.kron(plus_state(), plus_state())
        for t in (0.3, 1.2, 2.9):
            assert expectation_value(H, probe, t) == pytest.approx(
                np.cos(t) ** 2, abs=1e-12
            )

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation_value(SZ, np.ones(4) / 2.0, 1.0)


class TestOpenSystemLikelihood:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(17)
        model = parse_model("SxyzAxyzTxyxzyz")
        for _ in range(100):
            H = assemble_hamiltonian(model, rng.uniform(0, 10, 9))
            psys, penv = haar_state(2, rng), haar_state(2, rng)
            t = rng.uniform(0, 10)
            d = int(rng.integers(0, 2))
            basis = np.eye(2, dtype=complex)
            got = open_system_likelihood(H, psys, penv, t, d=d, basis=basis)
            want = brute_force_open_system(H, psys, penv, t, d=d, basis=basis)
            assert abs(got - want) < 1e-9

    def test_decoupled_environment(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            H_sys = assemble_hamiltonian(parse_model("Sxyz"), rng.uniform(0, 10, 3))
            H = np.kron(H_sys, np.eye(2))
            psys, penv = haar_state(2, rng), haar_state(2, rng)
            t = rng.uniform(0, 20)
            got = open_system_likelihood(H, psys, penv, t)
            want = expectation_value(H_sys, psys, t)
            assert abs(got - want) < 1e-9

    def test_basis_state_at_t0(self):
        probe = np.array([1.0, 0.0], dtype=complex)
        p = open_system_likelihood(
            np.kron(SX, SX), probe, probe, 0.0, d=0, basis=np.eye(2, dtype=complex)
        )
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_flip_flop_oracle(self):
        probe = np.array([1.0, 0.0], dtype=complex)
        for t in (0.4, 1.1, 2.7):
            p = open_system_likelihood(
                np.kron(SX, SX), probe, probe, t, d=0, basis=np.eye(2, dtype=complex)
            )
            assert p == pytest.approx(np.cos(t) ** 2, abs=1e-10)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            open_system_likelihood(np.kron(SX, SX), plus_state(), plus_state(), 1.0, d=5)


class TestSampleDatum:
    def test_deterministic_endpoints(self):
        rng = np.random.default_rng(0)
        noise = NoiseConfig(shot_count=1000)
        assert sample_datum(1.0, noise, rng).value == 1.0
        assert sample_datum(0.0, noise, rng).value == 0.0
        single = NoiseConfig(shot_count=1)
        assert sample_datum(1.0, single, rng).value == 1.0

    def test_binomial_variance_oracle(self):
        # sd of the frequency estimate is sqrt(p(1-p)/M) = 5e-4
        noise = NoiseConfig(shot_count=10**6)
        rng = np.random.default_rng(23)
        hits = sum(
            abs(sample_datum(0.5, noise, rng).value - 0.5) < 0.002 for _ in range(300)
        )
        assert hits >= 297

    def test_counts_are_integers(self):
        noise = NoiseConfig(shot_count=1000)
        rng = np.random.default_rng(29)
        datum = sample_datum(0.37, noise, rng)
        assert datum.value * datum.shots == pytest.approx(
            round(datum.value * datum.shots)
        )

    def test_slack_clamp(self):
        rng = np.random.default_rng(1)
        noise = NoiseConfig(shot_count=10)
        assert sample_datum(1.0 + 5e-10, noise, rng).value == 1.0
        with pytest.raises(ValueError):
            sample_datum(1.01, noise, rng)

    def test_reproducible(self):
        noise = NoiseConfig(shot_count=100)
        a = [sample_datum(0.3, noise, np.random.default_rng(42)).value for _ in range(3)]
        b = [sample_datum(0.3, noise, np.random.default_rng(42)).value for _ in range(3)]
        assert a[0] == b[0]


class TestRandomizedProbe:
    def test_zero_sigma_exact(self):
        base = plus_state()
        out = randomized_probe(base, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, base)

    def test_unit_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            out = randomized_probe(plus_state(), 0.5, rng)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_fidelity_bound(self):
        # fidelity >= 1/(1+w^2) with w within 3 sigma nearly always
        rng = np.random.default_rng(37)
        base = plus_state()
        hits = 0
        for _ in range(1000):
            out = randomized_probe(base, 0.03, rng)
            hits += abs(base.conj() @ out) ** 2 >= 0.99
        assert hits >= 990

    def test_reproducible(self):
        a = randomized_probe(plus_state(), 0.1, np.random.default_rng(5))
        b = randomized_probe(plus_state(), 0.1, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestRecordedDataset:
    def test_replay_exact_and_nearest(self):
        ds = RecordedDataset(times=[1.0, 2.0, 3.0], probabilities=[0.9, 0.4, 0.7])
        assert replay_probability(ds, 2.0) == (0.4, 2.0)
        assert replay_probability(ds, 2.4) == (0.4, 2.0)
        assert replay_probability(ds, 1.5) == (0.9, 1.0)  # tie -> earlier

    def test_out_of_range(self):
        ds = RecordedDataset(times=[1.0, 2.0], probabilities=[0.9, 0.4])
        with pytest.raises(ReplayRangeError, match=r"\[1.0, 2.0\]"):
            replay_probability(ds, 0.5)

    def test_csv_round_trip(self, tmp_path):
        ds = RecordedDataset(
            times=[0.5, 1.25, 3.75], probabilities=[1.0, 0.25, 0.625], source="x"
        )
        path = tmp_path / "echo.csv"
        ds.to_csv(path)
        back = RecordedDataset.from_csv(path)
        np.testing.assert_array_equal(back.times, ds.times)
        np.testing.assert_array_equal(back.probabilities, ds.probabilities)

    def test_csv_comments_and_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# comment\ntime_us,probability\n1.0,0.5\n2.0,0.75\n")
        ds = RecordedDataset.from_csv(path)
        assert ds.times.tolist() == [1.0, 2.0]
        bad = tmp_path / "bad.csv"
        bad.write_text("t,p\n1.0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            RecordedDataset.from_csv(bad)

    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            RecordedDataset(times=[1.0, 1.0], probabilities=[0.1, 0.2])
        with pytest.raises(ValueError, match="0, 1"):
            RecordedDataset(times=[1.0, 2.0], probabilities=[0.1, 1.2])


class TestSystems:
    def test_simulated_probabilities_in_range(self):
        rng = np.random.default_rng(41)
        truth = parse_model("SxyzAz")
        system = SimulatedSystem(truth, rng.uniform(0, 10, 4), max_time=20.0)
        for _ in range(100):
            design = system.new_design(rng.uniform(0, 20), rng)
            p = system.truth_probability(design)
            assert -1e-9 <= p <= 1.0 + 1e-9

    def test_measurement_matches_model_evaluator(self):
        # with exact preparation the learner's evaluator and the system agree
        rng = np.random.default_rng(43)
        truth = parse_model("SxyzAz")
        params = rng.uniform(0, 10, 4)
        system = SimulatedSystem(
            truth, params, env_phase=0.7,
            noise=NoiseConfig(probe_offset_sigma=0.0),
        )
        model = HamiltonianModel(truth)
        for _ in range(20):
            design = system.new_design(rng.uniform(0, 10), rng)
            assert system.truth_probability(design) == pytest.approx(
                model.probability(params, design), abs=1e-12
            )

    def test_probe_offset_randomises_simulator_side(self):
        # the design carries a jittered preparation, the readout stays nominal
        rng = np.random.default_rng(44)
        truth = parse_model("SxyzAz")
        system = SimulatedSystem(truth, [1.0, 2.0, 3.0, 0.5], env_phase=0.7)
        d1 = system.new_design(1.0, rng)
        d2 = system.new_design(1.0, rng)
        assert d1.probe_id != d2.probe_id
        np.testing.assert_array_equal(d1.readout_sys, plus_state())
        assert np.linalg.norm(d1.probe_sys - plus_state()) > 0
        # the system's own outcome ignores the simulator jitter
        assert system.truth_probability(d1) == system.truth_probability(d2)

    def test_one_qubit_padding_equivalence(self):
        # a 1-qubit model scored on a 2-qubit design equals its padded twin
        rng = np.random.default_rng(47)
        sub = parse_model("Sxyz")
        params = rng.uniform(0, 10, 3)
        design = ExperimentDesign(
            time=1.3,
            probe_id="plus",
            probe_sys=plus_state(),
            probe_env=phase_plus_state(0.9),
        )
        direct = HamiltonianModel(sub).probability(params, design)
        H_padded = np.kron(assemble_hamiltonian(sub, params), np.eye(2))
        padded = open_system_likelihood(
            H_padded, design.probe_sys, design.probe_env, design.time
        )
        assert direct == pytest.approx(padded, abs=1e-12)

    def test_replay_system_substitutes_time(self):
        ds = RecordedDataset(times=[1.0, 2.0, 3.0], probabilities=[0.9, 0.4, 0.7])
        system = ReplaySystem(ds)
        rng = np.random.default_rng(0)
        design = system.new_design(2.4, rng)
        assert design.time == 2.0
        assert system.measure(design, rng).value == 0.4
        clamped = system.new_design(99.0, rng)
        assert clamped.time == 3.0

    def test_random_probe_policy_ids(self):
        rng = np.random.default_rng(53)
        system = SimulatedSystem(
            parse_model("Sz"), [1.0], probe_policy="random"
        )
        d1 = system.new_design(1.0, rng)
        d2 = system.new_design(1.0, rng)
        assert d1.probe_id != d2.probe_id


def grid_designs(rng):
    """Plus-probe and Haar-probe designs, each also read out at basis_index 1."""
    designs = []
    for policy in ("plus", "random"):
        system = SimulatedSystem(
            parse_model("SxyzAz"), [1.0, 2.0, 3.0, 0.5],
            probe_policy=policy, env_phase=0.7,
        )
        for t in rng.uniform(0, 10, 3):
            design = system.new_design(t, rng)
            designs += [design, dataclasses.replace(design, basis_index=1)]
    return designs


class TestOutcomeProbabilities:
    @pytest.mark.parametrize("name", ["Sxyz", "SxyzAz", "SyAxTyz"])
    def test_against_expm(self, name):
        # a 1-qubit model is scored on 2-qubit designs with its own probe
        from scipy.linalg import expm

        rng = np.random.default_rng(61)
        expr = parse_model(name)
        params = rng.uniform(0, 10, (5, expr.num_terms))
        designs = grid_designs(rng)
        two_qubit = expr.num_qubits == 2
        probes = [d.global_probe if two_qubit else d.probe_sys for d in designs]
        got = outcome_probabilities(
            np.linalg.eigh(assemble_batch(expr, params)),
            probes,
            [d.readout for d in designs],
            [d.time for d in designs],
        )
        assert got.shape == (len(params), len(designs))
        for i, p in enumerate(params):
            H = assemble_hamiltonian(expr, p)
            for k, (design, probe) in enumerate(zip(designs, probes)):
                a, b = design.readout_sys / np.linalg.norm(design.readout_sys)
                if design.basis_index == 1:
                    a, b = -b.conj(), a.conj()
                readout = np.array([a, b])
                amps = (expm(-1j * H * design.time) @ probe).reshape(2, -1)
                want = np.sum(np.abs(readout.conj() @ amps) ** 2)
                assert got[i, k] == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("name", ["Sxyz", "SxyzAz"])
    def test_probabilities_over_matches_per_design(self, name):
        rng = np.random.default_rng(67)
        expr = parse_model(name)
        model = HamiltonianModel(expr)
        params = rng.uniform(0, 10, expr.num_terms)
        designs = grid_designs(rng)
        per_design = [model.probabilities(params[None, :], d)[0] for d in designs]
        np.testing.assert_allclose(
            model.probabilities_over(params, designs), per_design, rtol=0, atol=1e-12
        )

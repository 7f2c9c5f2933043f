import dataclasses

import numpy as np
import pytest

from qmla.pauli import SINGLE_QUBIT, assemble_batch, assemble_hamiltonian, parse_model
from qmla.system import (
    ExperimentDesign,
    ExperimentTable,
    HamiltonianModel,
    NoiseConfig,
    RecordedDataset,
    ReplayRangeError,
    ReplaySystem,
    SimulatedSystem,
    Spectrum,
    expectation_value,
    global_probes,
    haar_state,
    hermitian_spectrum,
    model_spectrum,
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
        assert sample_datum(1.0, noise, rng) == 1.0
        assert sample_datum(0.0, noise, rng) == 0.0
        single = NoiseConfig(shot_count=1)
        assert sample_datum(1.0, single, rng) == 1.0

    def test_binomial_variance_oracle(self):
        # sd of the frequency estimate is sqrt(p(1-p)/M) = 5e-4
        noise = NoiseConfig(shot_count=10**6)
        rng = np.random.default_rng(23)
        hits = sum(
            abs(sample_datum(0.5, noise, rng) - 0.5) < 0.002 for _ in range(300)
        )
        assert hits >= 297

    def test_counts_are_integers(self):
        noise = NoiseConfig(shot_count=1000)
        rng = np.random.default_rng(29)
        value = sample_datum(0.37, noise, rng)
        assert value * noise.shot_count == pytest.approx(round(value * noise.shot_count))

    def test_slack_clamp(self):
        rng = np.random.default_rng(1)
        noise = NoiseConfig(shot_count=10)
        assert sample_datum(1.0 + 5e-10, noise, rng) == 1.0
        with pytest.raises(ValueError):
            sample_datum(1.01, noise, rng)

    def test_reproducible(self):
        noise = NoiseConfig(shot_count=100)
        a = [sample_datum(0.3, noise, np.random.default_rng(42)) for _ in range(3)]
        b = [sample_datum(0.3, noise, np.random.default_rng(42)) for _ in range(3)]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1], ids=["time", "probability"])
    def test_non_finite_rejected(self, tmp_path, bad, column):
        rows = [[1.0, 0.5], [2.0, 0.25], [3.0, 0.75]]
        rows[2][column] = bad
        times, probs = np.array(rows).T
        with pytest.raises(ValueError, match="finite"):
            RecordedDataset(times=times, probabilities=probs)
        path = tmp_path / "echo.csv"
        path.write_text("time_us,probability\n" + "".join(f"{t},{p}\n" for t, p in rows))
        with pytest.raises(ValueError, match="finite"):
            RecordedDataset.from_csv(path)

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
                model.probabilities(np.atleast_2d(params), design)[0], abs=1e-12
            )

    def test_probe_offset_randomises_simulator_side(self):
        # the design carries a jittered preparation, the readout stays nominal
        rng = np.random.default_rng(44)
        truth = parse_model("SxyzAz")
        system = SimulatedSystem(truth, [1.0, 2.0, 3.0, 0.5], env_phase=0.7)
        d1 = system.new_design(1.0, rng)
        d2 = system.new_design(1.0, rng)
        assert not np.array_equal(d1.probe_sys, d2.probe_sys)
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
            probe_sys=plus_state(),
            probe_env=phase_plus_state(0.9),
        )
        direct = HamiltonianModel(sub).probabilities(np.atleast_2d(params), design)[0]
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
        assert system.measure(design, rng) == 0.4
        clamped = system.new_design(99.0, rng)
        assert clamped.time == 3.0

    def test_replay_and_simulated_plus_designs_agree(self):
        # both oracles build their plus-probe designs with one recipe, so equal
        # rng states and env phase give the same preparation and readout
        ds = RecordedDataset(times=[0.5, 1.0, 2.0], probabilities=[0.9, 0.4, 0.7])
        replay = ReplaySystem(ds, env_phase=1.1)
        sim = SimulatedSystem(parse_model("SxyzAz"), [2.8, 5.7, 1.6, 3.4], env_phase=1.1)
        rng_replay, rng_sim = np.random.default_rng(59), np.random.default_rng(59)
        pairs = [(replay.new_design(1.0, rng_replay), sim.new_design(1.0, rng_sim))
                 for _ in range(3)]
        for a, b in pairs:
            for field in ("probe_sys", "readout_sys", "probe_env"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert not np.array_equal(pairs[0][0].probe_sys, plus_state())

    def test_random_probe_policy_ids(self):
        rng = np.random.default_rng(53)
        system = SimulatedSystem(
            parse_model("Sz"), [1.0], probe_policy="random"
        )
        d1 = system.new_design(1.0, rng)
        d2 = system.new_design(1.0, rng)
        assert not np.array_equal(d1.probe_sys, d2.probe_sys)
        assert not np.array_equal(d1.probe_env, d2.probe_env)
        assert d1.readout_sys is d1.probe_sys


def grid_designs(rng):
    """Plus-probe and Haar-probe designs, each also read out in the vector
    orthogonal to its readout (the complementary outcome)."""
    designs = []
    for policy in ("plus", "random"):
        system = SimulatedSystem(
            parse_model("SxyzAz"), [1.0, 2.0, 3.0, 0.5],
            probe_policy=policy, env_phase=0.7,
        )
        for t in rng.uniform(0, 10, 3):
            design = system.new_design(t, rng)
            a, b = design.readout_sys
            orthogonal = np.array([-b.conj(), a.conj()])
            designs += [design, dataclasses.replace(design, measurement_sys=orthogonal)]
    return designs


def table_of(designs, values=None):
    """The designs as an experiment table, with outcomes ``values`` (zeros
    when not given)."""
    m = len(designs)

    def column(field):
        return np.array([getattr(d, field) for d in designs], dtype=complex).reshape(m, 2)

    return ExperimentTable(
        np.array([d.time for d in designs], dtype=float),
        column("probe_sys"), column("probe_env"), column("readout_sys"),
        np.zeros(m) if values is None else np.array(values, dtype=float),
    )


def plus_grid(system, times):
    """Nominal plus-probe designs, as the evaluation grid uses."""
    plus, env = plus_state(), phase_plus_state(system.env_phase)
    return [ExperimentDesign(float(t), plus, env) for t in times]


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
        probes = [np.kron(d.probe_sys, d.probe_env) if two_qubit else d.probe_sys
                  for d in designs]
        got = outcome_probabilities(
            Spectrum.from_eigh(*np.linalg.eigh(assemble_batch(expr, params))),
            probes,
            [d.readout_sys for d in designs],
            [d.time for d in designs],
        )
        assert got.shape == (len(params), len(designs))
        # the orthogonal readout scores the complementary outcome
        np.testing.assert_allclose(got[:, 1::2], 1.0 - got[:, ::2], rtol=0, atol=1e-12)
        for i, p in enumerate(params):
            H = assemble_hamiltonian(expr, p)
            for k, (design, probe) in enumerate(zip(designs, probes)):
                readout = design.readout_sys / np.linalg.norm(design.readout_sys)
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
            model.probabilities_over(params, table_of(designs)), per_design,
            rtol=0, atol=1e-12,
        )


class TestReadoutFirstKernel:
    """``outcome_probabilities`` on a ``Spectrum`` from ``model_spectrum``,
    against ``scipy.linalg.expm``, for each batch shape and readout size."""

    @pytest.mark.parametrize("name", ["Sxyz", "SxyzAz", "SxyzAxz"])
    @pytest.mark.parametrize("n, m", [(7, 1), (1, 6), (7, 6)])
    @pytest.mark.parametrize("readout", ["system", "whole"])
    def test_against_expm(self, name, n, m, readout):
        from scipy.linalg import expm

        rng = np.random.default_rng(103)
        expr = parse_model(name)
        d = 2**expr.num_qubits
        params = rng.uniform(-10, 10, (n, expr.num_terms))
        probes = np.array([haar_state(d, rng) for _ in range(m)])
        r = 2 if readout == "system" else d
        readouts = np.array([haar_state(r, rng) for _ in range(m)])
        times = rng.uniform(0, 20, m)
        got = outcome_probabilities(model_spectrum(expr, params), probes, readouts, times)
        assert got.shape == (n, m)
        for i, p in enumerate(params):
            H = assemble_hamiltonian(expr, p)
            for k in range(m):
                amps = (expm(-1j * H * times[k]) @ probes[k]).reshape(r, d // r)
                want = np.sum(np.abs(readouts[k].conj() @ amps) ** 2)
                assert got[i, k] == pytest.approx(want, abs=1e-12)


class TestBlockSpectra:
    """``model_spectrum`` of a model with a conserved environment axis,
    built from its two 2x2 blocks, against ``np.linalg.eigh`` of the 4x4."""

    MODELS = ("SxyzAz", "SxyzAx", "SxAyTxy", "SxyzAzTxzyz", "SyAz")

    @staticmethod
    def field_and_coupling(expr):
        """Indices of the S terms and of the two-qubit terms by system axis."""
        field = {t.axes: k for k, t in enumerate(expr.terms) if t.family == "S"}
        coupling = {t.qubit_axes(2)[0]: k for k, t in enumerate(expr.terms) if t.family != "S"}
        return field, coupling

    def cases(self, expr, rng):
        field, coupling = self.field_and_coupling(expr)
        n = 40
        for case in ("random", "zero field", "h = j", "h = -j", "near-degenerate"):
            params = rng.uniform(-10, 10, (n, expr.num_terms))
            if case == "zero field":
                params[:, list(field.values())] = 0.0
            elif case != "random":
                # h equal to +-j on every axis the model has both terms for;
                # the other components are zeroed, so one block vanishes
                sign = -1.0 if case == "h = -j" else 1.0
                for axis in "xyz":
                    if axis in field and axis in coupling:
                        params[:, field[axis]] = sign * params[:, coupling[axis]]
                    elif axis in field:
                        params[:, field[axis]] = 0.0
                    elif axis in coupling:
                        params[:, coupling[axis]] = 0.0
                if case == "near-degenerate":
                    params[:, list(field.values())] += rng.normal(0, 1e-9, (n, len(field)))
            yield case, params

    @pytest.mark.parametrize("name", MODELS)
    def test_against_eigh(self, name):
        rng = np.random.default_rng(109)
        expr = parse_model(name)
        for case, params in self.cases(expr, rng):
            H = assemble_batch(expr, params)
            spectrum = model_spectrum(expr, params)
            evecs = spectrum.kets.transpose(2, 0, 1)
            adjoint = evecs.conj().transpose(0, 2, 1)
            scale = np.maximum(1.0, np.abs(H).max(axis=(1, 2)))
            rebuilt = evecs @ (spectrum.evals[:, :, None] * adjoint)
            assert np.all(np.abs(rebuilt - H).max(axis=(1, 2)) <= 1e-14 * scale), case
            assert np.abs(adjoint @ evecs - np.eye(4)).max() <= 1e-14, case
            want = np.linalg.eigh(H)[0]
            got = np.sort(spectrum.evals, axis=1)
            assert np.all(np.abs(got - want).max(axis=1) <= 1e-14 * scale), case
            np.testing.assert_array_equal(
                spectrum.gaps, (spectrum.evals[:, 1:] - spectrum.evals[:, :1]).T
            )

    def test_vanishing_block_present(self):
        # the h = j case really zeroes a block, so its identity columns are used
        expr = parse_model("SxyzAz")
        cases = dict(self.cases(expr, np.random.default_rng(109)))
        evals = model_spectrum(expr, cases["h = j"]).evals
        assert np.all(evals[:, 2:] == 0.0)

    def test_other_models_take_eigh(self):
        rng = np.random.default_rng(113)
        expr = parse_model("SxyzAxz")
        params = rng.uniform(0, 10, (6, 5))
        evals, evecs = np.linalg.eigh(assemble_batch(expr, params))
        spectrum = model_spectrum(expr, params)
        np.testing.assert_array_equal(spectrum.evals, evals)
        np.testing.assert_array_equal(spectrum.kets, evecs.transpose(1, 2, 0))


class TestSpectralCache:
    """``HamiltonianModel.probabilities`` reuses the spectrum of a read-only
    batch that owns its data, and decomposes any other batch afresh."""

    @staticmethod
    def counting_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def setup_case(self):
        # SxyzAxz has no conserved environment axis, so its batches go to eigh
        rng = np.random.default_rng(71)
        expr = parse_model("SxyzAxz")
        params = rng.uniform(0, 10, (40, expr.num_terms))
        system = SimulatedSystem(expr, [2.8, 5.7, 1.6, 3.4, 1.2], probe_policy="random")
        designs = [system.new_design(t, rng) for t in (0.3, 1.7, 4.2)]
        return expr, params, designs

    def test_frozen_batch_decomposed_once(self, monkeypatch):
        expr, params, designs = self.setup_case()
        params.flags.writeable = False
        model = HamiltonianModel(expr)
        calls = self.counting_eigh(monkeypatch)
        cached = [model.probabilities(params, d) for d in designs]
        assert calls == [40]
        for d, got in zip(designs, cached):
            fresh = HamiltonianModel(expr).probabilities(params.copy(), d)
            assert np.array_equal(got, fresh)

    def test_writable_batch_always_decomposed(self, monkeypatch):
        expr, params, designs = self.setup_case()
        model = HamiltonianModel(expr)
        calls = self.counting_eigh(monkeypatch)
        model.probabilities(params, designs[0])
        params[:] = params[::-1]
        got = model.probabilities(params, designs[0])
        assert calls == [40, 40]
        want = HamiltonianModel(expr).probabilities(params.copy(), designs[0])
        assert np.array_equal(got, want)

    def test_read_only_view_not_cached(self, monkeypatch):
        expr, params, designs = self.setup_case()
        view = params[:20]
        view.flags.writeable = False
        model = HamiltonianModel(expr)
        calls = self.counting_eigh(monkeypatch)
        model.probabilities(view, designs[0])
        params[:20] = 1.0
        got = model.probabilities(view, designs[0])
        assert calls == [20, 20]
        want = HamiltonianModel(expr).probabilities(np.ones((20, expr.num_terms)), designs[0])
        assert np.array_equal(got, want)


class TestKronVectors:
    def test_equals_np_kron(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
        b = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
        want = np.array([np.kron(x, y) for x, y in zip(a, b)])
        np.testing.assert_array_equal(global_probes(a, b), want)

    def test_global_probe_and_truth_probability(self):
        rng = np.random.default_rng(47)
        system = SimulatedSystem(parse_model("SxyzAz"), [2.8, 5.7, 1.6, 3.4], env_phase=0.9)
        for _ in range(50):
            design = system.new_design(float(rng.uniform(0, 5)), rng)
            probe = np.kron(design.probe_sys, design.probe_env)
            got = global_probes(design.probe_sys[None], design.probe_env[None])
            np.testing.assert_array_equal(got[0], probe)
            want = outcome_probabilities(
                system._spectrum,
                [np.kron(design.readout_sys, design.probe_env)],
                [design.readout_sys],
                [design.time],
            )[0, 0]
            assert system.truth_probability(design) == min(max(float(want), 0.0), 1.0)


class TestHaarState:
    class CountingRng:
        """A generator that records each ``standard_normal`` call."""

        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)
            self.calls = 0

        def standard_normal(self, size):
            self.calls += 1
            return self.rng.standard_normal(size)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_one_draw_equals_two_call_form(self, dim):
        for seed in range(300):
            rng = self.CountingRng(seed)
            got = haar_state(dim, rng)
            assert rng.calls == 1
            reference = np.random.default_rng(seed)
            z = reference.standard_normal(dim) + 1.0j * reference.standard_normal(dim)
            want = z / np.linalg.norm(z)
            np.testing.assert_array_equal(got.view(float), want.view(float))
            assert rng.rng.random() == reference.random()


class TestHermitianSpectrum:
    """The closed form for 2x2 batches against the definition of an
    eigendecomposition and against ``np.linalg.eigh``."""

    @staticmethod
    def batches(rng):
        for k in range(600):
            n = int(rng.integers(1, 40))
            x, y, z = rng.normal(0.0, 5.0, (3, n))
            shift = rng.normal(0.0, 3.0, n)
            case = k % 6
            if case == 1:  # diagonal
                x[:], y[:] = 0.0, 0.0
            elif case == 2:  # near the identity off the diagonal
                x, y, z = x * 1e-9, y * 1e-9, z * 1e-9
            elif case == 3:  # zero
                x[:], y[:], z[:], shift[:] = 0.0, 0.0, 0.0, 0.0
            elif case == 4:
                z = -np.abs(z)
            elif case == 5:  # a multiple of the identity
                x[:], y[:], z[:] = 0.0, 0.0, 0.0
            H = np.empty((n, 2, 2), dtype=complex)
            H[:, 0, 0], H[:, 1, 1] = shift + z, shift - z
            H[:, 0, 1], H[:, 1, 0] = x - 1j * y, x + 1j * y
            yield H

    def test_decomposition_properties(self):
        rng = np.random.default_rng(83)
        for H in self.batches(rng):
            evals, evecs = hermitian_spectrum(H)
            assert evals.shape == H.shape[:2] and evecs.shape == H.shape
            assert evals.dtype == float and evecs.dtype == complex
            assert np.all(evals[:, 0] <= evals[:, 1])
            scale = np.maximum(1.0, np.abs(H).max(axis=(1, 2)))
            adjoint = evecs.conj().transpose(0, 2, 1)
            rebuilt = evecs @ (evals[:, :, None] * adjoint)
            assert np.all(np.abs(rebuilt - H).max(axis=(1, 2)) <= 4e-15 * scale)
            assert np.abs(adjoint @ evecs - np.eye(2)).max() <= 4e-15
            want = np.linalg.eigh(H)[0]
            assert np.all(np.abs(evals - want).max(axis=1) <= 4e-15 * scale)

    def test_identity_multiple_gets_identity_columns(self):
        H = np.array([np.eye(2) * v for v in (0.0, 2.5, -1.0)], dtype=complex)
        evals, evecs = hermitian_spectrum(H)
        np.testing.assert_array_equal(evals, [[0.0, 0.0], [2.5, 2.5], [-1.0, -1.0]])
        np.testing.assert_array_equal(evecs, np.broadcast_to(np.eye(2), H.shape))

    def test_other_sizes_go_to_eigh(self):
        rng = np.random.default_rng(89)
        H = assemble_batch(parse_model("SxyzAz"), rng.uniform(0, 10, (7, 4)))
        for got, want in zip(hermitian_spectrum(H), np.linalg.eigh(H)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["Sz", "Sxz", "Sxyz"])
    def test_probabilities_agree_with_eigh(self, name):
        rng = np.random.default_rng(97)
        expr = parse_model(name)
        H = assemble_batch(expr, rng.uniform(-10, 10, (50, expr.num_terms)))
        designs = grid_designs(rng)
        args = ([d.probe_sys for d in designs], [d.readout_sys for d in designs],
                [d.time for d in designs])
        np.testing.assert_allclose(
            outcome_probabilities(Spectrum.from_eigh(*hermitian_spectrum(H)), *args),
            outcome_probabilities(Spectrum.from_eigh(*np.linalg.eigh(H)), *args),
            rtol=0, atol=1e-13,
        )


class TestTruthProbabilities:
    @pytest.mark.parametrize("name, params", [("Sxz", [1.3, 2.9]), ("SxyzAz", [2.8, 5.7, 1.6, 3.4])])
    @pytest.mark.parametrize("policy", ["plus", "random"])
    def test_grid_equals_per_design(self, name, params, policy):
        rng = np.random.default_rng(101)
        system = SimulatedSystem(parse_model(name), params, probe_policy=policy, env_phase=0.4)
        designs = [system.new_design(t, rng) for t in rng.uniform(0, 10, 40)]
        designs += plus_grid(system, np.linspace(0, 10, 40))
        table = table_of(designs)
        got = system.truth_probabilities(table.times, table.readouts, table.probe_env)
        want = [system.truth_probability(d) for d in designs]
        assert got.shape == (80,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_out_of_range_still_raises(self, monkeypatch):
        import qmla.system

        system = SimulatedSystem(parse_model("Sz"), [1.0])
        designs = plus_grid(system, [0.5, 1.0])
        table = table_of(designs)
        monkeypatch.setattr(
            qmla.system, "outcome_probabilities",
            lambda spectrum, probes, readouts, times: np.array([[0.5, 1.5][: len(times)]]),
        )
        assert system.truth_probability(designs[0]) == 0.5
        with pytest.raises(ValueError, match="outside"):
            system.truth_probabilities(table.times, table.readouts, table.probe_env)
        monkeypatch.setattr(
            qmla.system, "outcome_probabilities",
            lambda spectrum, probes, readouts, times: np.array([[-0.5]]),
        )
        with pytest.raises(ValueError, match="outside"):
            system.truth_probability(designs[0])

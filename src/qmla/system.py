"""System oracles: analytic expectation values, open-system likelihoods,
noisy measurement sampling, probe randomisation, and experimental replay.

Two oracle classes provide the experiments a learner trains against:
``SimulatedSystem`` evolves a known Hamiltonian and samples noisy outcomes;
``ReplaySystem`` serves a recorded dataset, substituting each requested time
with the nearest recorded one so the learner can condition on the time
actually used.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import (
    ModelExpression,
    assemble_batch,
    assemble_hamiltonian,
    check_hermitian,
)

__all__ = [
    "NoiseConfig",
    "Datum",
    "ExperimentDesign",
    "Experiment",
    "RecordedDataset",
    "ReplayRangeError",
    "outcome_probabilities",
    "expectation_value",
    "open_system_likelihood",
    "sample_datum",
    "randomized_probe",
    "replay_probability",
    "haar_state",
    "plus_state",
    "phase_plus_state",
    "SimulatedSystem",
    "ReplaySystem",
    "HamiltonianModel",
    "r_squared",
]

PROBABILITY_SLACK = 1e-9


class ReplayRangeError(ValueError):
    """Requested time lies outside the recorded window."""


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise model: probe-offset severity and shot statistics."""

    probe_offset_sigma: float = 0.03
    shot_count: int = 1_000_000
    binomial_readout: bool = True

    def __post_init__(self):
        if not 0.0 <= self.probe_offset_sigma < 1.0:
            raise ValueError("probe_offset_sigma must lie in [0, 1)")
        if self.shot_count < 1:
            raise ValueError("shot_count must be positive")


@dataclass(frozen=True)
class Datum:
    """A measured outcome: a bit when shots == 1, else an outcome frequency."""

    value: float
    shots: int = 1

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"datum value {self.value} outside [0, 1]")
        if self.shots == 1 and self.value not in (0.0, 1.0):
            raise ValueError("single-shot datum must be 0 or 1")


@dataclass(frozen=True, eq=False)
class ExperimentDesign:
    """A control pair: probe state and evolution time (us).

    ``probe_sys``/``probe_env`` are the single-qubit preparations for the
    principal spin and the environment qubit, as used by the simulator when
    scoring likelihoods; a fixed-probe experiment randomises ``probe_sys``
    slightly so that no recursive trust is placed in an exact preparation.
    ``measurement_sys`` is the readout state (defaults to the preparation);
    ``basis_index`` selects the measured vector of the basis completed from
    it, index 0 reproducing the |<psi|e^{-iHt}|psi>|^2 readout.
    """

    time: float
    probe_id: str
    probe_sys: np.ndarray
    probe_env: np.ndarray
    basis_index: int = 0
    source: str = "sim"
    measurement_sys: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.time) or self.time < 0:
            raise ValueError("evolution time must be finite and non-negative")

    @property
    def readout_sys(self) -> np.ndarray:
        return self.probe_sys if self.measurement_sys is None else self.measurement_sys

    @cached_property
    def global_probe(self) -> np.ndarray:
        """|probe_sys> (x) |probe_env>, the two-qubit preparation."""
        return np.kron(self.probe_sys, self.probe_env)

    @cached_property
    def readout(self) -> np.ndarray:
        """The measured system-qubit vector: column ``basis_index`` of the
        basis completed from ``readout_sys``."""
        return _complete_basis(self.readout_sys)[:, self.basis_index]


@dataclass(frozen=True, eq=False)
class Experiment:
    """A design together with the datum it produced."""

    design: ExperimentDesign
    datum: Datum

    @property
    def key(self) -> tuple:
        d = self.design
        return (d.source, d.probe_id, d.time, self.datum.value, self.datum.shots)


# ---------------------------------------------------------------------------
# probe states


def plus_state() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def phase_plus_state(phi: float) -> np.ndarray:
    """(|0> + e^{i phi}|1>)/sqrt(2), the environment-qubit preparation."""
    return np.array([1.0, np.exp(1.0j * phi)], dtype=complex) / np.sqrt(2.0)


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random pure state of the given dimension."""
    z = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def randomized_probe(
    base: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """(|base> + w |chi>)/sqrt(1 + w^2) with w ~ N(0, sigma) and |chi> Haar.

    Models a small random offset in state preparation; sigma = 0 returns the
    base state exactly.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return np.array(base, dtype=complex)
    omega = rng.normal(0.0, sigma)
    chi = haar_state(len(base), rng)
    out = base + omega * chi
    return out / np.linalg.norm(out)


def _complete_basis(state: np.ndarray) -> np.ndarray:
    """Orthonormal basis matrix whose column 0 is ``state``."""
    d = len(state)
    cols = [np.asarray(state, dtype=complex)]
    for k in range(d):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        for c in cols:
            v -= c * (c.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            cols.append(v / norm)
        if len(cols) == d:
            break
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# likelihood primitives


def outcome_probabilities(spectrum, probes, readouts, times) -> np.ndarray:
    """Outcome probabilities of m experiments under n Hamiltonians, (n, m).

    ``spectrum`` is the batched eigendecomposition ``(evals (n, d), evecs
    (n, d, d))``; experiment k evolves ``probes[k]`` (length d) for
    ``times[k]`` and reads out ``readouts[k]`` (length r) on the leading
    factor, tracing out the trailing d // r dimensions:
    sum_e |(<readout| (x) <e|) exp(-i H t) |probe>|^2.  Values are not
    clipped, so rounding can leave them a hair outside [0, 1].
    """
    evals, evecs = spectrum
    readouts = np.asarray(readouts)
    (n, d), (m, r) = evals.shape, readouts.shape
    times = np.asarray(times, dtype=float)
    coeff = np.asarray(probes) @ evecs.conj()
    coeff *= np.exp(-1.0j * evals[:, None, :] * times[:, None])
    amps = (coeff @ evecs.transpose(0, 2, 1)).reshape(n, m, r, d // r)
    overlap = np.einsum("ma,nmae->nme", readouts.conj(), amps)
    return np.sum(overlap.real**2 + overlap.imag**2, axis=2)


def expectation_value(hamiltonian: np.ndarray, probe: np.ndarray, t: float) -> float:
    """|<probe| exp(-i H t) |probe>|^2."""
    probe = np.asarray(probe, dtype=complex)
    if hamiltonian.shape[0] != probe.shape[0]:
        raise ValueError(
            f"dimension mismatch: H is {hamiltonian.shape}, probe is {probe.shape}"
        )
    p = outcome_probabilities(np.linalg.eigh(hamiltonian[None]), [probe], [probe], [t])
    return _clip_probability(p[0, 0])


def open_system_likelihood(
    hamiltonian_glo: np.ndarray,
    probe_sys: np.ndarray,
    probe_env: np.ndarray,
    t: float,
    d: int = 0,
    basis: np.ndarray | None = None,
) -> float:
    """<d| tr_env rho(t) |d> for a separable input probe.

    The global state |probe_sys>(x)|probe_env> is evolved under the full
    Hamiltonian, the environment is traced out, and the system qubit is read
    out in ``basis`` (default: the basis completed from ``probe_sys``).
    """
    check_hermitian(hamiltonian_glo)
    probe_sys = np.asarray(probe_sys, dtype=complex)
    probe_env = np.asarray(probe_env, dtype=complex)
    dim_sys, dim_env = probe_sys.shape[0], probe_env.shape[0]
    if hamiltonian_glo.shape[0] != dim_sys * dim_env:
        raise ValueError(
            f"dimension mismatch: H is {hamiltonian_glo.shape}, "
            f"probes give {dim_sys}x{dim_env}"
        )
    if basis is None:
        basis = _complete_basis(probe_sys)
    if not 0 <= d < dim_sys:
        raise ValueError(f"basis index {d} out of range for dimension {dim_sys}")
    p = outcome_probabilities(
        np.linalg.eigh(hamiltonian_glo[None]),
        [np.kron(probe_sys, probe_env)],
        [basis[:, d]],
        [t],
    )
    return _clip_probability(p[0, 0])


def _clip_probability(p: float) -> float:
    if p < -PROBABILITY_SLACK or p > 1.0 + PROBABILITY_SLACK:
        raise ValueError(f"probability {p} outside [0, 1] beyond tolerance")
    return float(min(max(p, 0.0), 1.0))


def sample_datum(p: float, noise: NoiseConfig, rng: np.random.Generator) -> Datum:
    """Draw a measurement outcome: Bernoulli(p) bit for one shot, else the
    outcome frequency of Binomial(shots, p)."""
    p = _clip_probability(p)
    if noise.shot_count == 1 or not noise.binomial_readout:
        return Datum(value=float(rng.random() < p), shots=1)
    counts = rng.binomial(noise.shot_count, p)
    return Datum(value=counts / noise.shot_count, shots=noise.shot_count)


# ---------------------------------------------------------------------------
# recorded datasets


@dataclass(frozen=True, eq=False)
class RecordedDataset:
    """Time series of measured probabilities at strictly increasing times."""

    times: np.ndarray
    probabilities: np.ndarray
    source: str = "dataset"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probabilities", probs)
        if times.ndim != 1 or times.shape != probs.shape:
            raise ValueError("times and probabilities must be 1-d and aligned")
        if times.size == 0:
            raise ValueError("dataset is empty")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any((probs < 0) | (probs > 1)):
            raise ValueError("probabilities must lie in [0, 1]")

    @classmethod
    def from_csv(cls, path, source: str | None = None) -> "RecordedDataset":
        """Load a UTF-8 CSV with header ``time_us,probability``; lines starting
        with ``#`` are comments."""
        times, probs = [], []
        header_seen = False
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if not header_seen:
                    cols = [c.strip() for c in line.split(",")]
                    if cols != ["time_us", "probability"]:
                        raise ValueError(
                            f"{path}:{lineno}: expected header "
                            f"'time_us,probability', got {line!r}"
                        )
                    header_seen = True
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected two columns")
                times.append(float(parts[0]))
                probs.append(float(parts[1]))
        if not header_seen:
            raise ValueError(f"{path}: missing 'time_us,probability' header")
        return cls(
            times=np.array(times),
            probabilities=np.array(probs),
            source=source or str(path),
        )

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time_us,probability\n")
            for t, p in zip(self.times, self.probabilities):
                fh.write(f"{float(t)!r},{float(p)!r}\n")

    @property
    def min_time(self) -> float:
        return float(self.times[0])

    @property
    def max_time(self) -> float:
        return float(self.times[-1])


def replay_probability(dataset: RecordedDataset, t: float) -> tuple:
    """Probability at the recorded time nearest to ``t``.

    Returns ``(probability, substituted_time)`` so callers can condition on
    the time actually used.  Ties between neighbours resolve to the earlier
    record.  Raises ``ReplayRangeError`` outside the recorded window.
    """
    if t < dataset.min_time or t > dataset.max_time:
        raise ReplayRangeError(
            f"time {t} outside recorded window "
            f"[{dataset.min_time}, {dataset.max_time}]"
        )
    idx = int(np.searchsorted(dataset.times, t))
    if idx == 0:
        best = 0
    else:
        left, right = idx - 1, min(idx, dataset.times.size - 1)
        best = left if t - dataset.times[left] <= dataset.times[right] - t else right
    return float(dataset.probabilities[best]), float(dataset.times[best])


# ---------------------------------------------------------------------------
# model evaluator


class HamiltonianModel:
    """Likelihood evaluator for one model expression.

    Computes the outcome-1 probability of a design for single parameter
    vectors or batches of them, padding single-qubit models with the identity
    when they are compared on two-qubit experiments (the environment then
    decouples, so evaluating at the model's own dimension is exact).
    """

    def __init__(self, expression: ModelExpression):
        self.expression = expression
        self.num_qubits = expression.num_qubits

    def probability(self, params: np.ndarray, design: ExperimentDesign) -> float:
        return float(self.probabilities(np.atleast_2d(params), design)[0])

    def probabilities(
        self, params_batch: np.ndarray, design: ExperimentDesign
    ) -> np.ndarray:
        """Outcome probability of ``design`` for each parameter vector."""
        hams = assemble_batch(self.expression, params_batch)
        return self._outcomes(np.linalg.eigh(hams), [design])[:, 0]

    def probabilities_over(self, params: np.ndarray, designs) -> np.ndarray:
        """Outcome probabilities of many designs at one parameter vector."""
        H = assemble_hamiltonian(self.expression, params)
        return self._outcomes(np.linalg.eigh(H[None]), designs)[0]

    def _outcomes(self, spectrum, designs) -> np.ndarray:
        probes = [
            d.probe_sys if self.num_qubits == 1 else d.global_probe for d in designs
        ]
        p = outcome_probabilities(
            spectrum, probes, [d.readout for d in designs], [d.time for d in designs]
        )
        return np.clip(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# system oracles


def _probe_fingerprint(probe_sys: np.ndarray, probe_env: np.ndarray) -> str:
    blob = np.round(np.concatenate([probe_sys, probe_env]), 12).tobytes()
    return hashlib.sha1(blob).hexdigest()[:12]


class SimulatedSystem:
    """Oracle around a known Hamiltonian, with shot noise on readout.

    Probe policy ``"plus"`` prepares |+> on the system qubit and
    (|0> + e^{i phi}|1>)/sqrt(2) on the environment qubit (phi fixed per
    system); the design's simulator-side preparation is randomised around
    |+> with the configured offset severity, while the system itself always
    prepares and reads out the nominal probe.  Policy ``"random"`` draws a
    fresh Haar probe per experiment, prepared exactly.
    """

    def __init__(
        self,
        expression: ModelExpression,
        params,
        *,
        noise: NoiseConfig | None = None,
        probe_policy: str = "plus",
        env_phase: float = 0.0,
        max_time: float = 10.0,
    ):
        if probe_policy not in ("plus", "random"):
            raise ValueError(f"unknown probe policy {probe_policy!r}")
        self.expression = expression
        self.params = np.asarray(params, dtype=float)
        self.noise = noise or NoiseConfig()
        self.probe_policy = probe_policy
        self.env_phase = float(env_phase)
        self.max_time = float(max_time)
        self.num_qubits = expression.num_qubits
        self.source = f"sim:{expression.name}"
        self._spectrum = np.linalg.eigh(
            assemble_hamiltonian(expression, self.params)[None]
        )

    def new_design(self, t: float, rng: np.random.Generator) -> ExperimentDesign:
        if self.probe_policy == "random":
            probe_sys = haar_state(2, rng)
            probe_env = haar_state(2, rng)
            return ExperimentDesign(
                time=float(t),
                probe_id="haar:" + _probe_fingerprint(probe_sys, probe_env),
                probe_sys=probe_sys,
                probe_env=probe_env,
                source=self.source,
            )
        nominal = plus_state()
        probe_env = phase_plus_state(self.env_phase)
        prepared = randomized_probe(nominal, self.noise.probe_offset_sigma, rng)
        return ExperimentDesign(
            time=float(t),
            probe_id="plus~" + _probe_fingerprint(prepared, probe_env),
            probe_sys=prepared,
            probe_env=probe_env,
            source=self.source,
            measurement_sys=nominal,
        )

    def nominal_design(self, t: float) -> ExperimentDesign:
        """Deterministic fixed-probe design (no simulator jitter); used for
        evaluation grids."""
        return ExperimentDesign(
            time=float(t),
            probe_id="plus",
            probe_sys=plus_state(),
            probe_env=phase_plus_state(self.env_phase),
            source=self.source,
        )

    def measure(self, design: ExperimentDesign, rng: np.random.Generator) -> Datum:
        """One shot-noisy outcome of the system's own (nominal) preparation."""
        return sample_datum(self.truth_probability(design), self.noise, rng)

    def truth_probability(self, design: ExperimentDesign) -> float:
        """Noiseless outcome probability of the system at this design."""
        probe = design.readout_sys
        if self.num_qubits == 2:
            probe = np.kron(probe, design.probe_env)
        p = outcome_probabilities(
            self._spectrum, [probe], [design.readout], [design.time]
        )
        return _clip_probability(p[0, 0])


class ReplaySystem:
    """Oracle that replays a recorded dataset.

    Requested times are clamped into the recorded window and substituted with
    the nearest recorded time at design creation, so every likelihood is
    conditioned on the time the datum was actually recorded at.
    """

    def __init__(
        self,
        dataset: RecordedDataset,
        *,
        noise: NoiseConfig | None = None,
        env_phase: float = 0.0,
    ):
        self.dataset = dataset
        self.noise = noise or NoiseConfig()
        self.env_phase = float(env_phase)
        self.num_qubits = 2
        self.max_time = dataset.max_time
        self.source = dataset.source
        self._probe_sys = plus_state()
        self._probe_env = phase_plus_state(self.env_phase)

    def new_design(self, t: float, rng: np.random.Generator) -> ExperimentDesign:
        t = min(max(t, self.dataset.min_time), self.dataset.max_time)
        _, substituted = replay_probability(self.dataset, t)
        prepared = randomized_probe(
            self._probe_sys, self.noise.probe_offset_sigma, rng
        )
        return ExperimentDesign(
            time=substituted,
            probe_id="plus~" + _probe_fingerprint(prepared, self._probe_env),
            probe_sys=prepared,
            probe_env=self._probe_env,
            source=self.source,
            measurement_sys=self._probe_sys,
        )

    def nominal_design(self, t: float) -> ExperimentDesign:
        t = min(max(t, self.dataset.min_time), self.dataset.max_time)
        _, substituted = replay_probability(self.dataset, t)
        return ExperimentDesign(
            time=substituted,
            probe_id="plus",
            probe_sys=self._probe_sys,
            probe_env=self._probe_env,
            source=self.source,
        )

    def measure(self, design: ExperimentDesign, rng: np.random.Generator) -> Datum:
        p, _ = replay_probability(self.dataset, design.time)
        return Datum(value=p, shots=self.noise.shot_count)

    def truth_probability(self, design: ExperimentDesign) -> float:
        p, _ = replay_probability(self.dataset, design.time)
        return p


# ---------------------------------------------------------------------------
# fit quality


def r_squared(predicted: np.ndarray, observed: np.ndarray) -> float:
    """Coefficient of determination; negative when worse than the mean."""
    predicted = np.asarray(predicted, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if observed.size < 2:
        raise ValueError("need at least two evaluation points")
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("observations have zero variance; R^2 undefined")
    ss_res = float(np.sum((observed - predicted) ** 2))
    return 1.0 - ss_res / ss_tot

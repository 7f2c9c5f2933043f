"""System oracles: analytic expectation values, open-system likelihoods,
noisy measurement sampling, probe randomisation, and experimental replay.

Two oracle classes provide the experiments a learner trains against:
``SimulatedSystem`` evolves a known Hamiltonian and samples noisy outcomes;
``ReplaySystem`` serves a recorded dataset, substituting each requested time
with the nearest recorded one so the learner can condition on the time
actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .pauli import (
    ENVIRONMENT_EIGENSTATES,
    ModelExpression,
    assemble_batch,
    assemble_blocks,
    check_hermitian,
    checked_params,
    environment_axis,
)

__all__ = [
    "NoiseConfig",
    "ExperimentDesign",
    "ExperimentTable",
    "RecordedDataset",
    "ReplayRangeError",
    "Spectrum",
    "outcome_probabilities",
    "global_probes",
    "hermitian_spectrum",
    "model_spectrum",
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
VARIANCE_RESOLUTION = 1e-12  # relative spread below which R^2 is undefined


def is_frozen_batch(array) -> bool:
    """Whether ``array`` is a read-only ndarray that owns its data: the only
    kind of batch a cache keyed by array identity may hold, since a writable
    array or a view could change in place between calls."""
    return isinstance(array, np.ndarray) and not array.flags.writeable and array.base is None


class FrozenBatchCache:
    """``derive(batch)``, kept for the last batch while that same frozen batch
    (``is_frozen_batch``) is passed again; any other batch is derived afresh
    and not kept."""

    def __init__(self, derive):
        self.derive = derive
        self.batch = self.value = None

    def __call__(self, batch):
        frozen = is_frozen_batch(batch)
        if frozen and batch is self.batch:
            return self.value
        value = self.derive(batch)
        self.batch, self.value = (batch, value) if frozen else (None, None)
        return value


class ReplayRangeError(ValueError):
    """Requested time lies outside the recorded window."""


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise model: probe-offset severity and shot statistics."""

    probe_offset_sigma: float = 0.03
    shot_count: int = 1_000_000

    def __post_init__(self):
        if not 0.0 <= self.probe_offset_sigma < 1.0:
            raise ValueError("probe_offset_sigma must lie in [0, 1)")
        if self.shot_count < 1:
            raise ValueError("shot_count must be positive")


@dataclass(frozen=True, eq=False)
class ExperimentDesign:
    """A control pair: probe state and evolution time (us).

    ``probe_sys``/``probe_env`` are the single-qubit preparations for the
    principal spin and the environment qubit, as used by the simulator when
    scoring likelihoods; a fixed-probe experiment randomises ``probe_sys``
    slightly so that no recursive trust is placed in an exact preparation.
    ``measurement_sys`` is the readout state (defaults to the preparation):
    outcome 1 is a projection onto it, reproducing the
    |<psi|e^{-iHt}|psi>|^2 readout, and outcome 0 its complement.
    """

    time: float
    probe_sys: np.ndarray
    probe_env: np.ndarray
    measurement_sys: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.time) or self.time < 0:
            raise ValueError("evolution time must be finite and non-negative")

    @property
    def readout_sys(self) -> np.ndarray:
        return self.probe_sys if self.measurement_sys is None else self.measurement_sys


@dataclass(frozen=True, eq=False)
class ExperimentTable:
    """m experiments as columns: evolution times (m,), the principal and
    environment preparations and the readout states (m, 2) each, and the
    measured outcomes (m,): a bit for one shot, else an outcome frequency."""

    times: np.ndarray
    probe_sys: np.ndarray
    probe_env: np.ndarray
    readouts: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> np.ndarray:
        """(m, 14) real rows: time, the real and imaginary parts of both
        preparations and the readout, and the outcome."""
        states = (self.probe_sys, self.probe_env, self.readouts)
        return np.column_stack(
            [self.times, *(np.ascontiguousarray(s).view(float) for s in states), self.values]
        )

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "ExperimentTable":
        """The inverse of ``rows``, bit for bit."""
        states = np.ascontiguousarray(rows[:, 1:13]).view(complex)
        return cls(rows[:, 0], states[:, 0:2], states[:, 2:4], states[:, 4:6], rows[:, 13])


# ---------------------------------------------------------------------------
# probe states


def plus_state() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def phase_plus_state(phi: float) -> np.ndarray:
    """(|0> + e^{i phi}|1>)/sqrt(2), the environment-qubit preparation."""
    return np.array([1.0, np.exp(1.0j * phi)], dtype=complex) / np.sqrt(2.0)


def global_probes(probe_sys: np.ndarray, probe_env: np.ndarray) -> np.ndarray:
    """Rows |probe_sys[k]> (x) |probe_env[k]> of two (m, 2) arrays: the
    products ``np.kron`` forms for each pair, without its overhead."""
    m = len(probe_sys)
    return (probe_sys[:, :, None] * probe_env[:, None, :]).reshape(m, 4)


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random pure state of the given dimension.

    The first ``dim`` normal draws are the real parts and the next ``dim``
    the imaginary parts; the norm is the sum ``np.linalg.norm`` forms, over
    the same strided views.
    """
    re, im = rng.standard_normal(2 * dim).reshape(2, dim)
    z = re + 1.0j * im
    return z / math.sqrt(z.real.dot(z.real) + z.imag.dot(z.imag))


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
    return out / math.sqrt(out.real.dot(out.real) + out.imag.dot(out.imag))


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


class Spectrum:
    """Eigendecompositions of n d x d Hamiltonians, laid out for
    ``outcome_probabilities``.

    ``evals`` (n, d) holds the eigenvalues, not necessarily sorted, and
    ``gaps`` (d - 1, n) the differences lambda_k - lambda_0.  ``kets``
    (d, d, n) holds entry a of eigenvector k of Hamiltonian i at ``[a, k, i]``
    and ``bras`` its conjugate, so that contracting a batch of vectors with
    every eigenvector of every Hamiltonian is one product with a (d, d * n)
    view.
    """

    def __init__(self, evals: np.ndarray, kets: np.ndarray):
        self.evals = evals
        self.gaps = np.subtract(evals.T[1:], evals.T[:1], order="C")
        self.kets = kets
        self.bras = kets.conj()

    @classmethod
    def from_eigh(cls, evals: np.ndarray, evecs: np.ndarray) -> "Spectrum":
        """From ``np.linalg.eigh``'s ``(evals (n, d), evecs (n, d, d))``."""
        return cls(evals, np.ascontiguousarray(evecs.transpose(1, 2, 0)))


def _contract(vectors: np.ndarray, rows: np.ndarray, batch: bool) -> np.ndarray:
    """sum_a vectors[:, a] * rows[a] for (m, q) vectors and q rows, (m, x).

    One GEMM for a single Hamiltonian, whose rows are a few entries long.  A
    batch of n Hamiltonians makes them d * n long, and OpenBLAS runs such a
    skinny product as a threaded gemv or gemm whose threads stall a process
    pool (acceptance 7's 20 desk instances on 4 workers took 134 s instead
    of 19 s), so the q rows are summed in numpy instead.
    """
    if not batch:
        return vectors @ rows
    out = vectors[:, :1] * rows[0]
    for a in range(1, len(rows)):
        out += vectors[:, a : a + 1] * rows[a]
    return out


def outcome_probabilities(spectrum, probes, readouts, times) -> np.ndarray:
    """Outcome probabilities of m experiments under n Hamiltonians, (n, m).

    ``spectrum`` is a ``Spectrum``; experiment k evolves ``probes[k]``
    (length d) for ``times[k]`` and reads out ``readouts[k]`` (length r) on
    the leading factor, tracing out the trailing d // r dimensions:
    sum_e |(<readout| (x) <e|) exp(-i H t) |probe>|^2.  Values are not
    clipped, so rounding can leave them a hair outside [0, 1].

    The readout is contracted with the eigenvectors first.  Each amplitude
    is conjugated, which leaves its modulus unchanged:
    sum_k [(|readout> (x) |e>)^T conj(v_k)] [v_k^T conj(probe)] e^{i lambda_k t},
    and the common phase e^{i lambda_0 t} is dropped, so each bracket is one
    contraction over every Hamiltonian and only the d - 1 gaps are rotated.
    """
    d, _, n = spectrum.kets.shape
    readouts = np.asarray(readouts)
    m, r = readouts.shape
    probes = np.asarray(probes).conj()
    coeff = _contract(probes, spectrum.kets.reshape(d, d * n), n > 1).reshape(m, 1, d, n)
    angles = spectrum.gaps * np.asarray(times, dtype=float)[:, None, None]
    rotation = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=rotation.real)
    np.sin(angles, out=rotation.imag)
    coeff[:, :, 1:] *= rotation[:, None]
    terms = _contract(readouts, spectrum.bras.reshape(r, d * n * d // r), n > 1)
    terms = terms.reshape(m, d // r, d, n)
    terms *= coeff
    amps = np.add.reduce(terms, axis=2)
    return np.add.reduce(amps.real**2 + amps.imag**2, axis=1).T


def hermitian_spectrum(hamiltonians: np.ndarray) -> tuple:
    """``(evals, evecs)`` of a batch of Hermitian matrices, as
    ``np.linalg.eigh`` returns them: ascending eigenvalues, eigenvectors in
    the columns.

    A (n, 2, 2) batch takes the closed form: eigenvalues m -+ r with
    m = (a + c)/2, delta = (a - c)/2, r = hypot(delta, |b|); the upper
    eigenvector is (r + delta, conj(b)) when delta >= 0 and (b, r - delta)
    otherwise, so neither branch cancels, normalised by
    sqrt(2r) sqrt(r + |delta|); the lower one is (conj(v[1]), -conj(v[0])).
    A multiple of the identity (r = 0) gets identity columns.  Any other
    size goes to ``np.linalg.eigh``.
    """
    if hamiltonians.shape[-2:] != (2, 2):
        return np.linalg.eigh(hamiltonians)
    a = hamiltonians[:, 0, 0].real
    c = hamiltonians[:, 1, 1].real
    b = hamiltonians[:, 0, 1]
    m, delta = (a + c) / 2.0, (a - c) / 2.0
    r = np.hypot(delta, np.abs(b))
    s = r + np.abs(delta)
    upper = delta >= 0.0
    degenerate = r == 0.0  # then delta = b = 0 and the upper vector is (0, 1)
    norm = np.sqrt(2.0 * r) * np.sqrt(s) + degenerate
    evecs = np.empty((len(a), 2, 2), dtype=complex)
    evecs[:, 0, 1] = np.where(upper, s, b) / norm
    evecs[:, 1, 1] = np.where(upper, b.conj() + degenerate, s) / norm
    evecs[:, 0, 0] = evecs[:, 1, 1].conj()
    evecs[:, 1, 0] = -evecs[:, 0, 1].conj()
    evals = np.empty((len(a), 2))
    evals[:, 0] = m - r
    evals[:, 1] = m + r
    return evals, evecs


def model_spectrum(expression: ModelExpression, params_batch: np.ndarray) -> Spectrum:
    """The ``Spectrum`` of a model's Hamiltonians at a batch of parameter
    vectors (n, n_terms).

    A model with an ``environment_axis`` b splits into the 2x2 blocks of
    ``assemble_blocks``; block s has eigenvectors v (x) |b s>, so it needs no
    4x4 decomposition.  Any other model's assembled batch goes to
    ``hermitian_spectrum``.
    """
    axis = environment_axis(expression)
    if axis is None:
        return Spectrum.from_eigh(*hermitian_spectrum(assemble_batch(expression, params_batch)))
    n = len(params_batch)
    blocks = assemble_blocks(expression, params_batch).reshape(2 * n, 2, 2)
    evals, evecs = hermitian_spectrum(blocks)
    # kets[s, e, block, k, i] = v[i, block][s, k] * <e|b block>
    system = evecs.reshape(n, 2, 2, 2).transpose(2, 1, 3, 0)[:, None]
    environment = ENVIRONMENT_EIGENSTATES[axis].T[None, :, :, None, None]
    return Spectrum(evals.reshape(n, 4), (system * environment).reshape(4, 4, n))


def expectation_value(hamiltonian: np.ndarray, probe: np.ndarray, t: float) -> float:
    """|<probe| exp(-i H t) |probe>|^2."""
    probe = np.asarray(probe, dtype=complex)
    if hamiltonian.shape[0] != probe.shape[0]:
        raise ValueError(
            f"dimension mismatch: H is {hamiltonian.shape}, probe is {probe.shape}"
        )
    spectrum = Spectrum.from_eigh(*np.linalg.eigh(hamiltonian[None]))
    p = outcome_probabilities(spectrum, [probe], [probe], [t])
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
        Spectrum.from_eigh(*np.linalg.eigh(hamiltonian_glo[None])),
        [np.kron(probe_sys, probe_env)],
        [basis[:, d]],
        [t],
    )
    return _clip_probability(p[0, 0])


def _clip_probability(p: float) -> float:
    if p < -PROBABILITY_SLACK or p > 1.0 + PROBABILITY_SLACK:
        raise ValueError(f"probability {p} outside [0, 1] beyond tolerance")
    return float(min(max(p, 0.0), 1.0))


def sample_datum(p: float, noise: NoiseConfig, rng: np.random.Generator) -> float:
    """Draw a measurement outcome: Bernoulli(p) bit for one shot, else the
    outcome frequency of Binomial(shots, p)."""
    p = _clip_probability(p)
    if noise.shot_count == 1:
        return float(rng.random() < p)
    return float(rng.binomial(noise.shot_count, p) / noise.shot_count)


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
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(probs))):
            raise ValueError("times and probabilities must be finite")
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

    The spectrum of the last batch is kept when that batch is a read-only
    array owning its data (as ``ParticleCloud.locations`` is), so a particle
    cloud is eigendecomposed once per set of locations, not once per epoch.
    """

    def __init__(self, expression: ModelExpression):
        self.expression = expression
        self.num_qubits = expression.num_qubits
        self._batch_spectrum = FrozenBatchCache(partial(model_spectrum, expression))

    def probabilities(
        self, params_batch: np.ndarray, design: ExperimentDesign
    ) -> np.ndarray:
        """Outcome probability of ``design`` for each parameter vector."""
        d = design
        return self._outcomes(
            self._batch_spectrum(params_batch),
            [d.time], d.probe_sys[None], d.probe_env[None], d.readout_sys[None],
        )[:, 0]

    def probabilities_over(self, params: np.ndarray, experiments) -> np.ndarray:
        """Outcome probabilities of the rows of an ``ExperimentTable`` at one
        parameter vector."""
        spectrum = model_spectrum(self.expression, checked_params(self.expression, params)[None])
        e = experiments
        return self._outcomes(spectrum, e.times, e.probe_sys, e.probe_env, e.readouts)[0]

    def _outcomes(self, spectrum, times, probe_sys, probe_env, readouts) -> np.ndarray:
        probes = probe_sys if self.num_qubits == 1 else global_probes(probe_sys, probe_env)
        p = outcome_probabilities(spectrum, probes, readouts, times)
        return np.clip(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# system oracles


def _plus_preparations(env_phase: float) -> tuple:
    """|+> and (|0> + e^{i phi}|1>)/sqrt(2), read-only: an oracle builds them
    once and every fixed-probe design shares them."""
    states = plus_state(), phase_plus_state(env_phase)
    for state in states:
        state.setflags(write=False)
    return states


def _plus_design(oracle, t: float, rng: np.random.Generator) -> ExperimentDesign:
    """The fixed-probe design at time ``t``: |+> (x) (|0> + e^{i phi}|1>)/sqrt(2)
    with phi the oracle's ``env_phase``, read out in |+>; the simulator-side
    preparation is randomised around |+> with the oracle's probe-offset
    severity."""
    return ExperimentDesign(
        time=float(t),
        probe_sys=randomized_probe(oracle._plus, oracle.noise.probe_offset_sigma, rng),
        probe_env=oracle._env,
        measurement_sys=oracle._plus,
    )


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
        self._plus, self._env = _plus_preparations(self.env_phase)
        self.max_time = float(max_time)
        self.num_qubits = expression.num_qubits
        self._spectrum = model_spectrum(expression, checked_params(expression, self.params)[None])

    def new_design(self, t: float, rng: np.random.Generator) -> ExperimentDesign:
        if self.probe_policy == "random":
            probe_sys = haar_state(2, rng)
            probe_env = haar_state(2, rng)
            return ExperimentDesign(time=float(t), probe_sys=probe_sys, probe_env=probe_env)
        return _plus_design(self, t, rng)

    def measure(self, design: ExperimentDesign, rng: np.random.Generator) -> float:
        """One shot-noisy outcome of the system's own (nominal) preparation."""
        return sample_datum(self.truth_probability(design), self.noise, rng)

    def truth_probability(self, design: ExperimentDesign) -> float:
        """Noiseless outcome probability of the system at this design."""
        d = design
        return float(
            self.truth_probabilities([d.time], d.readout_sys[None], d.probe_env[None])[0]
        )

    def truth_probabilities(self, times, readouts, probe_env) -> np.ndarray:
        """Noiseless outcome probabilities of the system, preparing and
        reading out ``readouts[k]`` (with ``probe_env[k]`` on a second qubit)
        at ``times[k]``, from one kernel call; ``ValueError`` if any lies
        outside [0, 1] beyond rounding."""
        probes = readouts if self.num_qubits == 1 else global_probes(readouts, probe_env)
        p = outcome_probabilities(self._spectrum, probes, readouts, times)[0]
        return np.array([_clip_probability(v) for v in p.tolist()])


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
        self._plus, self._env = _plus_preparations(self.env_phase)
        self.num_qubits = 2
        self.max_time = dataset.max_time

    def _recorded_time(self, t: float) -> float:
        """The recorded time nearest to ``t`` clamped into the window."""
        t = min(max(t, self.dataset.min_time), self.dataset.max_time)
        return replay_probability(self.dataset, t)[1]

    def new_design(self, t: float, rng: np.random.Generator) -> ExperimentDesign:
        return _plus_design(self, self._recorded_time(t), rng)

    def measure(self, design: ExperimentDesign, rng: np.random.Generator) -> float:
        return replay_probability(self.dataset, design.time)[0]


# ---------------------------------------------------------------------------
# fit quality


def r_squared(predicted: np.ndarray, observed: np.ndarray) -> float:
    """Coefficient of determination; negative when worse than the mean.

    A spread at rounding level relative to the observations' magnitude
    counts as zero variance: R^2 would then measure rounding, not fit.
    """
    predicted = np.asarray(predicted, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if observed.size < 2:
        raise ValueError("need at least two evaluation points")
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    rounding = VARIANCE_RESOLUTION * max(1.0, float(np.max(np.abs(observed))))
    if ss_tot <= observed.size * rounding**2:
        raise ValueError("observations have zero variance; R^2 undefined")
    ss_res = float(np.sum((observed - predicted) ** 2))
    return 1.0 - ss_res / ss_tot

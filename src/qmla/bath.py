"""Spin-bath characterisation from Hahn-echo data.

The echo signal of a central spin coupled to a bath of nuclear spins has
the closed form Pr(1|tau) = (prod_j S_j + 1)/2, where each pseudospin S_j
depends on the external field, the effective field at site j and two
precession frequencies.  Rather than fitting every site, the bath is
described by six hyperparameters (field means, spreads and frequency
offsets) from which per-site values are drawn; the hyperparameters are
learned by the same sequential Monte Carlo machinery used for Hamiltonian
models, and the number of bath spins is sampled by a Metropolis-Hastings
walk whose acceptance ratio is the evidence between neighbouring counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special

from .smc import (
    PriorSpec,
    initialize_cloud,
    liu_west_resample,
    log_likelihood,
    posterior_summary,
    reweight,
    should_resample,
)
from .system import RecordedDataset

__all__ = [
    "BathHyperparameters",
    "BathRealization",
    "BathExperiment",
    "CleResult",
    "MhaTrace",
    "LogisticFit",
    "T2Estimate",
    "FitError",
    "pseudospin",
    "hahn_signal",
    "sample_bath_realization",
    "cle_train",
    "mha_run",
    "fit_logistic",
    "estimate_T2",
    "DEFAULT_BATH_PRIOR",
]

NUM_HYPERPARAMS = 10  # two 3-vectors plus four scalars


class FitError(RuntimeError):
    """A curve fit failed to converge; carries the residuals when known."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class BathHyperparameters:
    """Reduced description of the bath: external field ``b0``, the mean and
    spread of per-site effective fields, the bare Larmor frequency and the
    offset/spread of the per-site modulation frequencies."""

    b0: np.ndarray
    b1_mean: np.ndarray
    sigma_b: float
    omega0: float
    delta_omega: float
    sigma_omega: float

    def __post_init__(self):
        object.__setattr__(self, "b0", np.asarray(self.b0, dtype=float))
        object.__setattr__(self, "b1_mean", np.asarray(self.b1_mean, dtype=float))
        if self.b0.shape != (3,) or self.b1_mean.shape != (3,):
            raise ValueError("fields must be 3-vectors")
        if np.linalg.norm(self.b0) == 0.0:
            raise ValueError("|b0| must be positive")
        if self.sigma_b <= 0 or self.sigma_omega <= 0:
            raise ValueError("field and frequency spreads must be positive")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [
                self.b0,
                self.b1_mean,
                [self.sigma_b, self.omega0, self.delta_omega, self.sigma_omega],
            ]
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "BathHyperparameters":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (NUM_HYPERPARAMS,):
            raise ValueError(f"expected {NUM_HYPERPARAMS} hyperparameters")
        return cls(
            b0=vec[0:3],
            b1_mean=vec[3:6],
            sigma_b=max(vec[6], 1e-9),
            omega0=max(vec[7], 1e-9),
            delta_omega=vec[8],
            sigma_omega=max(vec[9], 1e-9),
        )

    def to_dict(self) -> dict:
        return {
            "b0": [float(v) for v in self.b0],
            "b1_mean": [float(v) for v in self.b1_mean],
            "sigma_b": float(self.sigma_b),
            "omega0": float(self.omega0),
            "delta_omega": float(self.delta_omega),
            "sigma_omega": float(self.sigma_omega),
        }


@dataclass(frozen=True)
class BathRealization:
    """Concrete per-site fields and frequencies drawn from hyperparameters."""

    fields: np.ndarray  # (n_spins, 3)
    frequencies: np.ndarray  # (n_spins,)

    def __post_init__(self):
        fields = np.atleast_2d(np.asarray(self.fields, dtype=float))
        freqs = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "frequencies", freqs)
        if fields.shape != (freqs.shape[0], 3):
            raise ValueError("fields and frequencies must align")

    @property
    def n_spins(self) -> int:
        return self.frequencies.shape[0]


@dataclass(frozen=True)
class BathExperiment:
    """One replayed echo observation."""

    time: float
    value: float
    shots: int
    source: str


# Defaults for the hyperparameter prior; overridable via config.  Field
# components are in arbitrary units (only angles and norms matter), and
# omega0 in rad/us puts echo revivals at 2*pi*k/omega0 within typical
# recorded windows.
DEFAULT_BATH_PRIOR = PriorSpec(
    (
        ("uniform", -1.0, 1.0),  # b0 x
        ("uniform", -1.0, 1.0),  # b0 y
        ("uniform", -1.0, 1.0),  # b0 z
        ("uniform", -1.0, 1.0),  # b1 mean x
        ("uniform", -1.0, 1.0),  # b1 mean y
        ("uniform", -1.0, 1.0),  # b1 mean z
        ("uniform", 0.05, 0.5),  # sigma_b
        ("uniform", 0.2, 2.0),  # omega0
        ("uniform", -0.5, 0.5),  # delta_omega
        ("uniform", 0.01, 0.3),  # sigma_omega
    )
)


# ---------------------------------------------------------------------------
# echo signal


def pseudospin(
    b0,
    b1,
    omega0: float,
    omega_j: float,
    tau: float,
    *,
    squared_cross: bool = True,
) -> float:
    """Contribution of one bath spin to the echo signal.

    S_j = 1 - (|b0 x b1|^2 / (|b0|^2 |b1|^2)) sin^2(omega0 tau/2)
          sin^2(omega_j tau/2); the geometric prefactor is sin^2 of the angle
    between the fields, so S_j lies in [0, 1] and equals 1 whenever the
    fields are parallel or tau hits a revival.  ``squared_cross=False``
    selects a variant with an unsquared cross-product norm (not
    dimensionless; clipped into [-1, 1]).
    """
    b0 = np.asarray(b0, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    n0 = float(b0 @ b0)
    n1 = float(b1 @ b1)
    if n0 == 0.0 or n1 == 0.0:
        raise ValueError("field vectors must have non-zero norm")
    cross = np.cross(b0, b1)
    cross_sq = float(cross @ cross)
    geometric = cross_sq / (n0 * n1) if squared_cross else math.sqrt(cross_sq) / (n0 * n1)
    value = 1.0 - geometric * math.sin(omega0 * tau / 2.0) ** 2 * math.sin(
        omega_j * tau / 2.0
    ) ** 2
    return float(min(max(value, -1.0), 1.0))


def hahn_signal(
    realization: BathRealization,
    b0,
    omega0: float,
    tau: float,
    *,
    squared_cross: bool = True,
) -> float:
    """Pr(1|tau) = (prod_j S_j + 1)/2; an empty bath gives 1."""
    product = 1.0
    for j in range(realization.n_spins):
        product *= pseudospin(
            b0,
            realization.fields[j],
            omega0,
            realization.frequencies[j],
            tau,
            squared_cross=squared_cross,
        )
    return (product + 1.0) / 2.0


def sample_bath_realization(
    hyper: BathHyperparameters, n_spins: int, rng: np.random.Generator
) -> BathRealization:
    """Draw per-site fields ~ N(b1_mean, sigma_b I) and frequencies
    ~ N(omega0 + delta_omega, sigma_omega), redrawing negative frequencies."""
    if n_spins < 1:
        raise ValueError("need at least one bath spin")
    fields = hyper.b1_mean + hyper.sigma_b * rng.standard_normal((n_spins, 3))
    mu = hyper.omega0 + hyper.delta_omega
    freqs = rng.normal(mu, hyper.sigma_omega, size=n_spins)
    for _ in range(1000):
        bad = freqs <= 0.0
        if not bad.any():
            break
        freqs[bad] = rng.normal(mu, hyper.sigma_omega, size=int(bad.sum()))
    else:
        freqs = np.abs(freqs)
    return BathRealization(fields=fields, frequencies=freqs)


# ---------------------------------------------------------------------------
# vectorised hyperparameter likelihood


def _shared_draws(n_spins: int, seed) -> np.ndarray:
    """Standard-normal draws of shape (n_spins, 4), row-stable in n_spins so
    evaluations at neighbouring spin counts share their common sites."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((n_spins, 4))


def _truncated_freqs(mu, sigma, z_col):
    """Map shared normal draws onto N(mu, sigma) truncated at 0 via the
    inverse-CDF transform, preserving common random numbers across particles."""
    u = special.ndtr(z_col)  # shared uniforms
    lo = special.ndtr(-mu / sigma)
    p = np.clip(lo + u * (1.0 - lo), 1e-12, 1.0 - 1e-12)
    return mu + sigma * special.ndtri(p)


def hyper_signal_batch(
    particles: np.ndarray,
    tau,
    draws: np.ndarray,
    *,
    squared_cross: bool = True,
) -> np.ndarray:
    """Echo probability at ``tau`` for a batch of hyperparameter vectors,
    marginalised over one bath realization built from shared draws.

    ``tau`` is a scalar, giving shape (n_particles,), or an array of T
    times, giving (n_particles, T); the per-site fields and frequencies are
    built once for all times.
    """
    particles = np.atleast_2d(particles)
    b0 = particles[:, 0:3]
    b1_mean = particles[:, 3:6]
    sigma_b = np.clip(particles[:, 6], 1e-9, None)
    omega0 = np.clip(particles[:, 7], 1e-9, None)
    delta = particles[:, 8]
    sigma_w = np.clip(particles[:, 9], 1e-9, None)

    fields = b1_mean[:, None, :] + sigma_b[:, None, None] * draws[None, :, :3]
    mu = omega0 + delta
    freqs = _truncated_freqs(mu[:, None], sigma_w[:, None], draws[None, :, 3])

    n0 = np.clip(np.sum(b0**2, axis=1), 1e-12, None)
    n1 = np.clip(np.sum(fields**2, axis=2), 1e-12, None)
    cross = np.cross(b0[:, None, :], fields)
    geometric = np.sum(cross**2, axis=2)
    if squared_cross:
        geometric = geometric / (n0[:, None] * n1)
    else:
        geometric = np.sqrt(geometric) / (n0[:, None] * n1)
    tau = np.asarray(tau, dtype=float)
    taus = tau.reshape(-1)[None, :]
    s0 = np.sin(omega0[:, None] * taus / 2.0) ** 2
    spins = 1.0 - geometric[:, None, :] * s0[:, :, None] * np.sin(
        freqs[:, None, :] * taus[:, :, None] / 2.0
    ) ** 2
    spins = np.clip(spins, -1.0, 1.0)
    probs = (np.prod(spins, axis=2) + 1.0) / 2.0
    return probs.reshape(particles.shape[0], *tau.shape)


def _hyper_log_likelihood(
    hyper_vec: np.ndarray,
    n_spins: int,
    experiments,
    eval_seed,
    *,
    squared_cross: bool = True,
) -> float:
    """Cumulative log-likelihood of a dataset at one hyperparameter vector,
    using the fixed-seed realization shared by all evaluations of a run."""
    if not experiments:
        return 0.0
    draws = _shared_draws(n_spins, eval_seed)
    times = np.array([e.time for e in experiments])
    values = np.array([e.value for e in experiments])
    unique_times, inverse = np.unique(times, return_inverse=True)
    q_unique = hyper_signal_batch(
        hyper_vec[None, :], unique_times, draws, squared_cross=squared_cross
    )[0]
    return float(np.sum(log_likelihood(q_unique[inverse], values)))


# ---------------------------------------------------------------------------
# classical likelihood estimation (SMC over hyperparameters)


@dataclass
class CleResult:
    hyper_mean: BathHyperparameters
    log_likelihood: float
    experiments: list
    summary: object
    n_spins: int

    def to_dict(self) -> dict:
        return {
            "n_spins": int(self.n_spins),
            "log_likelihood": float(self.log_likelihood),
            "hyperparameters": self.hyper_mean.to_dict(),
        }


def cle_train(
    dataset: RecordedDataset,
    n_spins: int,
    num_epochs: int,
    num_particles: int,
    rng: np.random.Generator,
    *,
    prior: PriorSpec = DEFAULT_BATH_PRIOR,
    shots: int = 1_000_000,
    squared_cross: bool = True,
    eval_seed=None,
    likelihood_power: float = 100.0,
) -> CleResult:
    """Fit bath hyperparameters for a fixed spin count by SMC.

    Each epoch replays one uniformly drawn recorded point as the datum and
    reweights particles using one bath realization per particle built from
    epoch-shared draws (common random numbers keep neighbouring particles
    comparable).  Uniform replay is used instead of the inverse-distance
    time heuristic because the hyperparameter scale bears no relation to the
    echo timescale, and revival structure must be visited to pin the
    frequencies.  The per-datum likelihood is tempered by
    ``likelihood_power`` effective shots: the full recorded shot count would
    collapse the particle cloud in one epoch, while a single shot learns too
    slowly.  Returns the posterior mean, its cumulative log-likelihood over
    the full dataset, and the experiments consumed.
    """
    if n_spins < 1:
        raise ValueError("need at least one bath spin")
    if eval_seed is None:
        eval_seed = int(rng.integers(2**63))
    cloud = initialize_cloud(prior, num_particles, rng)
    experiments = []
    for epoch in range(num_epochs):
        idx = int(rng.integers(0, dataset.times.size))
        t = float(dataset.times[idx])
        value = float(dataset.probabilities[idx])
        draws = _shared_draws(n_spins, int(rng.integers(2**63)))
        probs = hyper_signal_batch(
            cloud.locations, t, draws, squared_cross=squared_cross
        )
        cloud = reweight(
            cloud, likelihood_power * log_likelihood(probs, value), epoch=epoch
        )
        if should_resample(cloud, num_particles):
            cloud, _ = liu_west_resample(cloud, 0.98, rng)
        experiments.append(
            BathExperiment(time=t, value=value, shots=shots, source=dataset.source)
        )
    summary = posterior_summary(cloud)
    hyper_mean = BathHyperparameters.from_vector(summary.mean)
    full_data = [
        BathExperiment(time=float(t), value=float(p), shots=shots, source=dataset.source)
        for t, p in zip(dataset.times, dataset.probabilities)
    ]
    full_log_likelihood = _hyper_log_likelihood(
        hyper_mean.to_vector(),
        n_spins,
        full_data,
        eval_seed,
        squared_cross=squared_cross,
    )
    return CleResult(
        hyper_mean=hyper_mean,
        log_likelihood=full_log_likelihood,
        experiments=experiments,
        summary=summary,
        n_spins=n_spins,
    )


# ---------------------------------------------------------------------------
# Metropolis-Hastings over the spin count


@dataclass
class MhaTrace:
    """Step log of the spin-count walk plus the cumulative dataset."""

    steps: list = field(default_factory=list)
    current_n: int = 1
    experiments: list = field(default_factory=list)
    final_hypers: dict | None = None

    def log_likelihood_samples(self) -> dict:
        """Per-spin-count |log-likelihood| samples from every evaluation."""
        samples = {}
        for step in self.steps:
            samples.setdefault(step["proposal"], []).append(
                abs(step["ll_proposal"])
            )
            samples.setdefault(step["n_before"], []).append(abs(step["ll_current"]))
        return samples

    def to_dict(self) -> dict:
        return {
            "current_n": int(self.current_n),
            "num_experiments": len(self.experiments),
            "steps": [
                {
                    k: (float(v) if isinstance(v, float) else v)
                    for k, v in step.items()
                }
                for step in self.steps
            ],
        }


def mha_run(
    dataset: RecordedDataset | None,
    steps: int,
    num_epochs: int,
    num_particles: int,
    rng: np.random.Generator,
    *,
    prior: PriorSpec = DEFAULT_BATH_PRIOR,
    n_start: int = 1,
    n_max: int | None = None,
    shots: int = 1_000_000,
    squared_cross: bool = True,
    likelihood_power: float = 100.0,
    fresh_eval_seeds: bool = False,
    log_likelihood_fn=None,
) -> MhaTrace:
    """Random-walk sampling of the bath spin count.

    Proposals move by +-1 (a move through either boundary proposes staying
    put, which keeps the proposal symmetric).  Each proposal is fitted by
    ``cle_train``, its experiments join the cumulative dataset, and both the
    proposal and the current state are scored on that dataset; acceptance is
    min(1, exp(ll_proposal - ll_current)).  The two scores of a step share
    one realization seed (common random numbers).  By default that seed is
    fixed for the whole run, so the walk settles where additional spins stop
    paying for themselves (the spin count carries no parameter-count penalty,
    and an ever-fresh seed would let the walk drift upward without bound);
    ``fresh_eval_seeds`` redraws it per step for a mobile walk.  Supplying
    ``log_likelihood_fn`` replaces training with a deterministic map
    n -> log-likelihood, which samples the normalised exp(ll) distribution
    exactly.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if n_start < 1:
        raise ValueError("spin counts start at 1")
    trace = MhaTrace(current_n=n_start)
    eval_seed = int(rng.integers(2**63))

    def synthetic(n: int) -> float:
        return float(log_likelihood_fn(n))

    if log_likelihood_fn is None:
        if dataset is None:
            raise ValueError("a dataset is required unless log_likelihood_fn is given")
        current_fit = cle_train(
            dataset,
            n_start,
            num_epochs,
            num_particles,
            np.random.default_rng(rng.spawn(1)[0]),
            prior=prior,
            shots=shots,
            squared_cross=squared_cross,
            eval_seed=eval_seed,
            likelihood_power=likelihood_power,
        )
        trace.experiments.extend(current_fit.experiments)
        current_vec = current_fit.hyper_mean.to_vector()
    else:
        current_vec = None

    n = n_start
    for step_index in range(steps):
        delta = -1 if rng.random() < 0.5 else 1
        proposal = n + delta
        if proposal < 1 or (n_max is not None and proposal > n_max):
            proposal = n
        if fresh_eval_seeds and log_likelihood_fn is None:
            eval_seed = int(rng.integers(2**63))
        if log_likelihood_fn is not None:
            ll_prop = synthetic(proposal)
            ll_cur = synthetic(n)
            prop_vec = None
        elif proposal == n:
            ll_cur = _hyper_log_likelihood(
                current_vec,
                n,
                trace.experiments,
                eval_seed,
                squared_cross=squared_cross,
            )
            ll_prop = ll_cur
            prop_vec = current_vec
        else:
            fit = cle_train(
                dataset,
                proposal,
                num_epochs,
                num_particles,
                np.random.default_rng(rng.spawn(1)[0]),
                prior=prior,
                shots=shots,
                squared_cross=squared_cross,
                eval_seed=eval_seed,
                likelihood_power=likelihood_power,
            )
            trace.experiments.extend(fit.experiments)
            prop_vec = fit.hyper_mean.to_vector()
            ll_prop = _hyper_log_likelihood(
                prop_vec,
                proposal,
                trace.experiments,
                eval_seed,
                squared_cross=squared_cross,
            )
            ll_cur = _hyper_log_likelihood(
                current_vec,
                n,
                trace.experiments,
                eval_seed,
                squared_cross=squared_cross,
            )
        accepted = math.log(max(rng.random(), 1e-300)) < (ll_prop - ll_cur)
        trace.steps.append(
            {
                "step": step_index,
                "n_before": n,
                "proposal": proposal,
                "ll_proposal": float(ll_prop),
                "ll_current": float(ll_cur),
                "accepted": bool(accepted),
                "n_after": proposal if accepted else n,
            }
        )
        if accepted:
            n = proposal
            if prop_vec is not None:
                current_vec = prop_vec
        trace.current_n = n
    if current_vec is not None:
        trace.final_hypers = BathHyperparameters.from_vector(current_vec).to_dict()
    return trace


# ---------------------------------------------------------------------------
# plateau and decoherence fits


@dataclass(frozen=True)
class LogisticFit:
    plateau: float  # L
    steepness: float  # k
    midpoint: float  # n0
    degenerate: bool = False

    @property
    def plateau_onset(self) -> float:
        """n0 + 2/k, where the curve reaches ~88% of its plateau."""
        return self.midpoint + 2.0 / self.steepness

    def to_dict(self) -> dict:
        return {
            "plateau": float(self.plateau),
            "steepness": float(self.steepness),
            "midpoint": float(self.midpoint),
            "plateau_onset": float(self.plateau_onset) if not self.degenerate else None,
            "degenerate": self.degenerate,
        }


def _logistic(n, plateau, steepness, midpoint):
    return plateau / (1.0 + np.exp(-steepness * (n - midpoint)))


def fit_logistic(trace: MhaTrace) -> LogisticFit:
    """Least-squares logistic fit of |log-likelihood| against spin count.

    Uses the per-count mean of every log-likelihood evaluation in the trace.
    A flat profile is flagged degenerate (steepness ~ 0) instead of fitted.
    """
    samples = trace.log_likelihood_samples()
    if len(samples) < 3:
        raise ValueError("need evaluations at three or more distinct spin counts")
    ns = np.array(sorted(samples))
    means = np.array([float(np.mean(samples[n])) for n in ns])
    spread = float(means.max() - means.min())
    if spread < 1e-9 * max(1.0, abs(float(means.max()))):
        return LogisticFit(
            plateau=float(means.mean()), steepness=0.0, midpoint=float(np.median(ns)),
            degenerate=True,
        )
    p0 = (float(means.max()), 1.0, float(np.median(ns)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            popt, _ = optimize.curve_fit(
                _logistic,
                ns.astype(float),
                means,
                p0=p0,
                maxfev=20000,
                bounds=((0.0, 1e-6, -np.inf), (np.inf, np.inf, np.inf)),
            )
    except RuntimeError as err:
        residuals = means - _logistic(ns, *p0)
        raise FitError(f"logistic fit did not converge: {err}", residuals)
    return LogisticFit(
        plateau=float(popt[0]), steepness=float(popt[1]), midpoint=float(popt[2])
    )


@dataclass(frozen=True)
class T2Estimate:
    t2: float
    stderr: float
    no_decay: bool
    window_times: tuple
    window_maxima: tuple

    def to_dict(self) -> dict:
        return {
            "t2_us": float(self.t2) if math.isfinite(self.t2) else None,
            "stderr_us": float(self.stderr) if math.isfinite(self.stderr) else None,
            "no_decay": self.no_decay,
            "window_times": [float(v) for v in self.window_times],
            "window_maxima": [float(v) for v in self.window_maxima],
        }


def estimate_T2(
    dataset: RecordedDataset, omega0: float, *, exponent: float = 3.0
) -> T2Estimate:
    """Decoherence time from the envelope of echo revivals.

    The maximum probability in each revival window (centred at 2*pi*k/omega0,
    half-width pi/omega0) is fitted with c + a * exp(-(tau/T2)^p); p = 3 is
    the conventional stretching exponent for a nuclear-spin bath.  Flat
    envelopes are flagged instead of producing a spurious fit.
    """
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
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
    if len(peak_times) < 3:
        raise ValueError(
            f"need data in at least three revival windows, found {len(peak_times)}"
        )
    taus = np.array(peak_times)
    values = np.array(peak_values)
    if values.max() - values.min() < 1e-3:
        return T2Estimate(
            t2=math.inf,
            stderr=math.inf,
            no_decay=True,
            window_times=tuple(peak_times),
            window_maxima=tuple(peak_values),
        )

    def envelope(tau, floor, amplitude, t2):
        return floor + amplitude * np.exp(-((tau / t2) ** exponent))

    p0 = (float(values.min()), float(values.max() - values.min()), float(np.median(taus)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            popt, pcov = optimize.curve_fit(
                envelope,
                taus,
                values,
                p0=p0,
                maxfev=20000,
                bounds=((-0.5, 0.0, 1e-6), (1.5, 2.0, np.inf)),
            )
    except RuntimeError as err:
        raise FitError(f"envelope fit did not converge: {err}", values)
    t2 = float(popt[2])
    stderr = float(np.sqrt(pcov[2, 2])) if np.isfinite(pcov[2, 2]) else math.inf
    no_decay = bool(t2 > 100.0 * dataset.max_time or popt[1] < 1e-3)
    return T2Estimate(
        t2=math.inf if no_decay else t2,
        stderr=stderr,
        no_decay=no_decay,
        window_times=tuple(peak_times),
        window_maxima=tuple(peak_values),
    )

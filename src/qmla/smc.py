"""Sequential Monte Carlo inference of Hamiltonian parameters.

A weighted particle cloud approximates the posterior over a model's
parameter vector.  Each epoch designs one experiment (evolution time from
the inverse-distance heuristic), measures the system, reweights particles
by the outcome likelihood and resamples with the Liu-West kernel when the
effective sample size drops below half the particle count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .system import Datum, Experiment, ExperimentDesign, HamiltonianModel

__all__ = [
    "PriorSpec",
    "ParticleCloud",
    "PosteriorSummary",
    "TrainingRecord",
    "WeightCollapseError",
    "initialize_cloud",
    "design_heuristic",
    "bayes_update",
    "effective_sample_size",
    "should_resample",
    "liu_west_resample",
    "volume",
    "posterior_summary",
    "run_qhl",
    "log_likelihood",
    "reweight",
]

LIKELIHOOD_FLOOR = 1e-10
VOLUME_FLOOR = 1e-300
RESAMPLE_A = 0.98


class WeightCollapseError(RuntimeError):
    """All posterior weights vanished; carries the epoch index and the
    training record accumulated so far (when raised inside a training run)."""

    def __init__(self, epoch: int, record=None):
        super().__init__(f"posterior weights collapsed to zero at epoch {epoch}")
        self.epoch = epoch
        self.record = record


@dataclass(frozen=True)
class PriorSpec:
    """Independent per-parameter marginals: ("uniform", lo, hi) or
    ("normal", mean, sd)."""

    marginals: tuple

    def __post_init__(self):
        for m in self.marginals:
            kind = m[0]
            if kind == "uniform":
                if not m[1] < m[2]:
                    raise ValueError(f"uniform prior needs lo < hi, got {m}")
            elif kind == "normal":
                if not m[2] > 0:
                    raise ValueError(f"normal prior needs sd > 0, got {m}")
            else:
                raise ValueError(f"unknown prior kind {kind!r}")

    @classmethod
    def uniform(cls, num_params: int, lo: float = 0.0, hi: float = 10.0) -> "PriorSpec":
        return cls(tuple(("uniform", lo, hi) for _ in range(num_params)))

    @classmethod
    def normal(cls, num_params: int, mean: float, sd: float) -> "PriorSpec":
        return cls(tuple(("normal", mean, sd) for _ in range(num_params)))

    @property
    def num_params(self) -> int:
        return len(self.marginals)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = []
        for m in self.marginals:
            if m[0] == "uniform":
                cols.append(rng.uniform(m[1], m[2], size=n))
            else:
                cols.append(rng.normal(m[1], m[2], size=n))
        return np.column_stack(cols)


@dataclass
class ParticleCloud:
    """Weighted parameter vectors approximating a posterior."""

    locations: np.ndarray  # (n_particles, n_params)
    weights: np.ndarray  # (n_particles,), non-negative, unit sum

    def __post_init__(self):
        self.locations = np.atleast_2d(np.asarray(self.locations, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.locations.shape[0],):
            raise ValueError("weights must align with particle locations")

    @property
    def num_particles(self) -> int:
        return self.locations.shape[0]

    @property
    def num_params(self) -> int:
        return self.locations.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.locations

    def covariance(self) -> np.ndarray:
        centred = self.locations - self.mean()
        return (centred * self.weights[:, None]).T @ centred


@dataclass(frozen=True)
class PosteriorSummary:
    mean: np.ndarray
    covariance: np.ndarray
    volume: float

    @property
    def sds(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


@dataclass
class TrainingRecord:
    """Everything produced by one training run: per-epoch trace, the final
    posterior summary, and the dataset of (design, datum) pairs."""

    model_name: str
    epochs: list = field(default_factory=list)  # dicts: t, datum, volume, resampled
    summary: PosteriorSummary | None = None
    experiments: list = field(default_factory=list)

    @property
    def final_params(self) -> np.ndarray:
        return self.summary.mean

    @property
    def final_sds(self) -> np.ndarray:
        return self.summary.sds

    @property
    def volumes(self) -> np.ndarray:
        return np.array([e["volume"] for e in self.epochs])

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "final_params": [float(v) for v in self.summary.mean],
            "final_sd": [float(v) for v in self.summary.sds],
            "epochs": [
                {
                    "t": float(e["t"]),
                    "datum": float(e["datum"]),
                    "volume": float(e["volume"]),
                    "resampled": bool(e["resampled"]),
                }
                for e in self.epochs
            ],
        }


# ---------------------------------------------------------------------------
# cloud operations


def initialize_cloud(
    prior: PriorSpec, num_particles: int, rng: np.random.Generator
) -> ParticleCloud:
    """Draw iid particles from the prior with uniform weights."""
    if num_particles < 2:
        raise ValueError("need at least two particles")
    locations = prior.sample(num_particles, rng)
    weights = np.full(num_particles, 1.0 / num_particles)
    return ParticleCloud(locations, weights)


def design_heuristic(
    cloud: ParticleCloud,
    rng: np.random.Generator,
    *,
    time_cap: float = math.inf,
    boost: float = 1.0,
) -> tuple:
    """Evolution time 1/||x1 - x2||_1 from two weight-drawn particles.

    Short times while the posterior is broad, longer as it contracts.
    Returns ``(time, degenerate)``; a degenerate (zero-distance) draw falls
    back to the cap.  ``boost`` scales the raw time before capping, used to
    push training onto longer times late in a run.
    """
    if cloud.num_particles < 2:
        raise ValueError("need at least two particles to design an experiment")
    idx = rng.choice(cloud.num_particles, size=2, p=cloud.weights)
    dist = float(np.sum(np.abs(cloud.locations[idx[0]] - cloud.locations[idx[1]])))
    if dist == 0.0:
        if not math.isfinite(time_cap):
            raise ValueError("degenerate particle draw with no finite time cap")
        return time_cap, True
    return min(boost / dist, time_cap), False


def log_likelihood(probs, values):
    """Log-likelihood f log q + (1 - f) log(1 - q) of outcome frequencies f
    under outcome-1 probabilities q, elementwise with broadcasting.

    A bit gives log q or log(1 - q); a frequency gives the per-shot
    geometric-mean likelihood.  Probabilities are clamped away from 0 and 1
    so no weight can vanish on a deterministic outcome.
    """
    q = np.clip(probs, LIKELIHOOD_FLOOR, 1.0 - LIKELIHOOD_FLOOR)
    return values * np.log(q) + (1.0 - values) * np.log1p(-q)


def reweight(
    cloud: ParticleCloud, log_lik: np.ndarray, *, epoch: int = 0
) -> ParticleCloud:
    """Multiply each particle's weight by exp(log_lik) and renormalise.

    Raises ``WeightCollapseError`` when the new weights sum to zero or to a
    non-finite value.
    """
    weights = cloud.weights * np.exp(log_lik - log_lik.max())
    total = weights.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise WeightCollapseError(epoch)
    return ParticleCloud(cloud.locations, weights / total)


def bayes_update(
    cloud: ParticleCloud,
    datum: Datum,
    design: ExperimentDesign,
    model: HamiltonianModel,
    *,
    epoch: int = 0,
    likelihood_power: float = 1.0,
) -> ParticleCloud:
    """Reweight every particle by the likelihood of the observed datum.

    ``likelihood_power`` tempers the update as that many effective shots:
    frequency data summarise many shots, and a single-shot update learns too
    slowly for the design heuristic to reach informative times, while the
    full recorded shot count would annihilate the cloud in one epoch.
    """
    probs = model.probabilities(cloud.locations, design)
    log_lik = likelihood_power * log_likelihood(probs, datum.value)
    return reweight(cloud, log_lik, epoch=epoch)


def effective_sample_size(cloud: ParticleCloud) -> float:
    return float(1.0 / np.sum(cloud.weights**2))


def should_resample(cloud: ParticleCloud, num_particles: int | None = None) -> bool:
    n = cloud.num_particles if num_particles is None else num_particles
    return effective_sample_size(cloud) < n / 2.0


def liu_west_resample(
    cloud: ParticleCloud, a: float, rng: np.random.Generator
) -> tuple:
    """Redraw equal-weight particles contracted toward the mean.

    Each new particle is a * x_ancestor + (1 - a) * mu + eps with ancestors
    drawn by weight and eps ~ N(0, (1 - a^2) Sigma), preserving the weighted
    mean and covariance in expectation.  Returns ``(cloud, degraded)`` where
    ``degraded`` flags a singular covariance handled via its floored diagonal.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("contraction a must lie in (0, 1]")
    n, k = cloud.locations.shape
    mu = cloud.mean()
    ancestors = rng.choice(n, size=n, p=cloud.weights)
    centres = a * cloud.locations[ancestors] + (1.0 - a) * mu
    degraded = False
    if a == 1.0:
        return ParticleCloud(centres, np.full(n, 1.0 / n)), degraded
    cov = cloud.covariance()
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        degraded = True
        diag = np.clip(np.diag(cov), 1e-12, None)
        chol = np.diag(np.sqrt(diag))
    noise = rng.standard_normal((n, k)) @ chol.T * math.sqrt(1.0 - a * a)
    return ParticleCloud(centres + noise, np.full(n, 1.0 / n)), degraded


def volume(cloud: ParticleCloud) -> float:
    """sqrt(det) of the weighted covariance (the weighted sd for one
    parameter); strictly positive via a determinant floor."""
    cov = cloud.covariance()
    if cloud.num_params == 1:
        return float(max(math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(VOLUME_FLOOR)))
    det = float(np.linalg.det(cov))
    return math.sqrt(max(det, VOLUME_FLOOR))


def posterior_summary(cloud: ParticleCloud) -> PosteriorSummary:
    return PosteriorSummary(
        mean=cloud.mean(), covariance=cloud.covariance(), volume=volume(cloud)
    )


# ---------------------------------------------------------------------------
# the training loop


def run_qhl(
    system,
    expression,
    prior: PriorSpec,
    num_epochs: int,
    num_particles: int,
    rng: np.random.Generator,
    *,
    resample_a: float = RESAMPLE_A,
    time_cap: float | None = None,
    tail_fraction: float = 0.1,
    tail_boost: float = 10.0,
    likelihood_power: float = 1.0,
) -> TrainingRecord:
    """Train one model against a system oracle.

    Each epoch: pick a time with the inverse-distance heuristic (boosted by
    ``tail_boost`` for the last ``tail_fraction`` of epochs), obtain a datum
    from the system, reweight, and resample when the effective sample size
    halves.  The final estimate is the weighted posterior mean.
    """
    model = HamiltonianModel(expression)
    cloud = initialize_cloud(prior, num_particles, rng)
    record = TrainingRecord(model_name=expression.name)
    if time_cap is None:
        time_cap = 10.0 * getattr(system, "max_time", 1.0)
    tail_start = num_epochs - int(math.ceil(tail_fraction * num_epochs))
    for epoch in range(num_epochs):
        boost = tail_boost if epoch >= tail_start else 1.0
        t, _ = design_heuristic(cloud, rng, time_cap=time_cap, boost=boost)
        design = system.new_design(t, rng)
        datum = system.measure(design, rng)
        try:
            cloud = bayes_update(
                cloud, datum, design, model,
                epoch=epoch, likelihood_power=likelihood_power,
            )
        except WeightCollapseError as err:
            record.summary = posterior_summary(cloud)
            raise WeightCollapseError(epoch, record) from err
        resampled = should_resample(cloud, num_particles)
        if resampled:
            cloud, _ = liu_west_resample(cloud, resample_a, rng)
        record.experiments.append(Experiment(design=design, datum=datum))
        record.epochs.append(
            {
                "t": design.time,
                "datum": datum.value,
                "volume": volume(cloud),
                "resampled": resampled,
            }
        )
    record.summary = posterior_summary(cloud)
    return record

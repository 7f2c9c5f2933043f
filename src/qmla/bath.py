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

from .smc import (
    RESAMPLE_A,
    PriorSpec,
    bayes_update,
    initialize_cloud,
    liu_west_resample,
    log_likelihood,
    posterior_summary,
    should_resample,
)
from .system import RecordedDataset, is_frozen_batch

__all__ = [
    "BathHyperparameters",
    "BathRealization",
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


def pseudospin(b0, b1, omega0: float, omega_j: float, tau: float) -> float:
    """Contribution of one bath spin to the echo signal.

    S_j = 1 - (|b0 x b1|^2 / (|b0|^2 |b1|^2)) sin^2(omega0 tau/2)
          sin^2(omega_j tau/2); the geometric prefactor is sin^2 of the angle
    between the fields, so S_j lies in [0, 1]: it equals 1 whenever the
    fields are parallel or tau hits a revival, and 0 when perpendicular
    fields meet both sine factors at 1.
    """
    b0 = np.asarray(b0, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    n0 = float(b0 @ b0)
    n1 = float(b1 @ b1)
    if n0 == 0.0 or n1 == 0.0:
        raise ValueError("field vectors must have non-zero norm")
    x0, y0, z0 = b0
    x1, y1, z1 = b1
    cross = np.array([y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1])
    geometric = float(cross @ cross) / (n0 * n1)
    return 1.0 - geometric * math.sin(omega0 * tau / 2.0) ** 2 * math.sin(
        omega_j * tau / 2.0
    ) ** 2


def hahn_signal(realization: BathRealization, b0, omega0: float, tau: float) -> float:
    """Pr(1|tau) = (prod_j S_j + 1)/2 over the realization's sites, each S_j a
    ``pseudospin`` in [0, 1], so the signal lies in [1/2, 1]; an empty bath
    gives 1."""
    product = 1.0
    for j in range(realization.n_spins):
        product *= pseudospin(
            b0, realization.fields[j], omega0, realization.frequencies[j], tau
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
    inverse-CDF transform, preserving common random numbers across particles.
    ``mu`` and ``sigma`` hold one particle per entry along their first axis."""
    from scipy import special

    return mu + sigma * _truncated_quantiles(special.ndtr(-mu / sigma), z_col)


def _truncated_quantiles(lo, z_col):
    """Standard-normal quantiles ``ndtri(lo + u * (1 - lo))`` of the shared
    uniforms ``u = ndtr(z_col)``, for particles whose truncated mass is ``lo``.

    When a particle's ``lo`` is below half the spacing of the smallest
    uniform (and below 2**-54, so ``1 - lo`` rounds to 1), ``lo + u * (1 -
    lo)`` rounds to ``u`` exactly: such particles share one ``ndtri`` per
    site, and only the others get their own, with the same bits as one per
    site and particle throughout.
    """
    from scipy import special

    u = special.ndtr(z_col)  # shared uniforms
    shallow = ~(lo < min(np.spacing(u.min()) / 2.0, 2.0**-54))
    if shallow.all():
        return special.ndtri(np.clip(lo + u * (1.0 - lo), 1e-12, 1.0 - 1e-12))
    shared = special.ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    if not shallow.any():
        return shared
    keep = np.flatnonzero(shallow)
    lo_keep = lo[keep]
    q = np.empty(np.broadcast_shapes(u.shape, lo.shape))
    q[...] = shared
    particle_axis = (Ellipsis, keep) + (slice(None),) * (lo.ndim - 1)
    q[particle_axis] = special.ndtri(
        np.clip(lo_keep + u * (1.0 - lo_keep), 1e-12, 1.0 - 1e-12)
    )
    return q


_columns_cache = (None, None)  # (frozen particle batch, its columns)


def _particle_columns(particles):
    """The draw-independent columns of a particle batch, each contiguous:
    b0 and the mean effective field by component, the floored spreads and
    bare frequency, the frequency mean ``mu``, ``n0 = |b0|^2`` and the
    truncated mass ``lo`` below zero.  They are reused while the same frozen
    batch is passed again, as ``cle_train`` passes ``cloud.locations``
    from one epoch to the next; a writable array or a view could have
    changed since the last call, so it is derived afresh."""
    global _columns_cache
    frozen = is_frozen_batch(particles)
    batch, columns = _columns_cache
    if frozen and particles is batch:
        return columns
    from scipy import special

    p = np.ascontiguousarray(np.atleast_2d(particles).T)
    sigma_b = np.maximum(p[6], 1e-9)
    omega0 = np.maximum(p[7], 1e-9)
    mu = omega0 + p[8]
    sigma_w = np.maximum(p[9], 1e-9)
    n0 = np.maximum(p[0] ** 2 + p[1] ** 2 + p[2] ** 2, 1e-12)
    lo = special.ndtr(-mu / sigma_w)
    columns = (*p[:6], sigma_b, omega0, mu, sigma_w, n0, lo)
    _columns_cache = (particles, columns) if frozen else (None, None)
    return columns


def hyper_signal_batch(particles: np.ndarray, tau, draws: np.ndarray) -> np.ndarray:
    """Echo probability at ``tau`` for a batch of hyperparameter vectors,
    marginalised over one bath realization built from shared draws.

    ``tau`` is a scalar, giving shape (n_particles,), or an array of T
    times, giving (n_particles, T); the per-site fields and frequencies are
    built once for all times.  Work arrays are contiguous and laid out
    sites x particles (times x sites x particles for the spins), and the
    cross product and norms are written out per component in the order
    ``np.cross`` and a length-3 sum use, so the result is bit-identical to
    that formulation.  Temporaries are overwritten in place; halving ``tau``
    first is exact, since scaling by 2 commutes with rounding.
    """
    b0x, b0y, b0z, *b1, sigma_b, omega0, mu, sigma_w, n0, lo = _particle_columns(
        particles
    )
    fx, fy, fz = (sigma_b * draws[:, k, None] for k in range(3))
    for f, mean in zip((fx, fy, fz), b1):
        f += mean
    freqs = sigma_w * _truncated_quantiles(lo, draws[:, 3, None])
    freqs += mu

    n1 = np.square(fx)
    tmp = np.square(fy)
    n1 += tmp
    n1 += np.square(fz, out=tmp)
    np.maximum(n1, 1e-12, out=n1)

    def squared_component(a, fa, b, fb, out):
        """(a * fa - b * fb) ** 2, written into ``out``."""
        np.multiply(a, fa, out=out)
        out -= np.multiply(b, fb, out=tmp)
        return np.square(out, out=out)

    geometric = squared_component(b0y, fz, b0z, fy, np.empty_like(n1))
    cross = np.empty_like(n1)
    geometric += squared_component(b0z, fx, b0x, fz, cross)
    geometric += squared_component(b0x, fy, b0y, fx, cross)
    n1 *= n0
    geometric /= n1

    tau = np.asarray(tau, dtype=float)
    half_taus = tau.reshape(-1, 1, 1) / 2.0
    s0 = np.square(np.sin(omega0 * half_taus))
    phases = freqs * half_taus
    np.square(np.sin(phases, out=phases), out=phases)
    spins = geometric * s0
    spins *= phases
    np.subtract(1.0, spins, out=spins)
    probs = np.prod(spins, axis=1)
    probs += 1.0
    probs /= 2.0
    return probs.T.reshape(n0.shape[0], *tau.shape)


def _hyper_log_likelihood(
    hyper_vec: np.ndarray,
    n_spins: int,
    dataset: RecordedDataset,
    eval_seed,
) -> np.ndarray:
    """Log-likelihood of each dataset row at one hyperparameter vector, using
    the fixed-seed realization shared by all evaluations of a run; shape
    (rows,).  Summing it over any multiset of row indices scores that data."""
    draws = _shared_draws(n_spins, eval_seed)
    probs = hyper_signal_batch(hyper_vec[None, :], dataset.times, draws)[0]
    return log_likelihood(probs, dataset.probabilities)


# ---------------------------------------------------------------------------
# classical likelihood estimation (SMC over hyperparameters)


@dataclass
class CleResult:
    hyper_mean: BathHyperparameters
    log_likelihood: float
    rows: np.ndarray  # dataset row replayed at each epoch
    row_log_likelihoods: np.ndarray  # per dataset row, at hyper_mean
    summary: object
    n_spins: int


def cle_train(
    dataset: RecordedDataset,
    n_spins: int,
    num_epochs: int,
    num_particles: int,
    rng: np.random.Generator,
    *,
    prior: PriorSpec = DEFAULT_BATH_PRIOR,
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
    slowly.  Returns the posterior mean, the indices of the rows replayed
    (one per epoch), and the posterior mean's log-likelihood of every
    dataset row at the realization of ``eval_seed`` together with their sum.
    """
    if n_spins < 1:
        raise ValueError("need at least one bath spin")
    if eval_seed is None:
        eval_seed = int(rng.integers(2**63))
    cloud = initialize_cloud(prior, num_particles, rng)
    rows = np.empty(num_epochs, dtype=np.intp)
    for epoch in range(num_epochs):
        idx = int(rng.integers(0, dataset.times.size))
        rows[epoch] = idx
        t = float(dataset.times[idx])
        value = float(dataset.probabilities[idx])
        draws = _shared_draws(n_spins, int(rng.integers(2**63)))
        probs = hyper_signal_batch(cloud.locations, t, draws)
        cloud = bayes_update(
            cloud, likelihood_power * log_likelihood(probs, value), epoch=epoch
        )
        if should_resample(cloud):
            cloud, _ = liu_west_resample(cloud, RESAMPLE_A, rng)
    summary = posterior_summary(cloud)
    hyper_mean = BathHyperparameters.from_vector(summary.mean)
    row_ll = _hyper_log_likelihood(hyper_mean.to_vector(), n_spins, dataset, eval_seed)
    return CleResult(
        hyper_mean=hyper_mean,
        log_likelihood=float(np.sum(row_ll)),
        rows=rows,
        row_log_likelihoods=row_ll,
        summary=summary,
        n_spins=n_spins,
    )


# ---------------------------------------------------------------------------
# Metropolis-Hastings over the spin count


@dataclass
class MhaTrace:
    """Step log of the spin-count walk plus the cumulative dataset: the
    indices of the dataset rows replayed by its fits, in replay order."""

    steps: list = field(default_factory=list)
    current_n: int = 1
    experiments: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
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
    likelihood_power: float = 100.0,
    log_likelihood_fn=None,
) -> MhaTrace:
    """Random-walk sampling of the bath spin count.

    Proposals move by +-1 (a move through either boundary proposes staying
    put, which keeps the proposal symmetric).  Each proposal is fitted by
    ``cle_train``, the rows it replayed join the cumulative dataset, and both
    the proposal and the current state are scored on the rows replayed so
    far; acceptance is min(1, exp(ll_proposal - ll_current)).  All scores
    use one realization seed, fixed for the run (common random numbers), so
    the walk settles where additional spins stop paying for themselves (the
    spin count carries no parameter-count penalty).  A fixed seed also keeps
    each fit's per-row log-likelihoods valid for the whole run: a score is
    their sum over the rows replayed, and the walk makes no likelihood
    evaluations of its own.  Supplying ``log_likelihood_fn`` replaces
    training with a deterministic map n -> log-likelihood, which samples the
    normalised exp(ll) distribution exactly.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if n_start < 1:
        raise ValueError("spin counts start at 1")
    trace = MhaTrace(current_n=n_start)
    eval_seed = int(rng.integers(2**63))

    def fit(n: int) -> CleResult:
        return cle_train(
            dataset,
            n,
            num_epochs,
            num_particles,
            np.random.default_rng(rng.spawn(1)[0]),
            prior=prior,
            eval_seed=eval_seed,
            likelihood_power=likelihood_power,
        )

    def score(result: CleResult) -> float:
        return float(np.sum(result.row_log_likelihoods[trace.experiments]))

    current = None
    if log_likelihood_fn is None:
        if dataset is None:
            raise ValueError("a dataset is required unless log_likelihood_fn is given")
        current = fit(n_start)
        trace.experiments = current.rows

    n = n_start
    for step_index in range(steps):
        delta = -1 if rng.random() < 0.5 else 1
        proposal = n + delta
        if proposal < 1 or (n_max is not None and proposal > n_max):
            proposal = n
        if log_likelihood_fn is not None:
            ll_prop = float(log_likelihood_fn(proposal))
            ll_cur = float(log_likelihood_fn(n))
            candidate = None
        elif proposal == n:
            ll_cur = ll_prop = score(current)
            candidate = current
        else:
            candidate = fit(proposal)
            trace.experiments = np.concatenate([trace.experiments, candidate.rows])
            ll_prop = score(candidate)
            ll_cur = score(current)
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
            n, current = proposal, candidate
        trace.current_n = n
    if current is not None:
        trace.final_hypers = current.hyper_mean.to_dict()
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
    from scipy import optimize

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
    from scipy import optimize

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

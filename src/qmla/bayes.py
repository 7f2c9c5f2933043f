"""Bayes-factor comparison of trained models on pooled training data.

The evidence for model i over model j is exp(l_i - l_j) where l is the
cumulative log-likelihood over the union of the two training datasets.
Working in log space keeps long products of small likelihoods stable, and
the union is canonically ordered so comparisons are exactly antisymmetric.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pauli import ModelExpression
from .smc import log_likelihood
from .system import HamiltonianModel

__all__ = [
    "TrainedModel",
    "BayesFactorResult",
    "union_dataset",
    "cumulative_log_likelihood",
    "bayes_factor",
    "min_particle_bound",
]

DEFAULT_EVIDENCE_THRESHOLD = 10.0


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A model expression with its learned parameters and training data."""

    expression: ModelExpression
    params: np.ndarray
    param_sds: np.ndarray
    experiments: tuple

    @classmethod
    def from_record(cls, expression: ModelExpression, record) -> "TrainedModel":
        return cls(
            expression=expression,
            params=np.asarray(record.final_params, dtype=float),
            param_sds=np.asarray(record.final_sds, dtype=float),
            experiments=tuple(record.experiments),
        )

    @property
    def name(self) -> str:
        return self.expression.name


@dataclass(frozen=True)
class BayesFactorResult:
    """log B_ij between two models, with the evidence direction at the
    configured threshold b: 'i' when log B > ln b, 'j' when < -ln b,
    else 'inconclusive'."""

    model_i: str
    model_j: str
    log_bayes_factor: float
    dataset_size: int
    direction: str

    @property
    def decisive(self) -> bool:
        return self.direction != "inconclusive"

    @property
    def winner(self) -> str | None:
        if self.direction == "i":
            return self.model_i
        if self.direction == "j":
            return self.model_j
        return None

    @property
    def loser(self) -> str | None:
        if self.direction == "i":
            return self.model_j
        if self.direction == "j":
            return self.model_i
        return None

    def to_dict(self) -> dict:
        return {
            "model_i": self.model_i,
            "model_j": self.model_j,
            "log_bayes_factor": float(self.log_bayes_factor),
            "dataset_size": int(self.dataset_size),
            "direction": self.direction,
        }


def union_dataset(*datasets) -> tuple:
    """Union of experiment lists, deduplicated by experiment identity
    (source, probe, time, outcome) and canonically ordered so the result is
    independent of argument order."""
    seen = {}
    for dataset in datasets:
        for experiment in dataset:
            seen.setdefault(experiment.key, experiment)
    return tuple(seen[k] for k in sorted(seen))


def cumulative_log_likelihood(
    expression: ModelExpression, params: np.ndarray, experiments
) -> float:
    """Sum of log Pr(datum | H(params), t) over a dataset, with the same
    likelihood clamp used during training.  An empty dataset contributes 0."""
    experiments = tuple(experiments)
    if not experiments:
        warnings.warn("cumulative log-likelihood of an empty dataset is 0")
        return 0.0
    model = HamiltonianModel(expression)
    probs = model.probabilities_over(params, [e.design for e in experiments])
    values = np.array([e.datum.value for e in experiments])
    return float(np.sum(log_likelihood(probs, values)))


def bayes_factor(
    model_i: TrainedModel,
    model_j: TrainedModel,
    *,
    evidence_threshold: float = DEFAULT_EVIDENCE_THRESHOLD,
    experiments=None,
) -> BayesFactorResult:
    """Compare two trained models on the union of their training datasets.

    Parameters stay fixed during evaluation; no learning happens here.  An
    explicit shared ``experiments`` sequence can replace the union.
    """
    if experiments is None:
        experiments = union_dataset(model_i.experiments, model_j.experiments)
    else:
        experiments = union_dataset(experiments)
    ll_i = cumulative_log_likelihood(model_i.expression, model_i.params, experiments)
    ll_j = cumulative_log_likelihood(model_j.expression, model_j.params, experiments)
    log_b = ll_i - ll_j
    log_threshold = math.log(evidence_threshold)
    if log_b > log_threshold:
        direction = "i"
    elif log_b < -log_threshold:
        direction = "j"
    else:
        direction = "inconclusive"
    return BayesFactorResult(
        model_i=model_i.name,
        model_j=model_j.name,
        log_bayes_factor=log_b,
        dataset_size=len(experiments),
        direction=direction,
    )


def min_particle_bound(
    smoothness: float,
    bayes_factor_scale: float,
    confidence: float,
    num_parameters: int,
    param_range: float,
    decision_gap: float,
) -> int:
    """Particle count sufficient for a stable comparison between two models:
    ceil(144 * kappa * B^2 * k^2 * d * L / gamma^2).

    ``smoothness`` bounds the likelihood gradient relative to its scale,
    ``bayes_factor_scale`` the evidence ratio being resolved, ``confidence``
    the Chebyshev multiplier, and ``decision_gap`` the separation of the
    evidence ratio from 1 that must survive Monte-Carlo error.
    """
    if decision_gap == 0:
        raise ValueError("decision_gap must be non-zero")
    for name, value in (
        ("smoothness", smoothness),
        ("bayes_factor_scale", bayes_factor_scale),
        ("confidence", confidence),
        ("num_parameters", num_parameters),
        ("param_range", param_range),
    ):
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    bound = (
        144.0
        * smoothness
        * bayes_factor_scale**2
        * confidence**2
        * num_parameters
        * param_range
        / decision_gap**2
    )
    return int(math.ceil(bound))

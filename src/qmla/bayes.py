"""Bayes-factor comparison of trained models on pooled training data.

The evidence for model i over model j is exp(l_i - l_j) where l is the
cumulative log-likelihood over the union of the two training datasets.
Working in log space keeps long products of small likelihoods stable, and
the union is sorted by row so comparisons are exactly antisymmetric.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .pauli import ModelExpression
from .smc import log_likelihood
from .system import ExperimentTable, HamiltonianModel

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
    experiments: ExperimentTable

    @classmethod
    def from_record(cls, expression: ModelExpression, record) -> "TrainedModel":
        return cls(
            expression=expression,
            params=np.asarray(record.final_params, dtype=float),
            param_sds=np.asarray(record.final_sds, dtype=float),
            experiments=record.experiments,
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
        return asdict(self)


def union_dataset(*datasets) -> ExperimentTable:
    """Union of experiment tables: rows equal in time, probe, readout and
    outcome count once, and rows are sorted, so the result does not depend on
    argument order.  (Source and shot count are fixed within a search.)"""
    rows = np.concatenate([d.rows() for d in datasets])
    return ExperimentTable.from_rows(np.unique(rows, axis=0))


def cumulative_log_likelihood(
    expression: ModelExpression, params: np.ndarray, experiments
) -> float:
    """Sum of log Pr(outcome | H(params), t) over an ``ExperimentTable``, with
    the same likelihood clamp used during training.  An empty table
    contributes 0."""
    if not len(experiments):
        warnings.warn("cumulative log-likelihood of an empty dataset is 0")
        return 0.0
    probs = HamiltonianModel(expression).probabilities_over(params, experiments)
    return float(np.sum(log_likelihood(probs, experiments.values)))


def bayes_factor(
    model_i: TrainedModel,
    model_j: TrainedModel,
    *,
    evidence_threshold: float = DEFAULT_EVIDENCE_THRESHOLD,
    experiments=None,
) -> BayesFactorResult:
    """Compare two trained models on the union of their training datasets.

    Parameters stay fixed during evaluation; no learning happens here.  An
    explicit shared ``experiments`` table can replace the union.
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

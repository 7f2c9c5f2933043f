"""Greedy model search over a layered DAG of candidate Hamiltonians.

Each layer holds models that extend the previous layer's champion by one
term from the active primitive stage.  Models are trained independently,
compared pairwise by Bayes factor to pick a layer champion, and spawning
continues until every stage is exhausted.  Surviving layer champions then
fight their parents (losers collapse their layer), the remainder are
consolidated into a global champion, and terms indistinguishable from zero
are pruned if the reduced model is decisively stronger.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .bayes import (
    TrainedModel,
    bayes_factor,
    cumulative_log_likelihood,
    union_dataset,
)
from .pauli import ModelExpression, parse_model, term_from_label
from .smc import PriorSpec, run_qhl
from .system import r_squared

__all__ = [
    "GrowthRule",
    "ModelNode",
    "SearchState",
    "InstanceResult",
    "spawn",
    "consolidate",
    "parental_consolidation",
    "reduced_model_check",
    "classify_result",
    "run_instance",
    "break_cycles",
    "to_dot",
    "DEFAULT_STAGES",
    "REDUCED_MODEL_THRESHOLD",
]

DEFAULT_STAGES = (("Sx", "Sy", "Sz"), ("Ax", "Ay", "Az"), ("Txy", "Txz", "Tyz"))
REDUCED_MODEL_THRESHOLD = 100.0


@dataclass(frozen=True)
class GrowthRule:
    """Staged primitive sets plus the evidence threshold for comparisons.

    Terms of a stage are added greedily, one per child, until the stage is
    exhausted; the search terminates when the last stage is consumed.
    """

    stages: tuple = DEFAULT_STAGES
    evidence_threshold: float = 10.0

    def __post_init__(self):
        object.__setattr__(
            self, "stages", tuple(tuple(stage) for stage in self.stages)
        )
        seen = set()
        for stage in self.stages:
            if not stage:
                raise ValueError("growth stages must be non-empty")
            for label in stage:
                term_from_label(label)
                if label in seen:
                    raise ValueError(f"term {label} appears in more than one stage")
                seen.add(label)

    def root_models(self) -> list:
        return [parse_model(label) for label in self.stages[0]]


@dataclass
class ModelNode:
    """One candidate model in the search graph."""

    expression: ModelExpression
    layer: int
    parent: str | None = None
    status: str = "active"  # active | pruned | layer_champion | global_champion
    trained: TrainedModel | None = None
    record: object = None
    score: int = 0

    @property
    def name(self) -> str:
        return self.expression.name


@dataclass
class SearchState:
    """Structural parentage plus the comparative Bayes-factor edges."""

    nodes: dict = field(default_factory=dict)  # name -> ModelNode
    layers: list = field(default_factory=list)  # list of name lists
    comparisons: list = field(default_factory=list)  # BayesFactorResult
    champion_set: list = field(default_factory=list)  # layer champion names

    def add_layer(self, models, parent: str | None) -> list:
        index = len(self.layers)
        names = []
        for expression in models:
            node = ModelNode(expression=expression, layer=index, parent=parent)
            self.nodes[node.name] = node
            names.append(node.name)
        self.layers.append(names)
        return names


@dataclass
class InstanceResult:
    champion_name: str
    champion_params: list
    champion_sds: list
    classification: str | None
    r2: float | None
    layers: list
    comparisons: list
    seed: list | None = None
    config_hash: str | None = None
    volumes: dict = field(default_factory=dict)
    champion_dynamics: dict = field(default_factory=dict)
    truth_name: str | None = None
    truth_num_params: int | None = None

    def to_dict(self) -> dict:
        return {
            "champion": {
                "name": self.champion_name,
                "params": self.champion_params,
                "sds": self.champion_sds,
            },
            "classification": self.classification,
            "r_squared": self.r2,
            "layers": self.layers,
            "comparisons": self.comparisons,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "volumes": self.volumes,
            "champion_dynamics": self.champion_dynamics,
            "truth": self.truth_name,
            "truth_num_params": self.truth_num_params,
        }


# ---------------------------------------------------------------------------
# spawn rule


def spawn(champion: ModelExpression, rule: GrowthRule) -> list:
    """Children of a champion: one new model per unconsumed term of the
    current stage; an exhausted stage advances to the next, and an empty
    return signals termination."""
    consumed = set(champion.term_labels)
    for stage in rule.stages:
        remaining = [label for label in stage if label not in consumed]
        if remaining:
            return [champion.with_extra_term(label) for label in remaining]
    return []


# ---------------------------------------------------------------------------
# consolidation


def consolidate(
    models: list,
    evidence_threshold: float,
) -> tuple:
    """All-pairs Bayes factors within a set of trained models.

    Every decisive win scores one point; the champion is the highest scorer,
    with ties broken by total log-likelihood on the pooled dataset, then by
    parsimony, then by name.  Returns (champion TrainedModel, scores dict,
    comparison list).
    """
    comparisons = []
    scores = {m.name: 0 for m in models}
    for mi, mj in itertools.combinations(models, 2):
        result = bayes_factor(mi, mj, evidence_threshold=evidence_threshold)
        comparisons.append(result)
        if result.winner is not None:
            scores[result.winner] += 1
    best = max(scores.values()) if scores else 0
    contenders = [m for m in models if scores[m.name] == best]
    if len(contenders) > 1:
        pooled = union_dataset(*(m.experiments for m in models))
        contenders.sort(
            key=lambda m: (
                -cumulative_log_likelihood(m.expression, m.params, pooled),
                m.expression.num_terms,
                m.name,
            )
        )
    return contenders[0], scores, comparisons


def parental_consolidation(
    state: SearchState, evidence_threshold: float, *, compare=bayes_factor
) -> list:
    """Compare each layer champion with its parent layer's champion; the
    decisive loser of each pair is pruned (collapsing its layer).  Returns
    the surviving champion names."""
    champions = [state.nodes[name] for name in state.champion_set]
    pruned = set()
    for parent_node, child_node in zip(champions, champions[1:]):
        result = compare(
            parent_node.trained,
            child_node.trained,
            evidence_threshold=evidence_threshold,
        )
        state.comparisons.append(result)
        if result.loser is not None:
            pruned.add(result.loser)
    survivors = [c.name for c in champions if c.name not in pruned]
    for name in pruned:
        state.nodes[name].status = "pruned"
    return survivors


def reduced_model_check(
    champion: TrainedModel,
    *,
    threshold: float = REDUCED_MODEL_THRESHOLD,
) -> tuple:
    """Drop terms whose posterior mean is within one sd of zero and keep the
    reduced model only if the evidence for it exceeds ``threshold``.

    The reduced model inherits the surviving learned parameters; it is not
    retrained.  Returns ``(model, result_or_None)``.
    """
    means = champion.params
    sds = champion.param_sds
    negligible = [
        term.label
        for term, mean, sd in zip(champion.expression.terms, means, sds)
        if abs(mean) < sd
    ]
    if not negligible or len(negligible) == champion.expression.num_terms:
        return champion, None
    keep = [
        i
        for i, term in enumerate(champion.expression.terms)
        if term.label not in negligible
    ]
    reduced = TrainedModel(
        expression=champion.expression.without_terms(negligible),
        params=means[keep],
        param_sds=sds[keep],
        experiments=champion.experiments,
    )
    result = bayes_factor(
        reduced, champion, evidence_threshold=threshold, experiments=champion.experiments
    )
    if result.log_bayes_factor > math.log(threshold):
        return reduced, result
    return champion, result


# ---------------------------------------------------------------------------
# comparative-graph hygiene


def break_cycles(comparisons: list) -> list:
    """Remove, per directed cycle among decisive edges, the edge with the
    smallest |log B|, leaving an acyclic evidence graph."""
    decisive = [c for c in comparisons if c.decisive]
    graph = nx.DiGraph()
    for c in decisive:
        graph.add_edge(c.loser, c.winner, weight=abs(c.log_bayes_factor), result=c)
    removed = set()
    while True:
        try:
            cycle = nx.find_cycle(graph)
        except nx.NetworkXNoCycle:
            break
        weakest = min(cycle, key=lambda e: graph.edges[e]["weight"])
        removed.add((weakest[0], weakest[1]))
        graph.remove_edge(weakest[0], weakest[1])
    kept = [c for c in comparisons if not c.decisive or (c.loser, c.winner) not in removed]
    return kept


def classify_result(champion: ModelExpression, truth: ModelExpression) -> str:
    """Correct / Under- / Over- / Mis-parameterised relative to a known truth."""
    champ, true = set(champion.term_labels), set(truth.term_labels)
    if champ == true:
        return "Correct"
    if len(champ) < len(true):
        return "Under-parameterised"
    if len(champ) > len(true):
        return "Over-parameterised"
    return "Mis-parameterised"


def to_dot(comparisons: list, nodes: dict | None = None) -> str:
    """DOT text of the comparative graph; edges point at the stronger model
    and carry log10 of the Bayes factor."""
    lines = ["digraph comparative {", "  rankdir=BT;"]
    names = set()
    for c in comparisons:
        names.update((c.model_i, c.model_j))
    for name in sorted(names):
        status = nodes[name].status if nodes and name in nodes else "active"
        shape = {
            "global_champion": "doubleoctagon",
            "layer_champion": "octagon",
        }.get(status, "ellipse")
        lines.append(f'  "{name}" [shape={shape}];')
    for c in comparisons:
        if c.winner is None:
            lines.append(
                f'  "{c.model_i}" -> "{c.model_j}" [dir=none, style=dashed, '
                f'label="{c.log_bayes_factor / math.log(10):.2f}"];'
            )
        else:
            lines.append(
                f'  "{c.loser}" -> "{c.winner}" '
                f'[label="{abs(c.log_bayes_factor) / math.log(10):.2f}"];'
            )
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# full instance


def run_instance(
    system,
    rule: GrowthRule,
    prior_range: tuple,
    num_epochs: int,
    num_particles: int,
    rng_seq: np.random.SeedSequence,
    *,
    truth: ModelExpression | None = None,
    eval_grid: int = 200,
    reduced_threshold: float = REDUCED_MODEL_THRESHOLD,
    tail_fraction: float = 0.1,
    tail_boost: float = 10.0,
    likelihood_power: float = 1.0,
) -> tuple:
    """One full search against a system oracle.

    Returns ``(InstanceResult, SearchState)``.  Training runs get independent
    child streams of ``rng_seq`` in spawn order, so results do not depend on
    scheduling.
    """
    state = SearchState()
    trained_names = set()
    current = state.add_layer(rule.root_models(), parent=None)

    def train(node: ModelNode) -> None:
        rng = np.random.default_rng(rng_seq.spawn(1)[0])
        prior = PriorSpec.uniform(
            node.expression.num_terms, prior_range[0], prior_range[1]
        )
        record = run_qhl(
            system,
            node.expression,
            prior,
            num_epochs,
            num_particles,
            rng,
            tail_fraction=tail_fraction,
            tail_boost=tail_boost,
            likelihood_power=likelihood_power,
        )
        node.record = record
        node.trained = TrainedModel.from_record(node.expression, record)
        trained_names.add(node.name)

    while current:
        for name in current:
            train(state.nodes[name])
        layer_models = [state.nodes[n].trained for n in current]
        champion, scores, comparisons = consolidate(
            layer_models, rule.evidence_threshold
        )
        state.comparisons.extend(comparisons)
        for name in current:
            state.nodes[name].score = scores[name]
            state.nodes[name].status = (
                "layer_champion" if name == champion.name else "pruned"
            )
        state.champion_set.append(champion.name)
        children = [
            expr
            for expr in spawn(state.nodes[champion.name].expression, rule)
            if expr.name not in trained_names
        ]
        current = (
            state.add_layer(children, parent=champion.name) if children else []
        )

    survivors = parental_consolidation(state, rule.evidence_threshold)
    final_models = [state.nodes[name].trained for name in survivors]
    global_champion, _, final_comparisons = consolidate(
        final_models, rule.evidence_threshold
    )
    state.comparisons.extend(final_comparisons)

    global_champion, reduction = reduced_model_check(
        global_champion, threshold=reduced_threshold
    )
    if reduction is not None:
        state.comparisons.append(reduction)
    if global_champion.name in state.nodes:
        state.nodes[global_champion.name].status = "global_champion"

    state.comparisons = break_cycles(state.comparisons)

    r2, dynamics = _evaluate_champion(system, global_champion, eval_grid)
    volumes = {
        name: [float(v) for v in state.nodes[name].record.volumes]
        for name in state.champion_set
    }
    result = InstanceResult(
        champion_name=global_champion.name,
        champion_params=[float(v) for v in global_champion.params],
        champion_sds=[float(v) for v in global_champion.param_sds],
        classification=(
            classify_result(global_champion.expression, truth) if truth else None
        ),
        r2=r2,
        layers=[
            {
                "index": i,
                "models": [
                    {
                        "name": n,
                        "status": state.nodes[n].status,
                        "score": state.nodes[n].score,
                        "params": [float(v) for v in state.nodes[n].trained.params],
                        "sds": [float(v) for v in state.nodes[n].trained.param_sds],
                    }
                    for n in names
                ],
                "champion": state.champion_set[i],
            }
            for i, names in enumerate(state.layers)
        ],
        comparisons=[c.to_dict() for c in state.comparisons],
        volumes=volumes,
        champion_dynamics=dynamics,
        truth_name=truth.name if truth else None,
        truth_num_params=truth.num_terms if truth else None,
    )
    return result, state


def _evaluate_champion(system, champion: TrainedModel, eval_grid: int) -> tuple:
    """Held-out fit quality of the champion against the system's noiseless
    dynamics (simulated) or the recorded data (replay), on deterministic
    fixed-probe designs."""
    from .system import HamiltonianModel

    dataset = getattr(system, "dataset", None)
    if dataset is not None:
        times = dataset.times
    else:
        times = np.linspace(0.0, system.max_time, eval_grid)
    designs = [system.nominal_design(float(t)) for t in times]
    observed = np.array([system.truth_probability(d) for d in designs])
    predicted = HamiltonianModel(champion.expression).probabilities_over(
        champion.params, designs
    )
    try:
        r2 = float(r_squared(predicted, observed))
    except ValueError:
        r2 = None
    dynamics = {
        "times": [float(t) for t in (d.time for d in designs)],
        "observed": [float(v) for v in observed],
        "predicted": [float(v) for v in predicted],
    }
    return r2, dynamics

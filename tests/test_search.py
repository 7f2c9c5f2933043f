import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmla.bayes import BayesFactorResult, TrainedModel
from qmla.pauli import parse_model
from qmla.search import (
    GrowthRule,
    ModelNode,
    SearchState,
    break_cycles,
    classify_result,
    consolidate,
    parental_consolidation,
    reduced_model_check,
    run_instance,
    spawn,
    to_dot,
)
from qmla.system import NoiseConfig, SimulatedSystem
from tests.test_system import table_of


def make_experiments(truth_name, params, times, rng, probe_policy="random"):
    """Noiseless data from a known model, as a training-style table."""
    truth = parse_model(truth_name)
    system = SimulatedSystem(
        truth, params, noise=NoiseConfig(probe_offset_sigma=0.0, shot_count=1),
        probe_policy=probe_policy,
    )
    designs = [system.new_design(t, rng) for t in times]
    return table_of(designs, [system.truth_probability(d) for d in designs])


def trained_on(name, params, experiments, sds=None):
    expr = parse_model(name)
    params = np.asarray(params, dtype=float)
    sds = np.full(expr.num_terms, 0.05) if sds is None else np.asarray(sds)
    return TrainedModel(
        expression=expr, params=params, param_sds=sds, experiments=experiments
    )


class TestSpawn:
    def test_stage_one_children(self):
        children = spawn(parse_model("Sz"), GrowthRule())
        assert sorted(c.name for c in children) == ["Sxz", "Syz"]

    def test_stage_advance(self):
        children = spawn(parse_model("Sxyz"), GrowthRule())
        assert sorted(c.name for c in children) == ["SxyzAx", "SxyzAy", "SxyzAz"]
        assert all(c.num_qubits == 2 for c in children)

    def test_exhaustion(self):
        assert spawn(parse_model("SxyzAxyzTxyxzyz"), GrowthRule()) == []

    def test_children_strictly_contain_parent(self):
        rule = GrowthRule()
        champion = parse_model("SxyzAz")
        for child in spawn(champion, rule):
            assert set(champion.term_labels) < set(child.term_labels)

    def test_default_rule_enumerates_18_models(self):
        rule = GrowthRule()
        total_layers, total_models = 0, 0
        frontier = rule.root_models()
        champion = None
        while frontier:
            total_layers += 1
            total_models += len(frontier)
            champion = frontier[0]  # any champion gives the same counts
            frontier = spawn(champion, rule)
        assert total_layers == 9
        assert total_models == 18
        assert champion.name == "SxyzAxyzTxyxzyz"

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="more than one stage"):
            GrowthRule(stages=(("Sx",), ("Sx",)))
        with pytest.raises(ValueError):
            GrowthRule(stages=(("Qx",),))


class TestConsolidate:
    def test_singleton(self):
        rng = np.random.default_rng(0)
        data = make_experiments("Sz", [2.0], np.linspace(0.1, 5, 30), rng)
        model = trained_on("Sz", [2.0], data)
        champion, scores, comparisons = consolidate([model], 10.0)
        assert champion.name == "Sz"
        assert scores == {"Sz": 0}
        assert comparisons == []

    def test_scoring_rule(self):
        rng = np.random.default_rng(1)
        data = make_experiments("Sz", [3.0], np.linspace(0.1, 6, 60), rng)
        winner = trained_on("Sz", [3.0], data)
        loser_b = trained_on("Sx", [3.0], data)
        loser_c = trained_on("Sy", [1.0], data)
        champion, scores, _ = consolidate([winner, loser_b, loser_c], 10.0)
        assert champion.name == "Sz"
        assert scores["Sz"] == 2

    def test_end_to_end_layer_championship(self):
        # data from sigma-z dynamics; the z-rotation model must win the layer
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([7, seed]))
            data = make_experiments(
                "Sz", [3.0], rng.uniform(0.2, 6.0, 80), rng
            )
            models = [
                trained_on("Sz", [3.0], data),
                trained_on("Sx", [2.0], data),
                trained_on("Sy", [4.0], data),
            ]
            champion, _, _ = consolidate(models, 10.0)
            wins += champion.name == "Sz"
        assert wins >= 18


class TestParentalConsolidation:
    def build_state(self, names):
        state = SearchState()
        for layer, name in enumerate(names):
            expr = parse_model(name)
            node = ModelNode(expression=expr, layer=layer)
            node.trained = trained_on(name, np.ones(expr.num_terms), ())
            state.nodes[name] = node
            state.layers.append([name])
            state.champion_set.append(name)
        return state

    def test_child_decisively_beats_parent(self):
        state = self.build_state(["Sz", "Syz"])

        def compare(parent, child, evidence_threshold):
            return BayesFactorResult(parent.name, child.name, -math.log(200.0), 1, "j")

        survivors = parental_consolidation(state, 10.0, compare=compare)
        assert survivors == ["Syz"]
        assert state.nodes["Sz"].status == "pruned"

    def test_inconclusive_keeps_both(self):
        state = self.build_state(["Sz", "Syz"])

        def compare(parent, child, evidence_threshold):
            return BayesFactorResult(parent.name, child.name, 0.5, 1, "inconclusive")

        survivors = parental_consolidation(state, 10.0, compare=compare)
        assert survivors == ["Sz", "Syz"]

    def test_chain_collapses_to_deepest(self):
        # synthetic comparison table: every child beats its parent
        names = [
            "Sx", "Sxy", "Sxyz",
            "SxyzAx", "SxyzAxy", "SxyzAxyz",
            "SxyzAxyzTxy", "SxyzAxyzTxyxz", "SxyzAxyzTxyxzyz",
        ]
        state = self.build_state(names)

        def compare(parent, child, evidence_threshold):
            return BayesFactorResult(parent.name, child.name, -math.log(1e6), 1, "j")

        survivors = parental_consolidation(state, 10.0, compare=compare)
        assert survivors == [names[-1]]


class TestReducedModelCheck:
    def test_all_parameters_significant(self):
        rng = np.random.default_rng(2)
        data = make_experiments("Sz", [3.0], np.linspace(0.1, 5, 40), rng)
        champion = trained_on("Sz", [3.0], data, sds=[0.01])
        model, result = reduced_model_check(champion)
        assert model is champion
        assert result is None

    def test_negligible_term_dropped_when_decisive(self):
        rng = np.random.default_rng(3)
        truth_params = [2.0, 3.0, 4.0, 1.5]
        data = make_experiments(
            "SxyzAz", truth_params, np.linspace(0.1, 8, 120), rng,
            probe_policy="plus",
        )
        # champion carries a spurious Ax term indistinguishable from zero
        champion = trained_on(
            "SxyzAxAz",
            [2.0, 3.0, 4.0, 0.8, 1.5],
            data,
            sds=[0.05, 0.05, 0.05, 1.0, 0.05],
        )
        model, result = reduced_model_check(champion)
        assert model.name == "SxyzAz"
        np.testing.assert_array_equal(model.params, [2.0, 3.0, 4.0, 1.5])
        assert result.log_bayes_factor > math.log(100.0)

    def test_threshold_blocks_marginal_reduction(self):
        rng = np.random.default_rng(4)
        truth_params = [2.0, 3.0, 4.0, 1.5]
        data = make_experiments(
            "SxyzAz", truth_params, np.linspace(0.1, 8, 40), rng,
            probe_policy="plus",
        )
        champion = trained_on(
            "SxyzAxAz",
            [2.0, 3.0, 4.0, 0.004, 1.5],
            data,
            sds=[0.05, 0.05, 0.05, 0.5, 0.05],
        )
        model, result = reduced_model_check(champion)
        assert model is champion
        assert 0.0 < abs(result.log_bayes_factor) < math.log(100.0)

    def test_never_empties_model(self):
        champion = trained_on("Sz", [0.001], (), sds=[1.0])
        model, result = reduced_model_check(champion)
        assert model is champion
        assert result is None


class TestCycleBreaking:
    def test_three_cycle_loses_weakest_edge(self):
        results = [
            BayesFactorResult("A", "B", math.log(1000.0), 10, "i"),
            BayesFactorResult("B", "C", math.log(500.0), 10, "i"),
            BayesFactorResult("C", "A", math.log(50.0), 10, "i"),  # weakest
        ]
        kept = break_cycles(results)
        assert len(kept) == 2
        assert all((c.model_i, c.model_j) != ("C", "A") for c in kept)

    def test_acyclic_untouched(self):
        results = [
            BayesFactorResult("A", "B", math.log(1000.0), 10, "i"),
            BayesFactorResult("A", "C", math.log(500.0), 10, "i"),
            BayesFactorResult("B", "C", 0.1, 10, "inconclusive"),
        ]
        assert break_cycles(results) == results



def _networkx_break_cycles(comparisons: list) -> list:
    """The networkx implementation of ``break_cycles`` that the graphlib one
    replaced, kept verbatim as the oracle."""
    nx = pytest.importorskip("networkx")
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


def _random_comparisons(rng) -> list:
    """2-7 models and up to four comparisons per model, drawn with
    replacement, so pairs repeat in both directions.  Half the log Bayes
    factors are small integers (many tied weights), half are continuous;
    |log B| <= 2 is inconclusive."""
    names = [f"M{k}" for k in rng.permutation(7)[: rng.integers(2, 8)]]
    comparisons = []
    for _ in range(rng.integers(0, 4 * len(names) + 1)):
        i, j = rng.choice(len(names), size=2, replace=False)
        if rng.random() < 0.5:
            log_b = float(rng.integers(-6, 7))
        else:
            log_b = float(rng.normal(0.0, 5.0))
        direction = "i" if log_b > 2.0 else "j" if log_b < -2.0 else "inconclusive"
        comparisons.append(BayesFactorResult(names[i], names[j], log_b, 10, direction))
    return comparisons


class TestBreakCycles:
    def test_matches_networkx_oracle(self):
        cut = 0
        for seed in range(10_000):
            comparisons = _random_comparisons(np.random.default_rng(seed))
            want = _networkx_break_cycles(comparisons)
            got = break_cycles(comparisons)
            assert len(got) == len(want) and all(
                a is b for a, b in zip(got, want)
            ), f"seed {seed}"
            cut += len(want) < len(comparisons)
        assert cut > 5_000  # over half the lists had a cycle to break

    def test_generator_covers_ties_repeats_and_inconclusive(self):
        ties = repeats = reversals = inconclusive = 0
        for seed in range(200):
            comparisons = _random_comparisons(np.random.default_rng(seed))
            weights = [abs(c.log_bayes_factor) for c in comparisons if c.decisive]
            ties += len(weights) > len(set(weights))
            edges = [(c.loser, c.winner) for c in comparisons if c.decisive]
            repeats += len(edges) > len(set(edges))
            reversals += any((b, a) in edges for a, b in edges)
            inconclusive += any(not c.decisive for c in comparisons)
        assert min(ties, repeats, reversals, inconclusive) > 50

    def test_import_leaves_networkx_out(self):
        code = "import sys, qmla; sys.exit('networkx' in sys.modules)"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestClassify:
    def test_correct(self):
        assert classify_result(parse_model("SxyzAz"), parse_model("SxyzAz")) == "Correct"

    def test_over(self):
        assert (
            classify_result(parse_model("SxyzAyz"), parse_model("SxyzAz"))
            == "Over-parameterised"
        )

    def test_under(self):
        assert (
            classify_result(parse_model("Sxy"), parse_model("SxyzAz"))
            == "Under-parameterised"
        )

    def test_mis(self):
        assert (
            classify_result(parse_model("SxyzAy"), parse_model("SxyzAz"))
            == "Mis-parameterised"
        )


class TestRunInstance:
    def test_stage_restricted_instance_finds_truth(self):
        rule = GrowthRule(stages=(("Sx", "Sy", "Sz"),))
        wins = 0
        for seed in range(20):
            system = SimulatedSystem(
                parse_model("Sz"),
                [3.0],
                probe_policy="random",
                noise=NoiseConfig(probe_offset_sigma=0.0),
            )
            result, state = run_instance(
                system,
                rule,
                (0.0, 10.0),
                150,
                400,
                np.random.SeedSequence([11, seed]),
                truth=parse_model("Sz"),
            )
            wins += result["champion"]["name"] == "Sz"
            assert len(state.layers) == 3
            assert sum(len(l) for l in state.layers) == 6
        assert wins >= 16

    def test_instance_result_structure(self):
        rule = GrowthRule(stages=(("Sx", "Sz"),))
        system = SimulatedSystem(
            parse_model("Sz"), [2.0], probe_policy="random",
            noise=NoiseConfig(probe_offset_sigma=0.0),
        )
        result, state = run_instance(
            system,
            rule,
            (0.0, 10.0),
            60,
            200,
            np.random.SeedSequence(5),
            truth=parse_model("Sz"),
        )
        for key in ("champion", "classification", "r_squared", "layers", "comparisons"):
            assert key in result
        assert result["champion"]["name"] in {"Sz", "Sxz", "Sx"}
        assert result["classification"] in {
            "Correct", "Over-parameterised", "Under-parameterised", "Mis-parameterised",
        }
        dot = to_dot(state.comparisons, state.nodes)
        assert "digraph" in dot and "->" in dot

    def test_instance_result_json_round_trip(self):
        rule = GrowthRule(stages=(("Sx", "Sz"),))
        system = SimulatedSystem(parse_model("Sz"), [2.0], probe_policy="random")
        result, _ = run_instance(
            system, rule, (0.0, 10.0), 30, 100, np.random.SeedSequence(6),
            truth=parse_model("Sz"),
        )
        assert json.loads(json.dumps(result)) == result
        assert result["comparisons"] and math.isfinite(result["r_squared"])

    def test_rounding_level_truth_records_no_r_squared(self):
        # |+> is an eigenstate of SxAx: the readout is 1 at every time, up to rounding
        system = SimulatedSystem(parse_model("SxAx"), [2.0, 1.0], probe_policy="random")
        rule = GrowthRule(stages=(("Sx", "Sz"),))
        result, _ = run_instance(
            system, rule, (0.0, 10.0), 20, 60, np.random.SeedSequence(17),
            truth=parse_model("SxAx"),
        )
        observed = np.array(result["champion_dynamics"]["observed"])
        assert np.ptp(observed) < 1e-12
        assert result["r_squared"] is None

    def test_no_model_trained_twice(self):
        rule = GrowthRule(stages=(("Sx", "Sy", "Sz"),))
        system = SimulatedSystem(
            parse_model("Sz"), [2.0], probe_policy="random",
            noise=NoiseConfig(probe_offset_sigma=0.0),
        )
        _, state = run_instance(
            system, rule, (0.0, 10.0), 40, 150, np.random.SeedSequence(9)
        )
        names = [n for layer in state.layers for n in layer]
        assert len(names) == len(set(names))

    def test_decisive_graph_is_acyclic(self):
        import networkx as nx

        rule = GrowthRule(stages=(("Sx", "Sy", "Sz"),))
        system = SimulatedSystem(
            parse_model("Sz"), [2.5], probe_policy="random",
            noise=NoiseConfig(probe_offset_sigma=0.0),
        )
        _, state = run_instance(
            system, rule, (0.0, 10.0), 60, 200, np.random.SeedSequence(21)
        )
        graph = nx.DiGraph()
        for c in state.comparisons:
            if c.decisive:
                graph.add_edge(c.loser, c.winner)
        assert nx.is_directed_acyclic_graph(graph)

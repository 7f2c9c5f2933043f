"""Walkthrough: the full greedy model search.

Candidate models grow layer by layer from single rotation terms, each layer
extending the previous champion by one primitive; trained models fight
pairwise Bayes-factor duels, layer champions fight their parents, and the
surviving champion is checked for negligible terms.
"""

import numpy as np

from qmla import GrowthRule, NoiseConfig, SimulatedSystem, parse_model, run_instance
from qmla.search import spawn, to_dot

# the staged primitive library and what it generates
rule = GrowthRule()
print("primitive stages:", rule.stages)
frontier = rule.root_models()
layer = 0
while frontier:
    print(f"  layer {layer}: " + ", ".join(m.name for m in frontier))
    frontier = spawn(frontier[0], rule)  # champion choice does not change counts
    layer += 1
print("(the actual champion of each layer steers which branch is explored)\n")

# run one desk-scale instance against a simulated two-qubit system
truth = parse_model("SxyzAz")
system = SimulatedSystem(
    truth, [2.8, 5.7, 1.6, 3.4], env_phase=0.9,
    noise=NoiseConfig(probe_offset_sigma=0.03),
)
result, state = run_instance(
    system,
    rule,
    prior_range=(0.0, 10.0),
    num_epochs=250,
    num_particles=500,
    rng_seq=np.random.SeedSequence(11),
    truth=truth,
    likelihood_power=100.0,
)

champion = result["champion"]
print(f"champion: {champion['name']}  ({result['classification']})")
for label, value, sd in zip(
    parse_model(champion["name"]).term_labels, champion["params"], champion["sds"]
):
    print(f"  {label}: {value:6.3f} +/- {sd:.3f}")
print(f"R^2 on the evaluation grid: {result['r_squared']:.3f}")

print("\nlayers and their champions:")
for layer in result["layers"]:
    names = ", ".join(m["name"] for m in layer["models"])
    print(f"  {layer['index']}: [{names}] -> {layer['champion']}")

with open("demo_comparative_graph.dot", "w", encoding="utf-8") as fh:
    fh.write(to_dot(state.comparisons, state.nodes))
print("\nwrote demo_comparative_graph.dot (render with `dot -Tpng`)")

"""Walkthrough: sequential Monte Carlo learning of model parameters.

A simulated spin system is probed at adaptively chosen evolution times;
a weighted particle cloud over the parameter vector is reweighted by each
outcome and resampled as it degenerates.  The spread (volume) of the cloud
collapses as the parameters localise.
"""

import numpy as np

from qmla import (
    ExperimentTable,
    NoiseConfig,
    PriorSpec,
    SimulatedSystem,
    parse_model,
    run_qhl,
)
from qmla.system import HamiltonianModel, phase_plus_state, plus_state

# --- one-parameter warm-up -------------------------------------------------
truth = parse_model("Sz")
system = SimulatedSystem(truth, [3.1], noise=NoiseConfig(probe_offset_sigma=0.0))
record = run_qhl(
    system, truth, PriorSpec.uniform(1, 0, 10), num_epochs=100,
    num_particles=1000, rng=np.random.default_rng(1),
)
est, sd = record.final_params[0], record.final_sds[0]
print(f"true rotation rate 3.1 rad/us -> learned {est:.4f} +/- {sd:.4f}")
print(f"posterior volume shrank {record.volumes[0] / record.volumes[-1]:.0f}x "
      f"over {len(record.epochs)} epochs")

# --- four parameters, two qubits -------------------------------------------
truth = parse_model("SxyzAz")
true_params = np.array([2.8, 5.7, 1.6, 3.4])
system = SimulatedSystem(truth, true_params, env_phase=1.3)
record = run_qhl(
    system, truth, PriorSpec.uniform(4, 0, 10), num_epochs=250,
    num_particles=500, rng=np.random.default_rng(2), likelihood_power=100.0,
)
print("\ntwo-qubit model", truth.name)
for label, t, e, s in zip(
    truth.term_labels, true_params, record.final_params, record.final_sds
):
    print(f"  {label}: true {t:4.1f}   learned {e:6.3f} +/- {s:.3f}")

# With a |+> probe this experiment family only resolves |Sx| and the two
# combinations Sy^2 + (Sz +/- Az)^2, so the learned vector may sit elsewhere
# on that equivalence set while reproducing the dynamics exactly:
ax, ay, az, azz = record.final_params
tx, ty, tz, tzz = true_params
print("  identifiable combinations (learned vs true):")
print(f"    |Sx|:                 {abs(ax):.3f} vs {abs(tx):.3f}")
print(f"    sqrt(Sy^2+(Sz+Az)^2): {np.hypot(ay, az + azz):.3f} vs {np.hypot(ty, tz + tzz):.3f}")
print(f"    sqrt(Sy^2+(Sz-Az)^2): {np.hypot(ay, az - azz):.3f} vs {np.hypot(ty, tz - tzz):.3f}")

# reproduce the dynamics on a dense grid, with the nominal |+> probe
model = HamiltonianModel(truth)
times = np.linspace(0.0, 10.0, 400)
plus = np.broadcast_to(plus_state(), (len(times), 2))
env = np.broadcast_to(phase_plus_state(system.env_phase), (len(times), 2))
observed = system.truth_probabilities(times, plus, env)
grid = ExperimentTable(times, plus, env, plus, observed)
predicted = model.probabilities_over(record.final_params, grid)
ss_res = np.sum((observed - predicted) ** 2)
ss_tot = np.sum((observed - observed.mean()) ** 2)
print(f"\nR^2 of reproduced dynamics over [0, 10] us: {1 - ss_res / ss_tot:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (top, bottom) = plt.subplots(2, 1, figsize=(7, 6))
    top.plot(times, observed, "r.", ms=2, label="system")
    top.plot(times, predicted, "c-", lw=1, label="learned model")
    top.set(xlabel="t (us)", ylabel="P(+)", title="reproduced dynamics")
    top.legend()
    bottom.semilogy(record.volumes)
    bottom.set(xlabel="epoch", ylabel="cloud volume", title="posterior collapse")
    fig.tight_layout()
    fig.savefig("demo_parameter_learning.png", dpi=120)
    print("wrote demo_parameter_learning.png")
except ImportError:
    pass

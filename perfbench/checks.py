"""Output checks against references written here, independent of qmla's
own kernels.  Each check is ``(name, ok, detail)``.

* ``kernel_checks``: ``HamiltonianModel.probabilities`` against
  ``scipy.linalg.expm`` of a Hamiltonian built from explicit Pauli products.
* ``bath_checks``: the log-likelihood ``cle_train`` reports for its fit,
  against a per-tau loop over the echo formula.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy import linalg, special

KERNEL_ATOL = 1e-9
BATH_RTOL = 1e-9

# one-qubit and two-qubit models; together they use every term family
KERNEL_MODELS = ("Sxyz", "SxyzAz", "SyAxTyz")

PAULI = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _term(label: str, num_qubits: int) -> np.ndarray:
    """S<a> acts on the system qubit, A<a> is a (x) a, T<ab> is a (x) b; the
    system qubit is the first tensor factor."""
    family, axes = label[0], label[1:]
    factors = {"S": axes, "A": axes * 2, "T": axes}[family]
    factors += "I" * (num_qubits - len(factors))
    out = np.array([[1.0 + 0j]])
    for axis in factors:
        out = np.kron(out, PAULI[axis])
    return out


def reference_probability(labels, num_qubits, params, design) -> float:
    """|<m| e^{-iHt} |psi>|^2, summed over the environment qubit."""
    H = sum(p * _term(label, num_qubits) for p, label in zip(params, labels))
    psi = design.probe_sys if num_qubits == 1 else np.kron(design.probe_sys, design.probe_env)
    amp = linalg.expm(-1j * H * design.time) @ psi
    readout = design.readout_sys / np.linalg.norm(design.readout_sys)
    overlap = readout.conj() @ amp.reshape(2, -1)
    return float(min(max(np.sum(np.abs(overlap) ** 2), 0.0), 1.0))


def kernel_checks(seed: int, *, particles: int = 24, designs: int = 4) -> list:
    """Sampled particles and designs, under both probe policies."""
    from qmla import SimulatedSystem, parse_model
    from qmla.system import HamiltonianModel

    rng = np.random.default_rng([seed, 101])
    checks = []
    for name in KERNEL_MODELS:
        expr = parse_model(name)
        labels = expr.term_labels
        model = HamiltonianModel(expr)
        cloud = rng.uniform(0.0, 10.0, size=(particles, expr.num_terms))
        for policy in ("plus", "random"):
            system = SimulatedSystem(
                expr, rng.uniform(0.0, 10.0, expr.num_terms),
                probe_policy=policy, env_phase=float(rng.uniform(0, 2 * math.pi)),
            )
            for _ in range(designs):
                design = system.new_design(float(rng.uniform(0.0, 20.0)), rng)
                got = model.probabilities(cloud, design)
                want = [reference_probability(labels, expr.num_qubits, p, design) for p in cloud]
                err = float(np.max(np.abs(np.asarray(got) - want)))
                checks.append((f"kernel {name} {policy} t={design.time:.3f}",
                               err <= KERNEL_ATOL, f"max |dp| = {err:.2e}"))
    return checks


def reference_bath_log_likelihood(hyper_vec, n_spins, times, values, eval_seed) -> float:
    """Sum over data of f log q + (1 - f) log(1 - q), one tau at a time.

    The bath realization is built from the run's shared draws: fields
    b1 + sigma_b z[:3], frequencies N(omega0 + delta, sigma_omega) truncated
    at 0 via z[3]; q(tau) = (prod_j S_j + 1) / 2 with
    S_j = 1 - sin^2(b0, b_j) sin^2(omega0 tau / 2) sin^2(omega_j tau / 2).
    """
    from qmla.smc import LIKELIHOOD_FLOOR

    b0, b1 = hyper_vec[0:3], hyper_vec[3:6]
    sigma_b, omega0, delta, sigma_w = (max(hyper_vec[6], 1e-9), max(hyper_vec[7], 1e-9),
                                       hyper_vec[8], max(hyper_vec[9], 1e-9))
    z = np.random.Generator(np.random.PCG64(eval_seed)).standard_normal((n_spins, 4))
    mu = omega0 + delta
    lo = special.ndtr(-mu / sigma_w)
    total = 0.0
    for tau, f in zip(times, values):
        product = 1.0
        for j in range(n_spins):
            field = b1 + sigma_b * z[j, :3]
            u = min(max(lo + special.ndtr(z[j, 3]) * (1.0 - lo), 1e-12), 1.0 - 1e-12)
            omega_j = mu + sigma_w * special.ndtri(u)
            cross = np.cross(b0, field)
            geometric = (cross @ cross) / (max(b0 @ b0, 1e-12) * max(field @ field, 1e-12))
            s = 1.0 - geometric * math.sin(omega0 * tau / 2) ** 2 * math.sin(omega_j * tau / 2) ** 2
            product *= min(max(s, -1.0), 1.0)
        q = min(max((product + 1.0) / 2.0, LIKELIHOOD_FLOOR), 1.0 - LIKELIHOOD_FLOOR)
        total += f * math.log(q) + (1.0 - f) * math.log1p(-q)
    return total


def bath_checks(seed: int, dataset, *, spins=(1, 3, 8), epochs: int = 10, particles: int = 200) -> list:
    """Short ``cle_train`` fits; each reports the log-likelihood of its
    posterior mean over the whole dataset."""
    from qmla import cle_train

    checks = []
    for n in spins:
        eval_seed = int(np.random.default_rng([seed, 202, n]).integers(2**63))
        fit = cle_train(dataset, n, epochs, particles, np.random.default_rng([seed, 203, n]),
                        eval_seed=eval_seed)
        want = reference_bath_log_likelihood(
            fit.hyper_mean.to_vector(), n, dataset.times, dataset.probabilities, eval_seed
        )
        rel = abs(fit.log_likelihood - want) / max(abs(want), 1e-300)
        checks.append((f"bath log-likelihood n={n}", bool(rel <= BATH_RTOL), f"rel diff = {rel:.2e}"))
    return checks


def tree_digest(root) -> str:
    """sha256 over the names and bytes of every file under ``root``."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()

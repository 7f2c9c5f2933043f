"""Spin Hamiltonians built from tensor products of Pauli operators.

Models are named sums of elementary interaction terms, each carrying one
real coefficient (units rad/us).  Three term families are supported:

* ``S<axis>`` -- rotation of the principal spin, e.g. ``Sx`` = sigma_x,
* ``A<axis>`` -- axial coupling to an environment qubit, ``Az`` = sigma_z (x) sigma_z,
* ``T<pair>`` -- transverse coupling, ``Txy`` = sigma_x (x) sigma_y.

A model containing only S terms acts on one qubit; any A or T term
promotes it to two qubits (S terms are then padded with the identity).
Model names are canonical and order-independent: families are listed
S, A, T and axes sorted x < y < z, so equality of models is equality
of their names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PauliTerm",
    "ModelExpression",
    "ModelParseError",
    "DimensionError",
    "parse_model",
    "term_matrix",
    "assemble_hamiltonian",
    "evolve_unitary",
    "MAX_QUBITS",
]

MAX_QUBITS = 12
HERMITIAN_ATOL = 1e-12

SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_FAMILY_RANK = {"S": 0, "A": 1, "T": 2}
_AXES = ("x", "y", "z")
_PAIRS = ("xy", "xz", "yz")


class ModelParseError(ValueError):
    """Raised for malformed or duplicated tokens in a model name."""


class DimensionError(ValueError):
    """Raised when a requested matrix dimension is unsupported."""


@dataclass(frozen=True)
class PauliTerm:
    """One elementary interaction term.

    ``family`` is one of ``S``/``A``/``T`` and ``axes`` the lowercase axis
    string (one character for S and A, an ordered pair such as ``xy`` for T).
    """

    family: str
    axes: str

    def __post_init__(self):
        if self.family not in _FAMILY_RANK:
            raise ModelParseError(f"unknown term family {self.family!r}")
        if self.family in ("S", "A") and self.axes not in _AXES:
            raise ModelParseError(
                f"invalid axis {self.axes!r} for family {self.family}"
            )
        if self.family == "T" and self.axes not in _PAIRS:
            raise ModelParseError(f"invalid axis pair {self.axes!r} for family T")

    @property
    def sort_key(self) -> tuple:
        return (_FAMILY_RANK[self.family], self.axes)

    @property
    def label(self) -> str:
        return self.family + self.axes

    @property
    def min_qubits(self) -> int:
        return 1 if self.family == "S" else 2

    def qubit_axes(self, num_qubits: int) -> tuple:
        """Per-qubit Pauli axes, identity-padded to ``num_qubits``."""
        if self.family == "S":
            axes = (self.axes,)
        elif self.family == "A":
            axes = (self.axes, self.axes)
        else:
            axes = (self.axes[0], self.axes[1])
        if len(axes) > num_qubits:
            raise DimensionError(
                f"term {self.label} needs {len(axes)} qubits, got {num_qubits}"
            )
        return axes + ("I",) * (num_qubits - len(axes))

    def __repr__(self) -> str:
        return f"PauliTerm({self.label!r})"


@dataclass(frozen=True)
class ModelExpression:
    """A named sum of Pauli terms with one coefficient slot per term."""

    terms: tuple
    name: str
    num_qubits: int

    @classmethod
    def from_terms(cls, terms) -> "ModelExpression":
        terms = tuple(sorted(terms, key=lambda t: t.sort_key))
        labels = [t.label for t in terms]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ModelParseError(f"duplicate term(s): {', '.join(dupes)}")
        if not terms:
            raise ModelParseError("a model needs at least one term")
        num_qubits = max(t.min_qubits for t in terms)
        return cls(terms=terms, name=_canonical_name(terms), num_qubits=num_qubits)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def term_labels(self) -> tuple:
        return tuple(t.label for t in self.terms)

    def with_extra_term(self, label: str) -> "ModelExpression":
        return ModelExpression.from_terms(self.terms + (term_from_label(label),))

    def without_terms(self, labels) -> "ModelExpression":
        drop = set(labels)
        kept = tuple(t for t in self.terms if t.label not in drop)
        return ModelExpression.from_terms(kept)

    def __repr__(self) -> str:
        return f"ModelExpression({self.name!r})"


def _canonical_name(terms) -> str:
    parts = []
    for family in ("S", "A", "T"):
        axes = "".join(t.axes for t in terms if t.family == family)
        if axes:
            parts.append(family + axes)
    return "".join(parts)


def term_from_label(label: str) -> PauliTerm:
    """Build a term from its label, e.g. ``"Sx"`` or ``"Txz"``."""
    if not label or label[0] not in _FAMILY_RANK:
        raise ModelParseError(f"unknown term label {label!r}")
    return PauliTerm(label[0], label[1:])


_SEPARATORS = re.compile(r"[\s_,\-]+")


def parse_model(name: str) -> ModelExpression:
    """Parse a model name into its expression.

    The grammar is ``S<axes>[A<axes>][T<axispairs>]`` with axes drawn from
    ``xyz`` and pairs from ``{xy, xz, yz}``; separator characters
    (space, ``_``, ``-``, ``,``) are ignored.  Raises ``ModelParseError``
    naming the offending token on malformed input, and on duplicate axes.
    """
    compact = _SEPARATORS.sub("", name)
    if not compact:
        raise ModelParseError("empty model name")
    terms = []
    last_rank = -1
    i = 0
    while i < len(compact):
        family = compact[i]
        if family not in _FAMILY_RANK:
            raise ModelParseError(f"unexpected token {family!r} in {name!r}")
        if _FAMILY_RANK[family] < last_rank:
            raise ModelParseError(
                f"family {family!r} out of order in {name!r} (expected S, A, T)"
            )
        last_rank = _FAMILY_RANK[family]
        i += 1
        start = i
        while i < len(compact) and compact[i] in "xyz":
            i += 1
        axes = compact[start:i]
        if not axes:
            raise ModelParseError(f"family {family!r} has no axes in {name!r}")
        if family in ("S", "A"):
            for axis in axes:
                terms.append(PauliTerm(family, axis))
        else:
            if len(axes) % 2:
                raise ModelParseError(
                    f"dangling axis {axes[-1]!r} in T block of {name!r}"
                )
            for j in range(0, len(axes), 2):
                pair = axes[j : j + 2]
                if pair not in _PAIRS:
                    raise ModelParseError(f"invalid T pair {pair!r} in {name!r}")
                terms.append(PauliTerm("T", pair))
    return ModelExpression.from_terms(terms)


def term_matrix(term: PauliTerm, num_qubits: int) -> np.ndarray:
    """Dense matrix of a term, identity-padded to ``num_qubits`` qubits."""
    if num_qubits > MAX_QUBITS:
        raise DimensionError(
            f"num_qubits={num_qubits} exceeds the dense-matrix cap of {MAX_QUBITS}"
        )
    if num_qubits < 1:
        raise DimensionError("num_qubits must be at least 1")
    out = np.array([[1.0 + 0.0j]])
    for axis in term.qubit_axes(num_qubits):
        out = np.kron(out, SINGLE_QUBIT[axis])
    return out


@lru_cache(maxsize=512)
def term_stack(expression: ModelExpression, num_qubits: int | None = None) -> np.ndarray:
    """Stacked term matrices of shape (n_terms, dim, dim), cached per model."""
    nq = expression.num_qubits if num_qubits is None else num_qubits
    stack = np.stack([term_matrix(t, nq) for t in expression.terms])
    stack.setflags(write=False)
    return stack


def assemble_hamiltonian(
    expression: ModelExpression, params, num_qubits: int | None = None
) -> np.ndarray:
    """H = sum_k params[k] * term_k, Hermitian by construction."""
    params = np.asarray(params, dtype=float)
    if params.shape != (expression.num_terms,):
        raise ValueError(
            f"parameter vector of length {params.shape} does not align with "
            f"{expression.num_terms} terms of {expression.name}"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError("parameters must be finite")
    return np.einsum("k,kij->ij", params, term_stack(expression, num_qubits))


def assemble_batch(
    expression: ModelExpression, params_batch: np.ndarray, num_qubits: int | None = None
) -> np.ndarray:
    """Hamiltonians for a batch of parameter vectors, shape (n, dim, dim)."""
    params_batch = np.asarray(params_batch, dtype=float)
    return np.einsum("nk,kij->nij", params_batch, term_stack(expression, num_qubits))


def check_hermitian(matrix: np.ndarray, atol: float = HERMITIAN_ATOL) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {matrix.shape}")
    if np.max(np.abs(matrix - matrix.conj().T)) > atol:
        raise ValueError("matrix is not Hermitian within tolerance")


def evolve_unitary(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """U = exp(-i H t) via Hermitian eigendecomposition.

    Eigendecomposition keeps U unitary to near machine precision at the small
    dimensions used here, which matters more than raw speed.
    """
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    check_hermitian(hamiltonian)
    evals, evecs = np.linalg.eigh(hamiltonian)
    return (evecs * np.exp(-1.0j * evals * t)) @ evecs.conj().T


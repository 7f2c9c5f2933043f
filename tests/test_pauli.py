import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmla.pauli import (
    DimensionError,
    ModelExpression,
    ModelParseError,
    SINGLE_QUBIT,
    assemble_batch,
    assemble_blocks,
    assemble_hamiltonian,
    environment_axis,
    evolve_unitary,
    parse_model,
    term_from_label,
    term_matrix,
    term_stack,
)
from qmla.search import GrowthRule, spawn

SX = SINGLE_QUBIT["x"]
SY = SINGLE_QUBIT["y"]
SZ = SINGLE_QUBIT["z"]
ALL_LABELS = ["Sx", "Sy", "Sz", "Ax", "Ay", "Az", "Txy", "Txz", "Tyz"]


class TestParse:
    def test_two_qubit_model(self):
        m = parse_model("SxyzAz")
        assert m.term_labels == ("Sx", "Sy", "Sz", "Az")
        assert m.num_qubits == 2
        assert m.name == "SxyzAz"

    def test_single_primitive(self):
        m = parse_model("Sz")
        assert m.num_terms == 1
        assert m.num_qubits == 1

    def test_full_model(self):
        m = parse_model("SxyzAxyzTxyxzyz")
        assert m.num_terms == 9
        assert m.num_qubits == 2

    def test_separators_ignored(self):
        assert parse_model("S_xyz A_z").name == "SxyzAz"
        assert parse_model("Sx,y,z-Az").name == "SxyzAz"

    def test_canonical_name_is_order_independent(self):
        m = ModelExpression.from_terms(
            [term_from_label("Az"), term_from_label("Sz"), term_from_label("Sx")]
        )
        assert m.name == "SxzAz"

    def test_malformed_token(self):
        with pytest.raises(ModelParseError, match="q"):
            parse_model("Sxq")
        with pytest.raises(ModelParseError):
            parse_model("Bz")
        with pytest.raises(ModelParseError, match="dangling"):
            parse_model("SxTxyx")
        with pytest.raises(ModelParseError, match="pair"):
            parse_model("SxTyx")

    def test_duplicate_axis(self):
        with pytest.raises(ModelParseError, match="duplicate"):
            parse_model("Sxx")

    @given(st.sets(st.sampled_from(ALL_LABELS), min_size=1, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, labels):
        m = ModelExpression.from_terms([term_from_label(l) for l in labels])
        assert parse_model(m.name) == m


class TestTermMatrix:
    def test_sz_single_qubit(self):
        np.testing.assert_array_equal(
            term_matrix(term_from_label("Sz"), 1), np.diag([1.0, -1.0])
        )

    def test_az_two_qubits(self):
        np.testing.assert_array_equal(
            term_matrix(term_from_label("Az"), 2), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_txy_matches_hand_kronecker(self):
        # oracle: explicit 2x2 Kronecker product, entry by entry
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        expected[2 * a + c, 2 * b + d] = SX[a, b] * SY[c, d]
        got = term_matrix(term_from_label("Txy"), 2)
        np.testing.assert_allclose(got, expected)
        anti = [got[0, 3], got[1, 2], got[2, 1], got[3, 0]]
        np.testing.assert_allclose(anti, [-1j, 1j, -1j, 1j])

    def test_identity_padding(self):
        np.testing.assert_array_equal(
            term_matrix(term_from_label("Sz"), 2), np.kron(SZ, np.eye(2))
        )

    def test_qubit_cap(self):
        with pytest.raises(DimensionError):
            term_matrix(term_from_label("Sz"), 13)
        with pytest.raises(DimensionError):
            term_matrix(term_from_label("Txy"), 1)

    def test_square_is_identity_and_traceless(self):
        for label in ALL_LABELS:
            P = term_matrix(term_from_label(label), 2)
            np.testing.assert_allclose(P @ P, np.eye(4), atol=1e-14)
            assert abs(np.trace(P)) < 1e-14
            np.testing.assert_allclose(P, P.conj().T)


class TestAssemble:
    def test_scalar_multiple(self):
        H = assemble_hamiltonian(parse_model("Sz"), [2.0])
        np.testing.assert_array_equal(H, np.diag([2.0, -2.0]))

    def test_zero_params(self):
        H = assemble_hamiltonian(parse_model("SxSz"), [0.0, 0.0])
        np.testing.assert_array_equal(H, np.zeros((2, 2)))

    def test_diagonal_sum_oracle(self):
        # oracle: entrywise sum of the two diagonal term matrices
        m = parse_model("SzAz")
        expected = 1.0 * np.kron(SZ, np.eye(2)) + 0.5 * np.kron(SZ, SZ)
        H = assemble_hamiltonian(m, [1.0, 0.5])
        np.testing.assert_allclose(H, expected)
        np.testing.assert_allclose(np.diag(H), [1.5, 0.5, -1.5, -0.5])

    def test_alignment_error(self):
        with pytest.raises(ValueError, match="align"):
            assemble_hamiltonian(parse_model("SxSz"), [1.0])

    def test_linearity(self):
        # exact in floating point for dyadic coefficients and integer params
        rng = np.random.default_rng(7)
        m = parse_model("SxyzAz")
        x = rng.integers(0, 10, 4).astype(float)
        y = rng.integers(0, 10, 4).astype(float)
        a, b = 2.0, -0.5
        np.testing.assert_array_equal(
            assemble_hamiltonian(m, a * x + b * y),
            a * assemble_hamiltonian(m, x) + b * assemble_hamiltonian(m, y),
        )
        z = rng.uniform(0, 10, 4)
        np.testing.assert_allclose(
            assemble_hamiltonian(m, 3.0 * z), 3.0 * assemble_hamiltonian(m, z),
            rtol=1e-13,
        )


def default_growth_models() -> list:
    """Every model the default growth rule can reach from its roots."""
    rule = GrowthRule()
    seen, frontier = {}, rule.root_models()
    while frontier:
        model = frontier.pop()
        if model.name not in seen:
            seen[model.name] = model
            frontier += spawn(model, rule)
    return sorted(seen.values(), key=lambda m: m.name)


class TestAssembleBatch:
    def test_default_growth_covers_every_stage(self):
        names = [m.name for m in default_growth_models()]
        assert len(names) == 21
        assert {"Sx", "Sxyz", "SxyzAz", "SxyzAxyz", "SxyzAxyzTxyxzyz"} <= set(names)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_bit_for_bit_with_einsum(self, scale):
        # compared as raw 64-bit words, so a sign of zero counts too
        rng = np.random.default_rng(17)
        for model in default_growth_models():
            params = rng.uniform(-scale, scale, (2000, model.num_terms))
            params[:50] = 0.0
            want = np.einsum("nk,kij->nij", params, term_stack(model))
            got = assemble_batch(model, params)
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "name, axis",
        [("SxyzAz", "z"), ("SyAz", "z"), ("SxyzAzTxzyz", "z"), ("SxyzAx", "x"),
         ("SxAyTxy", "y"), ("SxyzAxz", None), ("SyAxTyz", None), ("SxyzAxyzTxy", None),
         ("Sxyz", None)],
    )
    def test_environment_axis(self, name, axis):
        assert environment_axis(parse_model(name)) == axis

    @pytest.mark.parametrize("name, axis", [("SxyzAz", "z"), ("SxyzAx", "x"), ("SxAyTxy", "y"),
                                            ("SxyzAzTxzyz", "z")])
    def test_blocks_rebuild_the_hamiltonian(self, name, axis):
        # oracle: H = sum_s block_s (x) |b s><b s|, |b s> the eigenvectors of sigma_b
        rng = np.random.default_rng(19)
        model = parse_model(name)
        params = rng.uniform(-5, 5, (30, model.num_terms))
        evecs = np.linalg.eigh(SINGLE_QUBIT[axis])[1]
        projectors = [np.outer(v, v.conj()) for v in (evecs[:, 1], evecs[:, 0])]
        blocks = assemble_blocks(model, params)
        rebuilt = np.array([sum(np.kron(blocks[i, s], projectors[s]) for s in (0, 1))
                            for i in range(len(params))])
        np.testing.assert_allclose(rebuilt, assemble_batch(model, params), rtol=0, atol=1e-14)

    def test_blocks_need_a_conserved_axis(self):
        with pytest.raises(ValueError, match="conserved"):
            assemble_blocks(parse_model("SxyzAxz"), np.ones((2, 5)))


class TestEvolve:
    def test_diagonal_exponential(self):
        U = evolve_unitary(np.diag([1.0, -1.0]).astype(complex), np.pi)
        np.testing.assert_allclose(U, -np.eye(2), atol=1e-12)

    def test_identity_at_t0(self):
        H = assemble_hamiltonian(parse_model("SxyzAz"), [1.0, 2.0, 3.0, 0.5])
        np.testing.assert_allclose(evolve_unitary(H, 0.0), np.eye(4), atol=1e-14)

    def test_pauli_rotation_oracle(self):
        # oracle: exp(-i sx t) = cos(t) I - i sin(t) sx
        t = np.pi / 2
        expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SX
        np.testing.assert_allclose(evolve_unitary(SX, t), expected, atol=1e-12)
        np.testing.assert_allclose(evolve_unitary(SX, t), -1j * SX, atol=1e-12)

    def test_unitarity_random(self):
        rng = np.random.default_rng(11)
        m = parse_model("SxyzAxyzTxyxzyz")
        for _ in range(25):
            H = assemble_hamiltonian(m, rng.uniform(0, 10, 9))
            U = evolve_unitary(H, rng.uniform(0, 20))
            np.testing.assert_allclose(
                U.conj().T @ U, np.eye(4), atol=1e-10
            )

    def test_group_property(self):
        rng = np.random.default_rng(13)
        m = parse_model("SxyzAz")
        for _ in range(25):
            H = assemble_hamiltonian(m, rng.uniform(0, 10, 4))
            t1, t2 = rng.uniform(0, 10, 2)
            U = evolve_unitary(H, t1) @ evolve_unitary(H, t2)
            np.testing.assert_allclose(U, evolve_unitary(H, t1 + t2), atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_unitary(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            evolve_unitary(SZ, -1.0)

"""Register simulation checked against dense kron-product oracles."""

import numpy as np
import pytest

from conftest import PAULI, kron_qubits
from sesvqe import circuits as qc
from sesvqe import statevector as sv

RNG = np.random.default_rng(42)


def embed(matrix: np.ndarray, qubits, num_qubits: int) -> np.ndarray:
    """Oracle: full 2^n x 2^n operator via explicit index arithmetic.

    The first listed qubit indexes the least significant bit of ``matrix``.
    """
    dim = 2**num_qubits
    m = len(qubits)
    full = np.zeros((dim, dim), dtype=complex)
    others = [q for q in range(num_qubits) if q not in qubits]
    for col in range(dim):
        sub_col = sum(((col >> q) & 1) << pos for pos, q in enumerate(qubits))
        rest = sum(((col >> q) & 1) << q for q in others)
        for sub_row in range(2**m):
            row = rest
            for pos, q in enumerate(qubits):
                row |= ((sub_row >> pos) & 1) << q
            full[row, col] = matrix[sub_row, sub_col]
    return full


def random_state(num_qubits: int, rng=RNG) -> sv.StateVector:
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return sv.StateVector(num_qubits, raw / np.linalg.norm(raw))


def zero_state(num_qubits: int) -> sv.StateVector:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return sv.StateVector(num_qubits, amps)


def random_unitary(dim: int, rng=RNG) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def prepared(state: sv.StateVector, gate: qc.GateOp) -> qc.Circuit:
    """One-gate circuit run on ``state``: a full-register UNITARY prepares it from |0>."""
    n = state.num_qubits
    # QR of [state, e_1, ..., e_{d-1}] is a unitary whose first column is the
    # state up to a phase, fixed below (needs state[0] != 0)
    basis = np.column_stack([state.amplitudes, np.eye(2**n, dtype=complex)[:, 1:]])
    q, r = np.linalg.qr(basis)
    q[:, 0] *= r[0, 0] / abs(r[0, 0])
    return qc.Circuit(n, (qc.GateOp("UNITARY", tuple(range(n)), matrix=q), gate))


CCX = np.eye(8, dtype=complex)[:, [0, 1, 2, 7, 4, 5, 6, 3]]  # controls = the two low bits


class TestApplyGate:
    """Gate application through ``circuits.simulate`` on one-gate circuits."""

    def test_x_flips_qubit_zero(self):
        out = qc.simulate(qc.Circuit(2, (qc.GateOp("X", (0,)),)))
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_cnot_control_zero_target_one(self):
        # |01> (qubit 0 set) -> |11>
        circ = qc.Circuit(2, (qc.GateOp("X", (0,)), qc.GateOp("CNOT", (0, 1))))
        np.testing.assert_allclose(qc.simulate(circ).amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_cnot_idle_when_control_clear(self):
        circ = qc.Circuit(2, (qc.GateOp("X", (1,)), qc.GateOp("CNOT", (0, 1))))
        np.testing.assert_allclose(qc.simulate(circ).amplitudes, [0, 0, 1, 0], atol=1e-15)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5])
    def test_agrees_with_dense_oracle(self, num_qubits):
        rng = np.random.default_rng(7 + num_qubits)
        state = random_state(num_qubits, rng)
        for _ in range(6):
            m = int(rng.integers(1, min(3, num_qubits) + 1))
            qubits = tuple(int(q) for q in rng.choice(num_qubits, size=m, replace=False))
            gate = random_unitary(2**m, rng)
            got = qc.simulate(prepared(state, qc.GateOp("UNITARY", qubits, matrix=gate))).amplitudes
            want = embed(gate, qubits, num_qubits) @ state.amplitudes
            np.testing.assert_allclose(got, want, atol=1e-12)
            state = sv.StateVector(num_qubits, want / np.linalg.norm(want))

    def test_norm_preserved_over_long_sequence(self):
        rng = np.random.default_rng(3)
        gates = [
            qc.GateOp("UNITARY", tuple(int(q) for q in rng.choice(4, size=2, replace=False)),
                      matrix=random_unitary(4, rng))
            for _ in range(60)
        ]
        state = qc.simulate(qc.Circuit(4, tuple(gates)))
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            qc.GateOp("UNITARY", (0,), matrix=np.array([[1, 1], [0, 1]]))

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="exceeds width"):
            qc.Circuit(2, (qc.GateOp("X", (2,)),))
        with pytest.raises(ValueError, match="duplicate"):
            qc.GateOp("CNOT", (1, 1))

    def test_mcx_matches_embedded_permutation(self):
        rng = np.random.default_rng(11)
        state = random_state(4, rng)
        got = qc.simulate(prepared(state, qc.GateOp("MCX", (0, 2, 3)))).amplitudes
        ccx = embed(CCX, [0, 2, 3], 4)
        np.testing.assert_allclose(got, ccx @ state.amplitudes, atol=1e-13)


def measured_expectation(state: sv.StateVector, ops: str) -> float:
    """<P> for the Pauli string ``ops`` (letter q on qubit q) read off one product
    measurement: the outcome distribution in its bases (Z where ``ops`` has I),
    weighted by the parity of the non-identity qubits."""
    p = sv.measurement_distribution(state, ops.replace("I", "Z"))
    mask = sum(1 << q for q, letter in enumerate(ops) if letter != "I")
    parity = np.array([(-1) ** bin(i & mask).count("1") for i in range(p.size)])
    return float(parity @ p)


def pauli_operator(ops: str) -> np.ndarray:
    return kron_qubits([PAULI[letter] for letter in ops])


class TestExpectation:
    """Pauli expectations through the measurement rotations, against kron oracles."""

    def test_z_on_ground(self):
        assert measured_expectation(zero_state(1), "Z") == pytest.approx(1.0)

    def test_xx_on_symmetric_pair(self):
        state = sv.StateVector(2, np.array([0, 1, 1, 0]) / np.sqrt(2))
        assert measured_expectation(state, "XX") == pytest.approx(1.0, abs=1e-12)

    def test_xy_on_quarter_phase_pair(self):
        # (|01> + i|10>)/sqrt(2) against the brute-force 4x4 matrix
        amps = np.array([0, 1, 1j, 0]) / np.sqrt(2)
        got = measured_expectation(sv.StateVector(2, amps), "XY")
        dense = np.kron(PAULI["Y"], PAULI["X"])  # qubit 1 is the high bit
        want = np.vdot(amps, dense @ amps).real
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_random_strings_match_kron_oracle(self, num_qubits):
        rng = np.random.default_rng(20 + num_qubits)
        state = random_state(num_qubits, rng)
        for _ in range(8):
            ops = "".join(rng.choice(list("IXYZ"), size=num_qubits))
            want = np.vdot(state.amplitudes, pauli_operator(ops) @ state.amplitudes).real
            assert measured_expectation(state, ops) == pytest.approx(want, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            sv.measurement_distribution(zero_state(2), "Z")


class TestBasisRotationAndSampling:
    def test_ground_state_z_counts(self):
        hist = sv.sample_bitstrings(zero_state(1), "Z", 500, seed=1)
        assert hist.counts.tolist() == [500, 0]

    def test_plus_state_x_counts(self):
        plus = sv.StateVector(1, np.array([1, 1]) / np.sqrt(2))
        hist = sv.sample_bitstrings(plus, "X", 500, seed=2)
        assert hist.counts.tolist() == [500, 0]

    def test_y_eigenstate_counts(self):
        # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y
        state = sv.StateVector(1, np.array([1, 1j]) / np.sqrt(2))
        hist = sv.sample_bitstrings(state, "Y", 300, seed=3)
        assert hist.counts.tolist() == [300, 0]

    def test_binomial_frequency_within_five_sigma(self):
        plus = sv.StateVector(1, np.array([1, 1]) / np.sqrt(2))
        shots = 10_000
        hist = sv.sample_bitstrings(plus, "Z", shots, seed=4)
        freq = hist.counts[1] / shots
        sigma = 0.5 / np.sqrt(shots)
        assert abs(freq - 0.5) < 5 * sigma

    def test_sampling_determinism(self):
        state = random_state(3, np.random.default_rng(9))
        a = sv.sample_bitstrings(state, "XYZ", 2000, seed=17)
        b = sv.sample_bitstrings(state, "XYZ", 2000, seed=17)
        assert np.array_equal(a.counts, b.counts)
        c = sv.sample_bitstrings(state, "XYZ", 2000, seed=18)
        assert not np.array_equal(c.counts, a.counts)

    def test_distribution_reproduces_pauli_expectations(self):
        # <P> for a product basis equals sum over outcomes of (+-1 parity) * prob
        rng = np.random.default_rng(31)
        state = random_state(3, rng)
        for bases in ("ZZZ", "XXX", "XYX", "YZX"):
            p = sv.measurement_distribution(state, bases)
            got = 0.0
            for idx in range(8):
                parity = 1.0
                for q in range(3):
                    if (idx >> q) & 1:
                        parity = -parity
                got += parity * p[idx]
            want = np.vdot(state.amplitudes, pauli_operator(bases) @ state.amplitudes).real
            assert got == pytest.approx(want, abs=1e-12)

    def test_rotation_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            sv.rotate_to_measurement_basis(zero_state(1), "Q")

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sv.sample_bitstrings(zero_state(1), "Z", 0, seed=0)


class TestEmbedSites:
    def test_places_site_amplitudes(self):
        state = sv.embed_sites(np.array([0.6, 0.8j]), [1, 2], 2)
        np.testing.assert_allclose(state.amplitudes, [0, 0.6, 0.8j, 0], atol=0)

    def test_refuses_register_above_the_limit(self):
        n = sv.MAX_SIM_WIDTH + 1
        assert n == 23  # a missed guard would allocate 128 MB, not more
        with pytest.raises(ValueError, match="too wide"):
            sv.embed_sites(np.ones(n) / np.sqrt(n), 1 << np.arange(n), n)


class TestOverlapAndHelpers:
    def test_histogram_validation(self):
        with pytest.raises(ValueError, match="sum"):
            sv.ShotHistogram("MZ", np.array([3, 0]), 4)
        with pytest.raises(ValueError, match="2\\^width"):
            sv.ShotHistogram("MZ", np.array([4, 0, 0]), 4)
        with pytest.raises(ValueError, match="non-negative"):
            sv.ShotHistogram("MZ", np.array([5, -1]), 4)
        assert sv.ShotHistogram("MZ", np.array([1, 0, 3, 0]), 4).num_qubits == 2

    def test_state_validation(self):
        with pytest.raises(ValueError, match="normalized"):
            sv.StateVector(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            sv.StateVector(1, np.array([1.0, 0.0, 0.0]))

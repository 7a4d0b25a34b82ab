"""Circuit builders: the pair-rotation gate, the ansatz templates, the CNOT
cost model, and the compiled simulator against a per-gate dense kron oracle."""

import functools
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PAULI, kron_qubits, ses_cascade_loop
from sesvqe import circuits as qc
from sesvqe import encoding
from sesvqe import statevector as sv


def closed_form_a(beta: float, gamma: float) -> np.ndarray:
    """Oracle: the 4x4 matrix written out entry by entry.

    Basis order 00, 01, 10, 11 with the first listed qubit as the low bit.
    """
    c, s = math.cos(beta), math.sin(beta)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    mat[3, 3] = 1.0
    mat[1, 1] = c
    mat[2, 1] = np.exp(-1j * gamma) * s
    mat[1, 2] = np.exp(1j * gamma) * s
    mat[2, 2] = -c
    return mat


def product_form_a(beta: float, gamma: float) -> np.ndarray:
    """Oracle: the same gate assembled from scratch as its gate product."""
    ry = lambda t: np.array(
        [[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]],
        dtype=complex,
    )
    rz = lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
    cnot_01 = np.eye(4)[:, [0, 3, 2, 1]]  # control = low bit
    cnot_10 = np.eye(4)[:, [0, 1, 3, 2]]  # control = high bit
    r = rz(gamma + math.pi) @ ry(beta + math.pi / 2)
    low = lambda m: np.kron(np.eye(2), m)
    return cnot_01 @ low(r) @ cnot_10 @ low(r.conj().T) @ cnot_01


class TestAGate:
    def test_zero_angles(self):
        np.testing.assert_allclose(
            qc.a_gate_matrix(0.0, 0.0), np.diag([1, 1, -1, 1]), atol=1e-15
        )

    @pytest.mark.parametrize(
        "beta,gamma",
        [(0.3, 0.0), (0.0, 1.1), (1.2, -0.7), (math.pi / 4, math.pi / 2), (2.9, 3.0)],
    )
    def test_matches_both_oracles(self, beta, gamma):
        got = qc.a_gate_matrix(beta, gamma)
        np.testing.assert_allclose(got, closed_form_a(beta, gamma), atol=1e-14)
        np.testing.assert_allclose(got, product_form_a(beta, gamma), atol=1e-14)

    def test_unitary(self):
        mat = qc.a_gate_matrix(0.83, -2.4)
        np.testing.assert_allclose(mat.conj().T @ mat, np.eye(4), atol=1e-14)

    def test_stacks_over_angle_arrays(self):
        beta, gamma = np.array([0.3, 1.2, 2.9]), np.array([0.0, -0.7, 3.0])
        stack = qc.a_gate_matrix(beta, gamma)
        assert stack.shape == (3, 4, 4)
        for k in range(3):
            np.testing.assert_allclose(stack[k], product_form_a(beta[k], gamma[k]), atol=1e-14)

    def test_preserves_excitation_sectors(self):
        mat = qc.a_gate_matrix(1.0, 0.5)
        # |00> and |11> are fixed points; the single-excitation block is closed
        assert mat[0, 0] == pytest.approx(1.0)
        assert mat[3, 3] == pytest.approx(1.0)
        assert abs(mat[0, 1]) + abs(mat[0, 2]) + abs(mat[3, 1]) + abs(mat[3, 2]) < 1e-14

    def test_splitting_action(self):
        beta, gamma = 0.9, 1.7
        # X prepares |01>: the excitation sits on the first qubit
        circ = qc.Circuit(2, (qc.GateOp("X", (0,)), qc.GateOp("A", (0, 1))))
        out = qc.simulate(circ, [beta, gamma])
        assert out[1] == pytest.approx(math.cos(beta), abs=1e-14)
        assert out[2] == pytest.approx(
            np.exp(-1j * gamma) * math.sin(beta), abs=1e-14
        )


class TestOneHotAnsatz:
    def test_single_site(self):
        state = qc.simulate(qc.build_ses_circuit(1), [])
        np.testing.assert_allclose(state, [0.0, 1.0], atol=1e-15)

    def test_two_sites(self):
        beta, gamma = 0.6, -1.2
        state = qc.simulate(qc.build_ses_circuit(2), [beta, gamma])
        alpha = state[[1, 2]]
        assert alpha[0] == pytest.approx(math.cos(beta), abs=1e-14)
        assert alpha[1] == pytest.approx(np.exp(-1j * gamma) * math.sin(beta), abs=1e-14)

    @pytest.mark.parametrize("n_sites", [2, 3, 5, 8])
    def test_cascade_matches_dense_simulation(self, n_sites):
        rng = np.random.default_rng(100 + n_sites)
        params = rng.uniform(-np.pi, np.pi, size=2 * (n_sites - 1))
        state = qc.simulate(qc.build_ses_circuit(n_sites), params)
        alpha = state[1 << np.arange(n_sites)]
        want = qc.ses_site_amplitudes(n_sites, params)
        np.testing.assert_allclose(alpha, want, atol=1e-12)
        assert abs(np.sum(np.abs(alpha) ** 2) - 1.0) < 1e-12

    @settings(max_examples=200)
    @given(st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, 1e-300, 5e-324, -5e-324])
        | st.floats(-4.0, 4.0),
        min_size=2 * (n - 1), max_size=2 * (n - 1)))))
    # products that underflow to zero, where a zero sign could differ
    @example((3, [5e-324, math.pi, math.pi / 2, 0.0]))
    def test_cascade_bytes_equal_the_scalar_loop(self, case):
        n_sites, params = case
        got = qc.ses_site_amplitudes(n_sites, params)
        assert got.tobytes() == ses_cascade_loop(n_sites, params).tobytes()

    def test_cnot_budget(self):
        for n in (2, 5, 9):
            assert qc.build_ses_circuit(n).cnot_count == 3 * (n - 1)

    def test_param_shape_errors(self):
        with pytest.raises(ValueError, match="parameters"):
            qc.simulate(qc.build_ses_circuit(3), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            qc.build_ses_circuit(0)


class TestBinaryAnsatz:
    def test_layout_widths(self):
        narrow = qc.binary_register_layout(encoding.build_map(4))
        assert narrow == {
            "data": (0, 1),
            "flag_a": 2,
            "flag_b": 3,
            "helper": None,
            "width": 4,
        }
        wide = qc.binary_register_layout(encoding.build_map(8))
        assert wide["width"] == 6
        assert wide["helper"] == 5

    def test_zero_parameters_prepare_first_site(self):
        # all-zero angles leave the full amplitude on site 0
        state = qc.simulate(qc.build_binary_ses_circuit(4), np.zeros(6))
        alpha, leak = qc.binary_data_amplitudes(state, encoding.build_map(4))
        np.testing.assert_allclose(alpha, [1, 0, 0, 0], atol=1e-12)
        assert leak < 1e-12

    def test_two_sites(self):
        beta, gamma = 1.1, 0.4
        state = qc.simulate(qc.build_binary_ses_circuit(2), [beta, gamma])
        alpha, leak = qc.binary_data_amplitudes(state, encoding.build_map(2))
        want = qc.ses_site_amplitudes(2, [beta, gamma])
        assert leak < 1e-12
        ref = np.exp(-1j * np.angle(alpha[np.argmax(np.abs(alpha))]))
        ref_w = np.exp(-1j * np.angle(want[np.argmax(np.abs(want))]))
        np.testing.assert_allclose(alpha * ref, want * ref_w, atol=1e-12)

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 6, 8])
    def test_profile_matches_one_hot(self, n_sites):
        rng = np.random.default_rng(40 + n_sites)
        params = rng.uniform(-np.pi, np.pi, size=2 * (n_sites - 1))
        emap = encoding.build_map(n_sites)
        state = qc.simulate(qc.build_binary_ses_circuit(n_sites, emap), params)
        alpha, leak = qc.binary_data_amplitudes(state, emap)
        want = qc.ses_site_amplitudes(n_sites, params)
        assert leak < 1e-10
        np.testing.assert_allclose(np.abs(alpha), np.abs(want), atol=1e-10)
        # compare phases up to one global offset, on sites that carry weight
        live = np.abs(want) > 1e-6
        rel = np.angle(alpha[live] * np.conj(want[live]))
        spread = np.angle(np.exp(1j * (rel - rel[0])))
        np.testing.assert_allclose(spread, 0.0, atol=1e-9)

    def test_ancillas_return_to_zero(self):
        params = np.random.default_rng(5).uniform(-np.pi, np.pi, size=14)
        emap = encoding.build_map(8)
        state = qc.simulate(qc.build_binary_ses_circuit(8, emap), params)
        # ancilla qubits 3..5 clear: the weight on basis indices below 2^3
        weight = np.sum(np.abs(state[:8]) ** 2)
        assert weight == pytest.approx(1.0, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError, match="covers"):
            qc.build_binary_ses_circuit(4, encoding.build_map(8))
        with pytest.raises(ValueError):
            qc.build_binary_ses_circuit(0)

    @pytest.mark.parametrize(
        "words, site",
        [*((tuple(range(n)), 0) for n in (2, 3, 4, 5, 6, 7, 8, 12)),
         ((1, 0, 2, 3), 1), ((3, 0, 1), 1), ((1, 2, 0, 3, 4), 2)],
    )
    def test_codeword_zero_off_the_last_site_is_refused(self, words, site):
        # codeword 0 is also the unwritten register, so its unflag would fire
        # on the travelling branch and the output would be silently wrong
        n = len(words)
        emap = encoding.EncodingMap(n, encoding.register_width(n), words)
        with pytest.raises(ValueError, match=f"codeword 0 .* site {site} of {n}"):
            qc.build_binary_ses_circuit(n, emap)

    def test_maps_with_codeword_zero_last_or_unused_build_the_cascade(self):
        maps = [encoding.build_map(1, "plain"), encoding.EncodingMap(4, 2, (2, 1, 3, 0)),
                encoding.EncodingMap(6, 3, (5, 3, 1, 7, 2, 0))]
        maps += [encoding.build_map(n, "shifted") for n in range(1, 65)]
        for emap in maps:
            n = emap.n_sites
            params = np.random.default_rng(n).uniform(-np.pi, np.pi, size=2 * (n - 1))
            state = qc.simulate(qc.build_binary_ses_circuit(n, emap), params)
            alpha, leak = qc.binary_data_amplitudes(state, emap)
            assert leak < 1e-12, emap.codewords
            np.testing.assert_allclose(np.abs(alpha), np.abs(qc.ses_site_amplitudes(n, params)), atol=1e-12)



@pytest.mark.parametrize("shape", [(3, 2), (6, 1), (5,)])
@pytest.mark.parametrize(
    "run, refusal",
    [
        (lambda p: qc.simulate(qc.build_ses_circuit(4), p), "circuit takes a flat vector of 6 parameters"),
        (lambda p: qc.simulate(qc.build_binary_ses_circuit(4), p), "circuit takes a flat vector of 6 parameters"),
        (lambda p: qc.ses_site_amplitudes(4, p), "expected 6 parameters (beta,gamma pairs)"),
    ],
    ids=["one_hot", "binary", "cascade"],
)
def test_ses_templates_bind_only_the_flat_angle_vector(run, refusal, shape):
    # 4 sites: the flat vector of 6 angles is the one accepted form; the
    # (N-1, 2) rows of (beta, gamma) pairs are refused like any other shape
    params = np.linspace(0.1, 0.6, math.prod(shape)).reshape(shape)
    with pytest.raises(ValueError, match=re.escape(f"{refusal}, got shape {shape}")):
        run(params)
    if params.size == 6:
        run(params.reshape(-1))  # the same angles, flat, run


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", [0, -1])
def test_each_finiteness_caller_refuses_a_bad_first_or_last_angle(bad, position):
    # _check_finite is one reduction over every value: each of its callers
    # must still see a non-finite angle at either end, with its own message
    circuit = qc.build_hardware_efficient_circuit(2, 1)
    values = np.linspace(0.1, 0.4, 4)
    values[position] = bad
    with pytest.raises(ValueError, match=re.escape(f"circuit parameters must be finite, got {values!r}")):
        qc.simulate(circuit, values)
    angles = np.linspace(0.1, 0.6, 6)
    angles[position] = bad
    with pytest.raises(ValueError, match=re.escape(f"ansatz parameters must be finite, got {angles!r}")):
        qc.ses_site_amplitudes(4, angles)


@pytest.mark.parametrize(
    "run",
    [
        lambda p: qc.simulate(qc.build_ses_circuit(2), p),
        lambda p: qc.simulate(qc.build_binary_ses_circuit(2), p),
        lambda p: qc.ses_site_amplitudes(2, p),
    ],
    ids=["one_hot", "binary", "cascade"],
)
@pytest.mark.parametrize("angles", [np.array([0.3 + 1j, 0.1]), [0.3, 0.1 + 0j]], ids=["array", "list"])
def test_complex_angles_refused(run, angles):
    # a float cast once dropped the imaginary part with only a ComplexWarning,
    # and ran the state for beta = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="angles must be real, got dtype complex128"):
            run(angles)


class TestHardwareEfficientAnsatz:
    def test_zero_layers_is_identity(self):
        circ = qc.build_hardware_efficient_circuit(3, 0)
        assert circ.gates == ()
        state = qc.simulate(circ, [])
        np.testing.assert_allclose(state[0], 1.0)

    def test_zero_angles_fix_the_vacuum(self):
        state = qc.simulate(qc.build_hardware_efficient_circuit(2, 1), np.zeros(4))
        assert abs(state[0]) == pytest.approx(1.0, abs=1e-12)

    def test_cnot_ring_count(self):
        assert qc.build_hardware_efficient_circuit(3, 2).cnot_count == 6

    def test_single_qubit_has_no_entangler(self):
        assert qc.build_hardware_efficient_circuit(1, 2).cnot_count == 0

    def test_param_count_enforced(self):
        with pytest.raises(ValueError, match="parameters"):
            qc.simulate(qc.build_hardware_efficient_circuit(2, 1), np.zeros(5))
        with pytest.raises(ValueError):
            qc.build_hardware_efficient_circuit(0, 1)

    def test_reaches_generic_states(self):
        rng = np.random.default_rng(8)
        state = qc.simulate(qc.build_hardware_efficient_circuit(2, 2), rng.uniform(-2, 2, size=8))
        assert np.count_nonzero(np.abs(state) > 1e-3) > 1


class TestCostModel:
    def test_unit_costs(self):
        assert qc.GateOp("A", (0, 1)).cnot_cost() == 3
        assert qc.GateOp("CNOT", (0, 1)).cnot_cost() == 1
        assert qc.GateOp("X", (0,)).cnot_cost() == 0
        assert qc.GateOp("RY", (0,)).cnot_cost() == 0
        assert qc.GateOp("RZ", (0,)).cnot_cost() == 0

    def test_mcx_ladder(self):
        # k controls: 1 -> 1, 2 -> 6, k >= 3 -> (2k-3)*6
        costs = {}
        for k in (1, 2, 3, 4, 5):
            gate = qc.GateOp("MCX", tuple(range(k + 1)))
            costs[k] = gate.cnot_cost()
        assert costs == {1: 1, 2: 6, 3: 18, 4: 30, 5: 42}

    def test_binary_ansatz_totals(self):
        got = {n: qc.build_binary_ses_circuit(n).cnot_count for n in (4, 8)}
        assert got == {4: 46, 8: 198}

    def test_gate_counts_shape(self):
        counts = qc.gate_counts(qc.build_ses_circuit(4))
        assert counts["width"] == 4
        assert counts["cnot_count"] == 9
        assert counts["depth"] == 4  # X then three chained pair rotations

    def test_depth_parallelism(self):
        # disjoint single-qubit gates share a layer
        circ = qc.Circuit(2, (qc.GateOp("X", (0,)), qc.GateOp("X", (1,))))
        assert circ.depth == 1


def decomposed_angles(pairs) -> list:
    """The angles of a decomposed SES template: each A gate's (beta, gamma) as
    its four rotations' -(gamma + pi), -(beta + pi/2), beta + pi/2, gamma + pi."""
    out = []
    for beta, gamma in zip(pairs[::2], pairs[1::2]):
        out += [-(gamma + math.pi), -(beta + math.pi / 2.0), beta + math.pi / 2.0, gamma + math.pi]
    return out


class TestDecompose:
    def test_cnot_count_is_conserved(self):
        circ = qc.build_binary_ses_circuit(8)
        flat = qc.decompose(circ)
        assert flat.cnot_count == circ.cnot_count
        assert all(g.kind != "A" for g in flat.gates)
        assert flat.program.n_params == 2 * circ.program.n_params  # two rotations per angle

    @pytest.mark.parametrize("n_sites", [2, 4, 8])
    def test_state_is_preserved(self, n_sites):
        rng = np.random.default_rng(60 + n_sites)
        params = rng.uniform(-np.pi, np.pi, size=2 * (n_sites - 1))
        circ = qc.build_binary_ses_circuit(n_sites)
        a = qc.simulate(circ, params)
        b = qc.simulate(qc.decompose(circ), decomposed_angles(params.tolist()))
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_one_hot_decomposition_preserved(self):
        params = [0.7, -0.3, 1.9, 0.2]
        circ = qc.build_ses_circuit(3)
        a = qc.simulate(circ, params)
        b = qc.simulate(qc.decompose(circ), decomposed_angles(params))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_mcx_is_retained(self):
        gate = qc.GateOp("MCX", (0, 1, 2))
        assert qc.decompose(qc.Circuit(3, (gate,))).gates == (gate,)

    def test_packed_circuit_is_pinned_at_the_cnot_level(self):
        # sha256 of the decomposed gates' (kind, qubits), computed while gates
        # still carried angles, and each circuit's CNOT count, pinned when the
        # flag swap and the codeword write were SWAP and CPREP macros; the
        # packed builder now emits their CNOTs itself
        digest, cnots = hashlib.sha256(), []
        for n in range(1, 33):
            circ = qc.build_binary_ses_circuit(n, encoding.build_map(n))
            assert {g.kind for g in circ.gates} <= {"X", "A", "CNOT", "MCX"}
            digest.update(repr([(g.kind, g.qubits) for g in qc.decompose(circ).gates]).encode())
            cnots.append(circ.cnot_count)
        assert digest.hexdigest() == "a66d46ef5d194d377270b526a3c12d4f7a59f0cd8e4c49d603bcd93f242ddce2"
        assert cnots == [
            2, 9, 34, 46, 121, 147, 174, 198, 333, 371, 410, 448, 487, 526, 566, 602,
            845, 895, 946, 996, 1047, 1098, 1150, 1200, 1251, 1302, 1354, 1405, 1457, 1509, 1562, 1610,
        ]


class TestGateOpValidation:
    def test_arity(self):
        with pytest.raises(ValueError, match="expects"):
            qc.GateOp("CNOT", (0,))
        with pytest.raises(ValueError, match="at least"):
            qc.GateOp("MCX", (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError, match="duplicate"):
            qc.GateOp("CNOT", (1, 1))

    def test_a_gate_only_on_an_adjacent_pair(self):
        # a dense step is one run of adjacent qubits, low bit first
        for qubits in ((0, 2), (1, 0)):
            with pytest.raises(ValueError, match="adjacent"):
                qc.GateOp("A", qubits)

    def test_unknown_kind(self):
        # only the kinds the builders and decompose emit exist
        for kind, qubits in (("TOFFOLI", (0, 1, 2)), ("CCX", (0, 1, 2)), ("H", (0,)),
                             ("SDG", (0,)), ("SWAP", (0, 1)), ("CPREP", (2, 0, 1))):
            with pytest.raises(ValueError, match="unknown gate kind"):
                qc.GateOp(kind, qubits)

    def test_unitary_needs_matrix(self):
        # no gate carries a caller-supplied matrix: the UNITARY kind is
        # refused, and GateOp takes no matrix to build one from
        with pytest.raises(ValueError, match="unknown gate kind"):
            qc.GateOp("UNITARY", (0,))
        with pytest.raises(TypeError, match="matrix"):
            qc.GateOp("UNITARY", (0,), matrix=np.eye(2))

    def test_gates_hold_no_angles_and_take_slots_by_arity(self):
        # a gate is a kind and its qubits; the compiler gives each parametric
        # gate its next slots of the bound vector, RY/RZ one and A two
        with pytest.raises(TypeError):
            qc.GateOp("RY", (0,), (0.3,))
        circ = qc.Circuit(2, (qc.GateOp("RZ", (1,)), qc.GateOp("A", (0, 1)), qc.GateOp("X", (0,)),
                              qc.GateOp("RY", (0,)), qc.GateOp("A", (0, 1))))
        program = circ.program
        assert program.n_params == 6
        assert {kind: s.tolist() for kind, s in program.slots.items()} == {"RZ": [0], "A": [1, 4], "RY": [3]}

    def test_circuit_width_guard(self):
        with pytest.raises(ValueError, match="exceeds width"):
            qc.Circuit(1, (qc.GateOp("CNOT", (0, 1)),))

    def test_non_finite_angles_refused(self):
        for kind, qubits, params in [("RY", (0,), [np.nan]), ("RZ", (0,), [np.inf]),
                                     ("A", (0, 1), [0.1, -np.inf])]:
            with pytest.raises(ValueError, match="finite"):
                qc.simulate(qc.Circuit(2, (qc.GateOp(kind, qubits),)), params)
        with pytest.raises(ValueError, match="finite"):
            qc.simulate(qc.build_binary_ses_circuit(4), [0.1, np.nan, 0.2, 0.3, 0.4, 0.5])
        with pytest.raises(ValueError, match="finite"):
            qc.ses_site_amplitudes(3, [0.1, 0.2, np.inf, 0.3])


# ---------------------------------------------------------------------------
# compiled simulator against a per-gate dense oracle

def expm_hermitian(generator, t):
    """exp(-i t G) for a Hermitian G, through its eigendecomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def local_permutation(m, fn):
    mat = np.zeros((2**m, 2**m), dtype=complex)
    for col in range(2**m):
        mat[fn(col), col] = 1.0
    return mat


# angles each parametric gate takes from the bound vector
ARITY = {"RY": 1, "RZ": 1, "A": 2}


def local_matrix(gate, angles):
    """The gate's own 2^m x 2^m matrix at its ``angles``, first listed qubit = low bit."""
    m = len(gate.qubits)
    kind = gate.kind
    if kind in ("X", "CNOT", "MCX"):
        controls = (1 << (m - 1)) - 1
        return local_permutation(m, lambda i: i ^ (1 << (m - 1)) if i & controls == controls else i)
    if kind == "RY":
        return expm_hermitian(PAULI["Y"], angles[0] / 2)
    if kind == "RZ":
        return expm_hermitian(PAULI["Z"], angles[0] / 2)
    assert kind == "A", kind
    return product_form_a(*angles)


def kron_embed(local, qubits, width):
    """Full-register operator: sum over local entries of kron products of |r><c| factors."""
    m = len(qubits)
    full = np.zeros((2**width, 2**width), dtype=complex)
    for r in range(2**m):
        for c in range(2**m):
            if local[r, c] == 0:
                continue
            factors = [np.eye(2)] * width
            for pos, q in enumerate(qubits):
                factors[q] = np.outer(np.eye(2)[(r >> pos) & 1], np.eye(2)[(c >> pos) & 1])
            full += local[r, c] * kron_qubits(factors)
    return full


def oracle_state(circuit, params):
    """|0...0> through each gate's kron-embedded matrix, the parametric gates
    taking their angles from ``params`` in gate order."""
    angles = iter(params)
    psi = np.zeros(2**circuit.num_qubits, dtype=complex)
    psi[0] = 1.0
    for g in circuit.gates:
        local = local_matrix(g, [next(angles) for _ in range(ARITY.get(g.kind, 0))])
        psi = kron_embed(local, g.qubits, circuit.num_qubits) @ psi
    assert next(angles, None) is None
    return psi


ANGLE = st.floats(-math.pi, math.pi, allow_nan=False)


def bound(draw, circuit):
    """The circuit and one drawn angle per slot of its bound vector."""
    n = sum(ARITY.get(g.kind, 0) for g in circuit.gates)
    return circuit, draw(st.lists(ANGLE, min_size=n, max_size=n))


@st.composite
def gates(draw, width):
    """One of the six gate kinds; MCX takes up to three controls, A a pair (q, q + 1)."""
    kinds = ["X", "RY", "RZ"]
    if width >= 2:
        kinds += ["CNOT", "A", "MCX"]
    kind = draw(st.sampled_from(kinds))
    arity = {"X": 1, "RY": 1, "RZ": 1, "CNOT": 2, "A": 2}
    if kind in arity:
        m = arity[kind]
    else:  # MCX
        m = 1 + draw(st.integers(1, min(3, width - 1)))
    if kind == "A":
        low = draw(st.integers(0, width - 2))
        qubits = (low, low + 1)
    else:
        qubits = tuple(draw(st.permutations(range(width)))[:m])
    return qc.GateOp(kind, qubits)


@st.composite
def circuits(draw):
    """A circuit of up to 12 gates and a vector to bind to it."""
    width = draw(st.integers(1, 6))
    return bound(draw, qc.Circuit(width, tuple(draw(st.lists(gates(width), max_size=12)))))


@st.composite
def rotation_run_circuits(draw):
    """Runs of RY/RZ gates between other gates: a run may be a lone gate, repeat
    a qubit, touch only some qubits, or span more than one layer step of
    LAYER_WIDTH qubits; with a vector to bind to the circuit."""
    width = draw(st.integers(1, 7))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        touched = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
        for _ in range(draw(st.integers(1, 8))):
            kind = draw(st.sampled_from(["RY", "RZ"]))
            out.append(qc.GateOp(kind, (draw(st.sampled_from(touched)),)))
        out.extend(draw(st.lists(gates(width), max_size=2)))
    return bound(draw, qc.Circuit(width, tuple(out)))


class TestCompiledSimulator:
    @settings(max_examples=60)
    @given(circuits())
    def test_matches_per_gate_kron_oracle(self, case):
        circ, params = case
        got = qc.simulate(circ, params)
        np.testing.assert_allclose(got, oracle_state(circ, params), atol=1e-10)
        # binding the same angles again is the same run
        np.testing.assert_array_equal(qc.simulate(circ, params), got)

    @settings(max_examples=60)
    @given(rotation_run_circuits())
    def test_rotation_layers_match_per_gate_kron_oracle(self, case):
        circ, params = case
        assert any(isinstance(s, tuple) and s[2] == "layer" for s in circ.program.steps)
        got = qc.simulate(circ, params)
        np.testing.assert_allclose(got, oracle_state(circ, params), atol=1e-10)
        np.testing.assert_array_equal(qc.simulate(circ, params), got)

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(0, 2**16))
    def test_builder_templates_match_per_gate_kron_oracle(self, n_sites, seed):
        # each builder's documented angle order is the gate order simulate binds
        rng = np.random.default_rng(seed)
        pairs = rng.uniform(-np.pi, np.pi, size=2 * (n_sites - 1))
        nq, layers = encoding.register_width(n_sites), 2
        cases = [
            (qc.build_ses_circuit(n_sites), pairs),
            (qc.build_binary_ses_circuit(n_sites, encoding.build_map(n_sites, "shifted")), pairs),
            (qc.build_hardware_efficient_circuit(nq, layers), rng.uniform(-np.pi, np.pi, size=2 * nq * layers)),
        ]
        for template, params in cases:
            np.testing.assert_allclose(qc.simulate(template, params), oracle_state(template, params), atol=1e-10)

    @settings(max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    def test_first_column_equals_the_product_bit_for_bit(self, width, layers, data):
        # a leading X X is an identity gather, after which the first layer
        # step runs as a GEMM on a register that is no longer the untouched one
        angle = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]), st.floats(-7.0, 7.0))
        params = np.array(data.draw(st.lists(angle, min_size=2 * width * layers, max_size=2 * width * layers)))
        circuit = qc.build_hardware_efficient_circuit(width, layers)
        padded = qc.Circuit(width, (qc.GateOp("X", (0,)), qc.GateOp("X", (0,)), *circuit.gates))
        assert isinstance(padded.program.steps[0], np.ndarray)
        assert qc.simulate(circuit, params).tobytes() == qc.simulate(padded, params).tobytes()

    def test_output_bytes_are_pinned(self):
        # sha256 of the amplitude bytes: the binary_ses case at a commit that
        # applied dense gates through a general axis-permuting kernel, the
        # hardware-efficient case since its rotation layers became one
        # kron-built step each; the simulator must keep its rounding to the
        # last bit, so fixed-seed traces do not move.  The 4-qubit case runs
        # one whole-register step per layer and the 5-qubit case two
        # overlapping steps, both pinned before the layers were built from
        # per-qubit factors
        emap = encoding.build_map(5, "shifted")
        cases = (
            (qc.build_hardware_efficient_circuit(3, 3), np.linspace(-2.9, 3.1, 18),
             "ae996746d88a00cfccf62eaf0123aa3b1dcdb5096bafad5cc9b57d7c0cbb73c7"),
            (qc.build_hardware_efficient_circuit(4, 4), np.linspace(-2.9, 3.1, 32),
             "8a7b088ceb2be2569ae6f9124dca852e7dfed5924b5bdaf3372499416822236f"),
            (qc.build_hardware_efficient_circuit(5, 2), np.linspace(-2.9, 3.1, 20),
             "8edd512a54b4c643fc789f6178b1ee164dd6e03c3a0cd12fe75fd139c7fc00dc"),
            (qc.build_binary_ses_circuit(5, emap), np.linspace(-1.0, 2.0, 8),
             "74edae78d6af29412c2bc7ec066e66edb94f14e4820ac6a85d0a150f8d8144c5"),
        )
        for circ, params, want in cases:
            got = qc.simulate(circ, params)
            np.testing.assert_allclose(got, oracle_state(circ, params), atol=1e-10)
            assert hashlib.sha256(got.tobytes()).hexdigest() == want

    def test_program_is_built_once_and_fuses_permutations(self):
        circ = qc.build_binary_ses_circuit(8)
        assert circ.program is circ.program
        # 66 of the 73 gates are permutations: X, then one gather after each A
        assert len(circ.gates) == 73
        assert len(circ.program.steps) == 15
        assert sum(isinstance(s, np.ndarray) for s in circ.program.steps) == 8

    @pytest.mark.parametrize("n, layers", [(1, 3), (2, 1), (3, 2), (4, 3), (5, 2), (8, 2), (9, 1)])
    def test_hardware_efficient_layer_is_one_step(self, n, layers):
        # each layer's 2n rotations are one kron-built step per LAYER_WIDTH
        # qubits, and its CNOT ring one gather; a 1-qubit circuit is one run
        steps = qc.build_hardware_efficient_circuit(n, layers).program.steps
        dense = [s for s in steps if isinstance(s, tuple)]
        assert {s[2] for s in dense} == {"layer"}
        if n == 1:
            assert len(steps) == 1
            return
        assert len(dense) == layers * math.ceil(n / qc.LAYER_WIDTH)
        assert sum(isinstance(s, np.ndarray) for s in steps) == layers
        if n <= qc.LAYER_WIDTH:
            assert [isinstance(s, tuple) for s in steps] == [True, False] * layers

    def test_matrices_are_the_stacks_the_steps_apply(self):
        # the RY and RZ stacks go straight into the layer factors
        cases = (
            (qc.build_ses_circuit(4), {"A"}),
            (qc.build_hardware_efficient_circuit(3, 2), {"layer"}),
            (qc.Circuit(2, (qc.GateOp("RZ", (1,)), qc.GateOp("A", (0, 1)))), {"A", "layer"}),
            (qc.build_binary_ses_circuit(1), set()),
        )
        for circ, want in cases:
            program = circ.program
            assert set(program.matrices(np.zeros(program.n_params))) == want

    def test_parameter_count_and_finiteness_refused(self):
        template = qc.build_ses_circuit(3)
        with pytest.raises(ValueError, match=re.escape("takes a flat vector of 4 parameters, got shape (3,)")):
            qc.simulate(template, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="finite"):
            qc.simulate(template, [0.1, np.nan, 0.3, 0.4])

    @settings(max_examples=40)
    @given(rotation_run_circuits(), st.integers(0, 2**16))
    def test_layer_matrices_are_the_kron_of_their_factors(self, case, seed):
        program = case[0].program
        values = np.random.default_rng(seed).uniform(-np.pi, np.pi, program.n_params)
        factors = program.factors(values)
        layer_steps = [s for s in program.steps if isinstance(s, tuple) and s[2] == "layer"]
        assert factors.shape == (len(layer_steps), min(qc.LAYER_WIDTH, program.num_qubits), 2, 2)
        applied = program.matrices(values)["layer"]
        for step, mat in zip(factors, applied):
            # qubit low + j is bit j, so the highest qubit is the outer factor
            kron = functools.reduce(lambda inner, outer: np.kron(outer, inner), step)
            assert kron.tobytes() == mat.tobytes()

    def test_factor_tolerance_keeps_the_layer_within_the_matrix_tolerance(self):
        # a kron of w factors within delta of unitary is within (1 + delta)^(2w) - 1
        assert (1 + qc._FACTOR_TOL) ** (2 * qc.LAYER_WIDTH) - 1 <= qc._UNITARY_TOL

    @pytest.mark.parametrize("entry", [2.0, np.nan])
    @pytest.mark.parametrize(
        "kind, circ, match",
        [
            ("A", qc.build_ses_circuit(3), "A gate matrix"),
            ("RY", qc.Circuit(2, (qc.GateOp("RY", (1,)),)), "rotation layer factor"),
            ("RZ", qc.Circuit(2, (qc.GateOp("RZ", (0,)),)), "rotation layer factor"),
            ("RY", qc.build_hardware_efficient_circuit(3, 2), "rotation layer factor"),
            ("RZ", qc.build_hardware_efficient_circuit(3, 2), "rotation layer factor"),
        ],
        ids=["A", "RY", "RZ", "RY-layer", "RZ-layer"],
    )
    def test_each_evaluation_checks_unitarity(self, monkeypatch, kind, circ, match, entry):
        # one broken gate matrix makes its A step, or the per-qubit factor it
        # joins, non-unitary
        if kind == "A":
            real_a = qc.a_gate_matrix

            def broken_a(*angles):
                mats = real_a(*angles)
                mats[..., 1, 1] = entry
                return mats

            monkeypatch.setattr(qc, "a_gate_matrix", broken_a)
        else:
            real = qc._rotation_gates
            # the stack is (identity, RY..., RZ...): break the kind's first gate
            ry_gates = len(circ.program.slots.get("RY", ()))
            first = 1 + (ry_gates if kind == "RZ" else 0)

            def broken(values, slots):
                gates = real(values, slots)
                gates[first, 1, 1] = entry
                return gates

            monkeypatch.setattr(qc, "_rotation_gates", broken)
        with pytest.raises(ValueError, match=f"{match} is not unitary"):
            qc.simulate(circ, np.full(circ.program.n_params, 0.5))

    def test_norm_check_refuses_a_broken_rotation_layer(self, monkeypatch):
        # with the unitarity check out of the way, the norm check after the
        # fused step still stops the run
        real = qc._rotation_gates
        monkeypatch.setattr(qc, "_rotation_gates", lambda values, slots: 1.5 * real(values, slots))
        monkeypatch.setattr(qc, "_check_unitary", lambda mats, what, tol: None)
        circ = qc.build_hardware_efficient_circuit(3, 2)
        with pytest.raises(ValueError, match=r"rotation layer on \(0, 1, 2\) broke the norm"):
            qc.simulate(circ, np.full(12, 0.5))

    def test_too_wide_refused_before_allocation(self):
        with pytest.raises(ValueError, match="too wide"):
            qc.simulate(qc.Circuit(sv.MAX_SIM_WIDTH + 1, ()), [])

"""Register simulation checked against dense kron-product oracles."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scipy import stats

from conftest import PAULI, dense_register, kron_qubits, measurement_distribution, outcome_counts
from sesvqe import circuits as qc
from sesvqe import encoding
from sesvqe import measurement as meas
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


def random_state(num_qubits: int, rng=RNG) -> np.ndarray:
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return raw / np.linalg.norm(raw)


def zero_state(num_qubits: int) -> np.ndarray:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


CCX = np.eye(8, dtype=complex)[:, [0, 1, 2, 7, 4, 5, 6, 3]]  # controls = the two low bits


class TestApplyGate:
    """Permutation gates through ``circuits.simulate`` against the
    index-arithmetic oracle; ``test_circuits.TestCompiledSimulator`` checks
    the dense steps against a kron oracle."""

    def test_x_flips_qubit_zero(self):
        out = qc.simulate(qc.Circuit(2, (qc.GateOp("X", (0,)),)), [])
        np.testing.assert_allclose(out, [0, 1, 0, 0], atol=1e-15)

    def test_cnot_control_zero_target_one(self):
        # |01> (qubit 0 set) -> |11>
        circ = qc.Circuit(2, (qc.GateOp("X", (0,)), qc.GateOp("CNOT", (0, 1))))
        np.testing.assert_allclose(qc.simulate(circ, []), [0, 0, 0, 1], atol=1e-15)

    def test_cnot_idle_when_control_clear(self):
        circ = qc.Circuit(2, (qc.GateOp("X", (1,)), qc.GateOp("CNOT", (0, 1))))
        np.testing.assert_allclose(qc.simulate(circ, []), [0, 0, 1, 0], atol=1e-15)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="exceeds width"):
            qc.Circuit(2, (qc.GateOp("X", (2,)),))
        with pytest.raises(ValueError, match="duplicate"):
            qc.GateOp("CNOT", (1, 1))

    def test_mcx_matches_embedded_permutation(self):
        # a permutation is fixed by its action on the basis: X gates prepare
        # each basis state, then the MCX must move it as the embedded CCX does
        ccx = embed(CCX, [0, 2, 3], 4)
        for b in range(16):
            prep = tuple(qc.GateOp("X", (q,)) for q in range(4) if b >> q & 1)
            got = qc.simulate(qc.Circuit(4, prep + (qc.GateOp("MCX", (0, 2, 3)),)), [])
            np.testing.assert_array_equal(got, ccx[:, b])


def measured_expectation(state: np.ndarray, ops: str) -> float:
    """<P> for the Pauli string ``ops`` (letter q on qubit q) read off one product
    measurement: the dense oracle's outcome distribution in its bases (Z where
    ``ops`` has I), weighted by the parity of the non-identity qubits."""
    p = measurement_distribution(state, ops.replace("I", "Z"))
    mask = sum(1 << q for q, letter in enumerate(ops) if letter != "I")
    parity = np.array([(-1) ** bin(i & mask).count("1") for i in range(p.size)])
    return float(parity @ p)


def pauli_operator(ops: str) -> np.ndarray:
    return kron_qubits([PAULI[letter] for letter in ops])


def random_sites(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    return alpha / np.linalg.norm(alpha)


def packed(alpha, mode: str = "shifted") -> sv.SiteState:
    emap = encoding.build_map(alpha.size, mode)
    return sv.SiteState(emap.num_qubits, np.array(emap.codewords), alpha)


def one_qubit(*amps) -> sv.SiteState:
    """A 1-qubit packed state with amplitude ``amps[i]`` on basis index i."""
    return sv.SiteState(1, np.arange(len(amps)), np.array(amps, dtype=complex))


def even_pair() -> sv.SiteState:
    """(|01> + |10>)/sqrt(2) on the one-hot register of two sites."""
    return sv.SiteState(2, None, np.ones(2) / np.sqrt(2))


class TestExpectation:
    """Pauli expectations through the dense measurement oracle, against kron oracles."""

    def test_z_on_ground(self):
        assert measured_expectation(zero_state(1), "Z") == pytest.approx(1.0)

    def test_xx_on_symmetric_pair(self):
        state = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert measured_expectation(state, "XX") == pytest.approx(1.0, abs=1e-12)

    def test_xy_on_quarter_phase_pair(self):
        # (|01> + i|10>)/sqrt(2) against the brute-force 4x4 matrix
        amps = np.array([0, 1, 1j, 0]) / np.sqrt(2)
        got = measured_expectation(amps, "XY")
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
            want = np.vdot(state, pauli_operator(ops) @ state).real
            assert measured_expectation(state, ops) == pytest.approx(want, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            sv.sample_bitstrings(sv.SiteState(2, None, np.array([0.6, 0.8])), "Z", 10, seed=0)


class TestBasisRotationAndSampling:
    """The site-state samplers on states with a known outcome."""

    def test_ground_state_z_counts(self):
        hist = sv.sample_bitstrings(one_qubit(1.0), "Z", 500, seed=1)
        assert outcome_counts(hist).tolist() == [500, 0]

    def test_plus_state_x_counts(self):
        hist = sv.sample_bitstrings(one_qubit(2**-0.5, 2**-0.5), "X", 500, seed=2)
        assert outcome_counts(hist).tolist() == [500, 0]

    def test_y_eigenstate_counts(self):
        # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y
        hist = sv.sample_bitstrings(one_qubit(2**-0.5, 1j * 2**-0.5), "Y", 300, seed=3)
        assert outcome_counts(hist).tolist() == [300, 0]
        # on the one-hot register, (|01> + i|10>)/sqrt(2) measured in XY always
        # reads equal bits: its amplitudes cancel on the outcomes 01 and 10
        state = sv.SiteState(2, None, np.array([1, 1j]) / np.sqrt(2))
        hist = sv.sample_bitstrings(state, "XY", 300, seed=3)
        assert {tuple(r) for r in hist.rows.tolist()} <= {(0, 0), (1, 1)}

    def test_binomial_frequency_within_five_sigma(self):
        shots = 10_000
        for state, bases in ((one_qubit(2**-0.5, 2**-0.5), "Z"), (even_pair(), "ZZ")):
            hist = sv.sample_bitstrings(state, bases, shots, seed=4)
            # shots with the top qubit set: the upper half of the outcome indices
            freq = outcome_counts(hist)[2 ** (hist.num_qubits - 1):].sum() / shots
            assert abs(freq - 0.5) < 5 * 0.5 / np.sqrt(shots)

    def test_sampling_determinism(self):
        one_hot = sv.SiteState(3, None, random_sites(3, 9))
        for state, bases in ((one_hot, "XYX"), (one_hot, "ZZZ"), (packed(random_sites(6, 9)), "ZYZ")):
            a = sv.sample_bitstrings(state, bases, 2000, seed=17)
            b = sv.sample_bitstrings(state, bases, 2000, seed=17)
            assert np.array_equal(outcome_counts(a), outcome_counts(b))
            if a.rows is not None:  # a one-hot record keeps each shot's row in draw order
                assert np.array_equal(a.rows, b.rows)
            c = sv.sample_bitstrings(state, bases, 2000, seed=18)
            assert not np.array_equal(outcome_counts(c), outcome_counts(a))

    def test_distribution_reproduces_pauli_expectations(self):
        # <P> for a product basis equals sum over outcomes of (+-1 parity) * prob
        rng = np.random.default_rng(31)
        state = random_state(3, rng)
        for bases in ("ZZZ", "XXX", "XYX", "YZX"):
            p = measurement_distribution(state, bases)
            got = 0.0
            for idx in range(8):
                parity = 1.0
                for q in range(3):
                    if (idx >> q) & 1:
                        parity = -parity
                got += parity * p[idx]
            want = np.vdot(state, pauli_operator(bases) @ state).real
            assert got == pytest.approx(want, abs=1e-12)

    def test_rotation_rejects_bad_basis(self):
        # an unknown letter; a Z among X/Y on the one-hot register; two X/Y
        # qubits on the packed register
        for state, bases in ((one_qubit(1.0), "Q"), (even_pair(), "XQ"), (even_pair(), "XZ"),
                             (packed(random_sites(4, 1)), "XY")):
            with pytest.raises(ValueError, match="bases|basis"):
                sv.sample_bitstrings(state, bases, 10, seed=0)

    def test_shots_must_be_positive(self):
        # a packed and a one-hot register; a fraction, a bool, None and a count
        # past float64's exact integers are no shot count
        for state in (one_qubit(1.0), even_pair()):
            for shots in (0, -3, 2.5, True, None, 2**53 + 1, 10**30):
                with pytest.raises(ValueError, match="shots must be an integer >= 1"):
                    sv.sample_bitstrings(state, "Z" * state.num_qubits, shots, seed=0)
        assert sv.sample_bitstrings(one_qubit(0.6, 0.8), "Z", 2**53, seed=0).total_shots == 2**53


def chi_square_pvalue(state: sv.SiteState, bases: str, shots: int, seed: int) -> float:
    """Pearson chi-square of a sampled record against the dense oracle; outcomes
    expected fewer than 5 times are pooled into one bin."""
    expected = shots * measurement_distribution(dense_register(state), bases)
    observed = outcome_counts(sv.sample_bitstrings(state, bases, shots, seed))
    assert observed[expected == 0].sum() == 0
    small = expected < 5
    obs, exp = observed[~small], expected[~small]
    if expected[small].sum() > 0:
        obs, exp = np.append(obs, observed[small].sum()), np.append(exp, expected[small].sum())
    return stats.chisquare(obs, exp).pvalue


class TestSamplersAgainstDenseOracle:
    """Each register-free sampler against the dense rotate-and-square oracle at N <= 10."""

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("setting", ["MZ", "MXX", "MXY"])
    def test_one_hot_settings(self, n, setting):
        bases = {s.label: s.bases for s in meas.settings_original(n)}[setting]
        state = sv.SiteState(n, None, random_sites(n, 40 + n))
        assert chi_square_pvalue(state, bases, 20_000, seed=100 + n) > 1e-3

    def test_one_hot_mixed_pattern(self):
        state = sv.SiteState(8, None, random_sites(8, 41))
        assert chi_square_pvalue(state, "XXYYXYYX", 20_000, seed=7) > 1e-3

    @pytest.mark.parametrize("n,mode", [(5, "shifted"), (6, "plain"), (8, "shifted")])
    def test_packed_settings(self, n, mode):
        state = packed(random_sites(n, 50 + n), mode=mode)
        for idx, setting in enumerate(meas.settings_binary(state.num_qubits)):
            assert chi_square_pvalue(state, setting.bases, 20_000, seed=200 + 10 * n + idx) > 1e-3, setting.label

    def test_packed_stream_is_pinned(self):
        # counts drawn at a commit that rotated the embedded register; the
        # register-free packed sampler must reproduce them exactly
        state = packed(random_sites(5, 2026))
        by_label = {"BY1": ("ZYZ", [12, 200, 15, 445, 139, 27, 135, 27]),
                    "BX0": ("XZZ", [58, 48, 175, 364, 312, 43, 0, 0])}
        for label, (bases, want) in by_label.items():
            hist = sv.sample_bitstrings(state, bases, 1000, 7, label)
            assert outcome_counts(hist).tolist() == want


class TestOneHotRecord:
    def test_bits_follow_the_marginal_formula(self):
        # a per-shot loop over the documented conditional, fed the same
        # shot-major uniforms, is the reference for the vectorised kernel
        n, shots, bases = 6, 200, "XYYXYX"
        alpha = random_sites(n, 12)
        c = np.where(np.array(list(bases)) == "Y", -1j, 1.0) * alpha
        uniforms = np.random.default_rng(5).random((shots, n))
        want = np.zeros((shots, n), dtype=np.uint8)
        for shot in range(shots):
            prefix = 0j
            for k in range(n):
                rest = float(np.sum(np.abs(alpha[k:]) ** 2))
                p_one = 0.5 - (np.conj(prefix) * c[k]).real / (abs(prefix) ** 2 + rest)
                want[shot, k] = uniforms[shot, k] < p_one
                prefix += -c[k] if want[shot, k] else c[k]
        hist = sv.sample_bitstrings(sv.SiteState(n, None, alpha), bases, shots, seed=5)
        assert np.array_equal(hist.rows, want)

    def test_draw_block_does_not_change_the_bits(self, monkeypatch):
        state = sv.SiteState(7, None, random_sites(7, 3))
        whole = sv.sample_bitstrings(state, "XYXYXYX", 500, seed=11)
        monkeypatch.setattr(sv, "_DRAW_BLOCK", 7 * 64 + 3)  # blocks of 64 shots, the last one short
        blocked = sv.sample_bitstrings(state, "XYXYXYX", 500, seed=11)
        assert np.array_equal(whole.rows, blocked.rows)

    def test_records_are_pinned(self, monkeypatch):
        # sha256 of the one-hot X/Y records over a grid of widths, bases and
        # amplitude patterns (a zero tail; two equal amplitudes, so a prefix
        # such as (0, 1) of "XX..." has probability 0), each drawn in one
        # block and in two; computed before the kernel's buffers were reused
        digest = hashlib.sha256()
        for n in (1, 2, 3, 12, 64):
            states = [random_sites(n, 300 + n)]
            if n > 1:
                tail = random_sites(n, 400 + n)
                tail[n // 2:] = 0.0
                equal = np.zeros(n, dtype=complex)
                equal[:2] = np.exp(0.3j) / np.sqrt(2.0)
                states += [tail / np.linalg.norm(tail), equal]
            alternating = "".join("XY"[q % 2] for q in range(n))
            for alpha in states:
                state = sv.SiteState(n, None, alpha)
                for bases in sorted({"X" * n, alternating}):
                    for block in (sv._DRAW_BLOCK, n * 501):  # 1000 shots: one block, then 501 + 499
                        monkeypatch.setattr(sv, "_DRAW_BLOCK", block)
                        hist = sv.sample_bitstrings(state, bases, 1000, seed=n)
                        digest.update(hist.rows.tobytes() + hist.counts.tobytes())
        assert digest.hexdigest() == "48c0a7f2c33b9322121b7a6b675af26578ce7a286ef1b191428c1b138b510849"

    def test_refuses_a_record_above_the_limit_before_any_draw(self):
        n = 1024
        shots = sv.MAX_RECORD_ENTRIES // n + 1

        class NoDraws(np.random.Generator):
            def __getattribute__(self, name):
                if name in ("random", "multinomial"):
                    raise AssertionError(f"rng.{name} drawn before the record check")
                return super().__getattribute__(name)

        state = sv.SiteState(n, None, np.ones(n) / np.sqrt(n))
        for bases in ("Z" * n, "X" * n):
            with pytest.raises(ValueError, match="too large"):
                sv.sample_bitstrings(state, bases, shots, NoDraws(np.random.PCG64(0)))

    def test_packed_register_above_the_limit_refused(self):
        n = sv.MAX_SIM_WIDTH + 1
        state = sv.SiteState(n, np.array([0, 1]), np.ones(2) / np.sqrt(2))
        with pytest.raises(ValueError, match="too wide"):
            sv.sample_bitstrings(state, "Z" * n, 10, seed=0)


class TestSeedWords:
    @given(st.lists(st.integers(0, 2**70), min_size=1, max_size=5))
    @example([0])
    @example([2**32 - 1, 2**32, 0])
    @example([7, 1, 2**70, 4])
    def test_words_draw_the_stream_of_the_list(self, keys):
        words = sv.seed_words(keys)
        assert words.dtype == np.uint32
        got, want = np.random.SeedSequence(words), np.random.SeedSequence(keys)
        assert np.array_equal(got.generate_state(8), want.generate_state(8))
        assert np.array_equal(np.random.default_rng(got).random(4), np.random.default_rng(want).random(4))

    def test_a_negative_key_is_refused_as_numpy_refuses_it(self):
        for keys in ([-1], [3, 1, -2**40]):
            for build in (np.random.SeedSequence, sv.seed_words):
                with pytest.raises(ValueError, match="expected non-negative integer"):
                    build(keys)


class TestOverlapAndHelpers:
    def test_histogram_validation(self):
        with pytest.raises(ValueError, match="sum"):
            sv.ShotHistogram("MZ", np.array([[0], [1]]), np.array([3, 0]), 4)
        with pytest.raises(ValueError, match="bits"):
            sv.ShotHistogram("MZ", np.array([[2]]), np.array([4]), 4)
        with pytest.raises(ValueError, match="one count per outcome row"):
            sv.ShotHistogram("MZ", np.array([[0], [1]]), np.array([4]), 4)
        # the counts form: 2^width outcome counts, with the same count checks
        for counts in ([4, 0, 0], [4], [[2, 2], [0, 0]]):
            with pytest.raises(ValueError, match="2\\^width"):
                sv.ShotHistogram("BZ", None, np.array(counts), 4)
        with pytest.raises(ValueError, match="non-negative"):
            sv.ShotHistogram("BZ", None, np.array([5, -1]), 4)
        with pytest.raises(ValueError, match="non-negative"):
            sv.ShotHistogram("BZ", None, np.array([2.0, 2.0]), 4)
        with pytest.raises(ValueError, match="sum"):
            sv.ShotHistogram("BZ", None, np.array([1, 0, 2, 0]), 4)
        # the shot total is a shot count, as the sampler takes it
        for total, counts in ((True, [1, 0]), (4.0, [1, 3]), (0, [0, 0])):
            with pytest.raises(ValueError, match="shots must be an integer >= 1"):
                sv.ShotHistogram("BZ", None, np.array(counts), total)
        hist = sv.ShotHistogram("BZ", None, np.array([1, 0, 3, 0]), 4)
        assert (hist.num_qubits, hist.rows, hist.counts.tolist()) == (2, None, [1, 0, 3, 0])
        rows = sv.ShotHistogram("MZ", np.array([[0, 0], [0, 1]]), np.array([1, 3]), 4)
        assert rows.num_qubits == 2 and outcome_counts(rows).tolist() == [1, 0, 3, 0]

    def test_state_validation(self):
        for amps in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="normalized"):
                sv.SiteState(2, None, np.array(amps))
        with pytest.raises(ValueError, match="shape"):
            sv.SiteState(3, None, np.array([0.6, 0.8]))
        with pytest.raises(ValueError, match="shape"):
            sv.SiteState(2, np.array([1, 2, 3]), np.array([0.6, 0.8]))

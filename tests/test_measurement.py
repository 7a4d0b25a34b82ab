"""Measurement protocols and profile reconstruction.

Every estimator is checked against the bilinear oracle
    prob_j  = |alpha_j|^2
    cos_jk  = 2 Re(conj(alpha_j) alpha_k)
    sin_jk  = 2 Im(conj(alpha_j) alpha_k)
computed directly from the amplitudes being measured.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sesvqe
from conftest import dense_register, measurement_distribution, phase_graph_rows, rows_histogram, setting_estimate
from sesvqe import encoding, measurement as meas
from sesvqe import hamiltonian as ham
from sesvqe import statevector as sv


def onehot_state(alpha) -> sv.SiteState:
    alpha = np.asarray(alpha, dtype=complex)
    return sv.SiteState(alpha.size, None, alpha)


def packed_state(alpha, emap) -> sv.SiteState:
    return sv.SiteState(emap.num_qubits, np.array(emap.codewords), alpha)


def exact_histogram(state, setting, shots=10**12) -> sv.ShotHistogram:
    """Outcome counts proportional to the exact distribution (dense oracle), to one part in ``shots``."""
    p = measurement_distribution(dense_register(state), setting.bases)
    return rows_histogram(setting.label, np.rint(p * shots).astype(np.int64))


def random_site_vector(n, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    return alpha / np.linalg.norm(alpha)


def oracle(alpha, j, k=None):
    if k is None:
        return abs(alpha[j]) ** 2
    inner = np.conj(alpha[j]) * alpha[k]
    return 2.0 * inner.real, 2.0 * inner.imag


class TestSettingFamilies:
    def test_original_four_sites(self):
        labels = [(s.label, s.bases) for s in meas.settings_original(4)]
        assert labels == [("MZ", "ZZZZ"), ("MXX", "XXXX"), ("MXY", "XYXY")]

    def test_original_odd_width(self):
        assert meas.settings_original(5)[2].bases == "XYXYX"

    def test_original_single_site(self):
        assert len(meas.settings_original(1)) == 3

    def test_binary_three_qubits(self):
        settings = meas.settings_binary(3)
        assert len(settings) == 7
        assert settings[0].label == "BZ"
        assert settings[0].bases == "ZZZ"
        by_label = {s.label: s for s in settings}
        assert by_label["BX1"].bases == "ZXZ"
        assert by_label["BY2"].bases == "ZZY"

    def test_binary_single_qubit(self):
        assert [s.label for s in meas.settings_binary(1)] == ["BZ", "BX0", "BY0"]

    def test_binary_axis_letter_placement(self):
        s = {x.label: x for x in meas.settings_binary(5)}["BX2"]
        assert s.bases == "ZZXZZ"

    def test_setting_validation(self):
        with pytest.raises(ValueError, match="basis"):
            meas.MeasurementSetting("M", "XQZ", "prob")
        with pytest.raises(ValueError, match="kind"):
            meas.MeasurementSetting("M", "XYZ", "phase")
        with pytest.raises(ValueError):
            meas.settings_original(0)
        with pytest.raises(ValueError):
            meas.settings_binary(0)


class TestOriginalEstimates:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_site_vector_route_matches_oracle(self, n):
        alpha = random_site_vector(n, 70 + n)
        for setting in meas.settings_original(n):
            est = setting_estimate(alpha, setting)
            if setting.label == "MZ":
                assert setting.kind == "prob"
                want = [oracle(alpha, j) for j in range(n)]
            else:
                # pair (j, j + 1) at index j
                assert setting.kind == ("cos" if setting.label == "MXX" else "sin")
                part = 0 if setting.label == "MXX" else 1
                want = [oracle(alpha, j, j + 1)[part] for j in range(n - 1)]
            assert isinstance(est, np.ndarray) and est.shape == (len(want),)
            np.testing.assert_allclose(est, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_state_vector_route_agrees(self, n):
        # the one-hot register that shot mode samples, read through its exact
        # outcome distribution, must reproduce the site-vector numbers,
        # including the sign conversion on pairs measured in (Y, X) order
        alpha = random_site_vector(n, 80 + n)
        state = onehot_state(alpha)
        for setting in meas.settings_original(n):
            direct = setting_estimate(alpha, setting)
            via_state = setting_estimate(exact_histogram(state, setting), setting)
            assert via_state.shape == direct.shape
            np.testing.assert_allclose(via_state, direct, rtol=0, atol=1e-9)

    def test_quarter_phase_pair(self):
        # (|01> + i|10>)/sqrt(2): relative phase pi/2 puts everything in sine
        alpha = np.array([1.0, 1j]) / np.sqrt(2.0)
        mxy = meas.settings_original(2)[2]
        est = setting_estimate(alpha, mxy)
        assert mxy.kind == "sin" and est.shape == (1,)
        assert est[0] == pytest.approx(1.0, abs=1e-12)

    def test_histogram_route(self):
        alpha = random_site_vector(3, 4)
        state = onehot_state(alpha)
        for setting in meas.settings_original(3):
            hist = sv.sample_bitstrings(state, setting.bases, 200_000, 5, setting.label)
            est = setting_estimate(hist, setting)
            exact = setting_estimate(alpha, setting)
            assert est.shape == exact.shape
            np.testing.assert_allclose(est, exact, rtol=0, atol=0.02)

    def test_histogram_label_mismatch(self):
        state = onehot_state(random_site_vector(2, 1))
        hist = sv.sample_bitstrings(state, "ZZ", 100, 0, "MZ")
        mxx = meas.settings_original(2)[1]
        with pytest.raises(ValueError, match="setting"):
            setting_estimate(hist, mxx)

    def test_width_mismatch(self):
        hist = sv.sample_bitstrings(onehot_state(random_site_vector(3, 2)), "ZZZ", 100, 0, "MZ")
        with pytest.raises(ValueError, match="width"):
            setting_estimate(hist, meas.settings_original(2)[0])

    def test_counts_form_record_refused(self):
        # the one-hot estimators read outcome rows; a packed record has none
        hist = sv.ShotHistogram("MZ", None, np.array([10, 90, 0, 0]), 100)
        with pytest.raises(ValueError, match="original setting 'MZ' reads a record of outcome rows"):
            setting_estimate(hist, meas.settings_original(2)[0])


def flip_qubit(setting) -> int:
    """The one qubit a packed X/Y setting measures in X or Y."""
    return next(q for q, b in enumerate(setting.bases) if b != "Z")


def estimate_pairs(alpha, setting, emap) -> dict:
    """(j, k) -> value for one packed X/Y setting's estimates, read in their
    documented order: the edges on its X/Y qubit in ``hypercube_edges`` order."""
    values = setting_estimate(alpha, setting, emap)
    pairs = [(j, k) for j, k, axis in encoding.hypercube_edges(emap) if axis == flip_qubit(setting)]
    assert len(pairs) == len(values)
    return dict(zip(pairs, values.tolist()))


class TestBinaryEstimates:
    def test_symmetric_codeword_pair(self):
        # sites 0 and 2 of the 8-site shifted map: codewords 001 and 011
        emap = encoding.build_map(8)
        alpha = np.zeros(8, dtype=complex)
        alpha[0] = alpha[2] = 1.0 / np.sqrt(2.0)
        by_label = {s.label: s for s in meas.settings_binary(3)}
        cos_est = estimate_pairs(alpha, by_label["BX1"], emap)
        sin_est = estimate_pairs(alpha, by_label["BY1"], emap)
        assert cos_est[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert sin_est[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_phase_codeword_pair(self):
        emap = encoding.build_map(8)
        alpha = np.zeros(8, dtype=complex)
        alpha[0] = 1.0 / np.sqrt(2.0)
        alpha[2] = 1j / np.sqrt(2.0)
        by_label = {s.label: s for s in meas.settings_binary(3)}
        cos_est = estimate_pairs(alpha, by_label["BX1"], emap)
        sin_est = estimate_pairs(alpha, by_label["BY1"], emap)
        assert cos_est[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert sin_est[0, 2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_hypercube_edges_exact(self, seed):
        # full 8-site register: all 12 edges recover the bilinear oracle
        emap = encoding.build_map(8)
        alpha = random_site_vector(8, 90 + seed)
        settings = meas.settings_binary(3)
        by_label = {s.label: estimate_pairs(alpha, s, emap) for s in settings[1:]}
        for j, k, axis in encoding.hypercube_edges(emap):
            c, s = oracle(alpha, j, k)
            assert by_label[f"BX{axis}"][j, k] == pytest.approx(c, abs=1e-12)
            assert by_label[f"BY{axis}"][j, k] == pytest.approx(s, abs=1e-12)
        # each axis resolves exactly its own edges
        assert sum(len(by_label[s.label]) for s in settings if s.kind == "cos") == 12
        probs = setting_estimate(alpha, settings[0], emap)
        assert settings[0].kind == "prob" and probs.shape == (8,)
        for j in range(8):
            assert probs[j] == pytest.approx(oracle(alpha, j), abs=1e-12)

    def test_partial_register_reports_unencoded_mass(self):
        emap = encoding.build_map(5)
        alpha = random_site_vector(5, 3)
        bz = meas.settings_binary(3)[0]
        assert setting_estimate(alpha, bz, emap).sum() == pytest.approx(1.0, abs=1e-12)
        h = ham.random_hermitian_instance(5, seed=3)
        _, diag = meas.estimate_energy(h, alpha, "binary", emap=emap)
        assert diag["unencoded_mass"] == pytest.approx(0.0, abs=1e-12)
        assert "unknown_codeword_count" not in diag

    def test_histogram_route_matches_exact(self):
        emap = encoding.build_map(4)
        alpha = random_site_vector(4, 8)
        state = packed_state(alpha, emap)
        for setting in meas.settings_binary(2):
            hist = sv.sample_bitstrings(state, setting.bases, 400_000, 9, setting.label)
            est = setting_estimate(hist, setting, emap)
            exact = setting_estimate(alpha, setting, emap)
            assert est.shape == exact.shape
            np.testing.assert_allclose(est, exact, rtol=0, atol=0.02)

    def test_histogram_unknown_codewords_counted(self):
        # put weight on the unassigned codeword 110 of a 5-site register
        emap = encoding.build_map(5)
        state = sv.SiteState(3, np.array([6]), np.array([1.0]))
        hist = sv.sample_bitstrings(state, "ZZZ", 1000, 0, "BZ")
        out = setting_estimate(hist, meas.settings_binary(3)[0], emap)
        assert out.tolist() == [0.0] * 5

    def test_rows_form_record_refused(self):
        # the packed estimators index the 2^n outcome counts; a record of
        # outcome rows is not converted
        emap = encoding.build_map(4)
        bz, bx0 = meas.settings_binary(2)[:2]
        for setting in (bz, bx0):
            hist = rows_histogram(setting.label, np.array([10, 20, 30, 40]))
            with pytest.raises(ValueError, match="binary setting .* reads a record of 2\\^width outcome counts"):
                setting_estimate(hist, setting, emap)

    def test_requires_encoding_map(self):
        with pytest.raises(ValueError, match="binary protocol requires an encoding map"):
            meas.estimate_energy(ham.chain_instance(4), random_site_vector(4, 0), "binary")

    def test_unknown_protocol_refused(self):
        with pytest.raises(ValueError, match="unknown protocol 'gray'"):
            meas.estimate_energy(ham.chain_instance(4), random_site_vector(4, 0), "gray")


def test_estimate_setting_stays_in_measurement_and_leaves_the_package_api():
    # its layout argument is private; _measure looks it up on the module,
    # where perfbench and the cost-loop call counts wrap it
    assert "estimate_setting" not in sesvqe.__all__
    assert not hasattr(sesvqe, "estimate_setting")
    assert callable(meas.estimate_setting)


class TestShotUnbiasedness:
    def test_original_protocol(self):
        alpha = random_site_vector(3, 55)
        state = onehot_state(alpha)
        shots = 10_000
        n_seeds = 100
        for idx, setting in enumerate(meas.settings_original(3)):
            exact = setting_estimate(alpha, setting)
            draws = np.array([
                setting_estimate(
                    sv.sample_bitstrings(state, setting.bases, shots, 1000 * idx + seed, setting.label),
                    setting,
                )
                for seed in range(n_seeds)
            ])
            for k, want in enumerate(exact):
                sem = max(draws[:, k].std(ddof=1), 1e-4) / np.sqrt(n_seeds)
                assert abs(draws[:, k].mean() - want) < 4.5 * sem

    def test_binary_protocol(self):
        emap = encoding.build_map(4)
        alpha = random_site_vector(4, 56)
        state = packed_state(alpha, emap)
        shots = 10_000
        n_seeds = 100
        for idx, setting in enumerate(meas.settings_binary(2)):
            exact = setting_estimate(alpha, setting, emap)
            draws = np.array([
                setting_estimate(
                    sv.sample_bitstrings(
                        state, setting.bases, shots, 7000 + 1000 * idx + seed, setting.label
                    ),
                    setting,
                    emap,
                )
                for seed in range(n_seeds)
            ])
            for k, want in enumerate(exact):
                sem = max(draws[:, k].std(ddof=1), 1e-4) / np.sqrt(n_seeds)
                assert abs(draws[:, k].mean() - want) < 4.5 * sem


def test_pick_epsilon():
    assert meas.pick_epsilon(None) == 1e-9
    assert meas.pick_epsilon(10_000) == pytest.approx(0.03)
    assert meas.pick_epsilon(9) == pytest.approx(1.0)
    # the floor engages once shot noise drops below a micro-threshold
    assert meas.pick_epsilon(10**14) == pytest.approx(1e-6)


class TestReconstructProfile:
    def run_exact(self, alpha, protocol="original", emap=None, epsilon=None):
        """Reconstruct from oracle values over the protocol's pairs, in site order."""
        alpha = np.asarray(alpha, dtype=complex)
        if protocol == "original":
            pairs = [(j, j + 1) for j in range(alpha.size - 1)]
        else:
            pairs = sorted((j, k) for j, k, _ in encoding.hypercube_edges(emap))
        probs = [oracle(alpha, j) for j in range(alpha.size)]
        cos, sin = (list(column) for column in zip(*[oracle(alpha, j, k) for j, k in pairs]))
        pair_j, pair_k = zip(*pairs)
        return meas.reconstruct_profile(probs, list(pair_j), list(pair_k), cos, sin, epsilon)

    def test_single_occupied_site(self):
        alpha = np.zeros(5, dtype=complex)
        alpha[2] = 1.0
        profile, pgraph = self.run_exact(alpha)
        assert list(profile.active) == [False, False, True, False, False]
        assert profile.phases[2] == 0.0
        assert pgraph.n_components == 1
        assert not pgraph.in_tree.any()
        h = ham.random_hermitian_instance(5, seed=1)
        assert ham.energy_from_profile(h, profile) == pytest.approx(
            h.matrix[2, 2].real, abs=1e-12
        )

    def test_uniform_real_superposition_has_flat_phases(self):
        emap = encoding.build_map(8)
        alpha = np.ones(8) / np.sqrt(8.0)
        profile, pgraph = self.run_exact(alpha, "binary", emap)
        assert pgraph.n_components == 1
        np.testing.assert_allclose(profile.phases, np.zeros(8), atol=1e-12)

    @pytest.mark.parametrize("protocol,n", [("original", 6), ("binary", 8)])
    def test_random_state_recovered_up_to_global_phase(self, protocol, n):
        emap = encoding.build_map(n) if protocol == "binary" else None
        alpha = random_site_vector(n, 200 + n)
        profile, _ = self.run_exact(alpha, protocol, emap)
        got = profile.site_amplitudes()
        # align on the reference site, which holds phase 0 by construction
        ref = profile.reference_site
        aligned = alpha * np.exp(-1j * np.angle(alpha[ref]))
        np.testing.assert_allclose(np.abs(got), np.abs(aligned), atol=1e-10)
        np.testing.assert_allclose(got, aligned, atol=1e-9)

    def test_energy_round_trip(self):
        emap = encoding.build_map(8)
        alpha = random_site_vector(8, 77)
        h = ham.random_hermitian_instance(8, seed=78)
        profile, _ = self.run_exact(alpha, "binary", emap)
        want = np.vdot(alpha, h.matrix @ alpha).real
        assert ham.energy_from_profile(h, profile) == pytest.approx(want, abs=1e-10)

    def test_negative_probability_clamps(self):
        profile, _ = meas.reconstruct_profile([-0.001, 1.0], [0], [1], [0.0], [0.0], shots=100)
        assert profile.magnitudes[0] == 0.0

    def test_cycle_consistency(self):
        # redundant edges not used by the spanning tree still close: the
        # reconstructed phases reproduce every measured delta
        emap = encoding.build_map(8)
        alpha = random_site_vector(8, 33)
        profile, pgraph = self.run_exact(alpha, "binary", emap)
        assert pgraph.edge_j.size == 12
        assert np.count_nonzero(pgraph.in_tree) == 7
        for j, k, delta in zip(pgraph.edge_j, pgraph.edge_k, pgraph.delta):
            got = profile.phases[k] - profile.phases[j]
            assert abs(np.angle(np.exp(1j * (got - delta)))) < 1e-8

    def test_global_phase_invariance(self):
        alpha = random_site_vector(5, 44)
        p1, _ = self.run_exact(alpha)
        p2, _ = self.run_exact(alpha * np.exp(1j * 1.234))
        np.testing.assert_allclose(p1.magnitudes, p2.magnitudes, atol=1e-12)
        np.testing.assert_allclose(p1.phases, p2.phases, atol=1e-12)

    def test_threshold_deactivates_small_sites(self):
        alpha = np.array([0.9987, 0.05, 0.0], dtype=complex)
        alpha /= np.linalg.norm(alpha)
        loose, _ = self.run_exact(alpha, epsilon=1e-9)
        tight, _ = self.run_exact(alpha, epsilon=0.1)
        assert list(loose.active) == [True, True, False]
        assert list(tight.active) == [True, False, False]

    def test_shot_mode_epsilon_comes_from_shots(self):
        profile, _ = meas.reconstruct_profile([1.0], [], [], [], [], shots=10_000)
        assert profile.threshold == pytest.approx(0.03)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-3, "0.1", True])
    def test_epsilon_must_be_a_finite_number_at_least_zero(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
            meas.reconstruct_profile([1.0], [], [], [], [], epsilon=epsilon)

    @pytest.mark.parametrize("shots", [0, -5, True, 2.5, 2**53 + 1])
    def test_shot_count_is_checked(self, shots):
        # the default threshold is 3 / sqrt(shots): without the check 0 gives
        # inf (every site inactive) and -5, True and 2.5 a silent threshold
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            meas.reconstruct_profile([1.0], [], [], [], [], shots=shots)

    @pytest.mark.parametrize("probs,pair_j,pair_k,cos,sin,message", [
        ([[0.5, 0.5]], [0], [1], [0.0], [1.0], "probs must be 1-D"),
        (0.5, [], [], [], [], "probs must be 1-D"),
        ([0.5, 0.5], [0], [1], [0.0, 1.0], [1.0], "one length"),
        ([0.5, 0.5], [0, 0], [1], [0.0], [1.0], "one length"),
        ([0.5, 0.5], [[0]], [[1]], [[0.0]], [[1.0]], "one length"),
        ([0.5, 0.5], [1], [0], [0.0], [1.0], "j < k"),
        ([0.5, 0.5], [1], [1], [0.0], [1.0], "j < k"),
        ([0.5, 0.5], [-1], [0], [0.0], [1.0], r"outside \[0, 2\)"),
        ([0.5, 0.5], [1], [2], [0.0], [1.0], r"outside \[0, 2\)"),
        ([0.3, 0.3, 0.4], [0, -2], [1, 2], [0.0, 0.0], [1.0, 1.0], r"outside \[0, 3\)"),
        ([0.3, 0.3, 0.4], [0, 0], [1, 3], [0.0, 0.0], [1.0, 1.0], r"outside \[0, 3\)"),
    ])
    def test_bad_pair_data_refused(self, probs, pair_j, pair_k, cos, sin, message):
        for _ in range(2):  # the pair checks are cached by the pairs; a refusal is not
            with pytest.raises(ValueError, match=message):
                meas.reconstruct_profile(probs, pair_j, pair_k, cos, sin)

    @pytest.mark.parametrize("pair_j,pair_k", [
        ([0.5], [1]),
        ([0], [1.0]),
        ([0.5, 1.7], [1, 2]),
        (np.array([0, 1], dtype=float), np.array([1, 2])),
        ([False, True], [1, 2]),
        (np.array(["0", "1"]), [1, 2]),
    ])
    def test_non_integer_pair_indices_refused(self, pair_j, pair_k):
        # read as int64 they would be truncated silently: 0.5 as site 0
        with pytest.raises(ValueError, match="pair indices must be integers, got dtype"):
            meas.reconstruct_profile([0.3, 0.3, 0.4], pair_j, pair_k, [0.1] * len(pair_j), [0.1] * len(pair_j))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
    def test_integer_pair_indices_of_any_width_are_read_alike(self, dtype):
        want, _ = meas.reconstruct_profile([0.5, 0.5], [0], [1], [0.3], [0.4])
        got, _ = meas.reconstruct_profile([0.5, 0.5], np.array([0], dtype), np.array([1], dtype), [0.3], [0.4])
        assert got.phases.tobytes() == want.phases.tobytes()

    def test_phase_graph_keeps_its_own_pair_indices(self):
        # a caller's writeable int64 arrays are copied: writing them later
        # once moved the graph's first edge to (5, 1), a pair the checks refuse
        j, k = np.array([0, 1]), np.array([1, 2])
        _, pgraph = meas.reconstruct_profile([0.3, 0.3, 0.4], j, k, [0.1, 0.1], [0.1, 0.2])
        j[0], k[0] = 5, 7
        assert pgraph.edge_j.tolist() == [0, 1] and pgraph.edge_k.tolist() == [1, 2]
        summary = meas.phase_graph_summary(pgraph)
        assert (summary["edge_j"][0], summary["edge_k"][0]) == (0, 1)
        # a layout's read-only arrays are kept as they are
        layout = meas._layout("original", 3, None)
        _, pgraph = meas.reconstruct_profile([0.3, 0.3, 0.4], layout.pair_j, layout.pair_k, [0.1, 0.1], [0.1, 0.2])
        assert pgraph.edge_j is layout.pair_j and pgraph.edge_k is layout.pair_k

    @pytest.mark.parametrize("probs", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [np.inf, 0.0, 0.0]])
    def test_non_finite_probabilities_refused(self, probs):
        # a NaN probability once gave a profile, and an energy, of nan
        with pytest.raises(ValueError, match="profile has a non-finite norm"):
            meas.reconstruct_profile(probs, [0, 1], [1, 2], [0.1, 0.1], [0.1, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["cos", "sin"])
    @pytest.mark.parametrize("route", ["path", "kruskal"])
    def test_non_finite_pair_estimates_refused_before_any_work(self, monkeypatch, route, column, bad):
        # a NaN cos once put edge (0, 1) into the tree and gave site 1 a NaN phase
        def not_reached(*args, **kwargs):
            raise AssertionError("pairs were routed or a forest was built before the check")

        for name in ("_pair_route", "_chain_forest", "_spanning_forest"):
            monkeypatch.setattr(meas, name, not_reached)
        j, k = ([0, 1], [1, 2]) if route == "path" else ([0, 0, 1], [1, 2, 2])
        estimates = {"cos": [0.1, 0.2, 0.1][:len(j)], "sin": [0.1, 0.2, 0.1][:len(j)]}
        estimates[column][0] = bad
        with pytest.raises(ValueError, match="pair estimates cos and sin must be finite"):
            meas.reconstruct_profile([0.3, 0.3, 0.4], j, k, estimates["cos"], estimates["sin"])

    def test_empty_pair_lists_are_accepted(self):
        profile, pgraph = meas.reconstruct_profile([0.25, 0.75], [], [], [], [])
        assert pgraph.n_components == 2
        assert pgraph.edge_j.dtype == pgraph.edge_k.dtype == np.int64

    def test_zero_epsilon_is_accepted(self):
        profile, _ = meas.reconstruct_profile([0.0, 1.0], [0], [1], [0.0], [0.0], epsilon=0)
        assert profile.active.tolist() == [False, True]

    def test_a_chain_computes_its_weights_only_when_read(self, monkeypatch):
        weights = []
        edge_weight = meas._edge_weight
        monkeypatch.setattr(meas, "_edge_weight", lambda c, s: weights.append(c.size) or edge_weight(c, s))
        cos, sin = np.array([0.3, -0.2]), np.array([0.4, 0.1])
        _, pgraph = meas.reconstruct_profile([0.3, 0.3, 0.4], np.array([0, 1]), np.array([1, 2]), cos, sin)
        assert weights == []
        cos[:], sin[:] = 9.0, 9.0  # the graph keeps its own copies
        assert pgraph.weight.tolist() == [0.4**2 + 0.3**2, 0.1**2 + (-0.2) ** 2]
        assert pgraph.weight is pgraph.weight
        assert weights == [2]


class TestEstimateEnergy:
    def test_single_site(self):
        h = ham.SiteHamiltonian.from_matrix([[1.75]])
        energy, diag = meas.estimate_energy(h, np.array([1.0 + 0j]), "original")
        assert energy == pytest.approx(1.75, abs=1e-12)
        assert diag["settings"] == ["MZ", "MXX", "MXY"]

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_protocols_agree_exactly(self, n):
        alpha = random_site_vector(n, 300 + n)
        h = ham.random_hermitian_instance(n, seed=n)
        want = np.vdot(alpha, h.matrix @ alpha).real
        e_orig, _ = meas.estimate_energy(h, alpha, "original")
        emap = encoding.build_map(n)
        e_bin, _ = meas.estimate_energy(h, alpha, "binary", emap=emap)
        assert e_orig == pytest.approx(want, abs=1e-10)
        assert e_bin == pytest.approx(want, abs=1e-10)

    def test_tridiagonal_original_is_complete(self):
        # the three-setting protocol measures exactly the nearest-neighbor
        # pairs, so chain Hamiltonians are reconstructed with no warnings
        alpha = random_site_vector(6, 12)
        h = ham.chain_instance(6, hopping=0.8)
        energy, diag = meas.estimate_energy(h, alpha, "original")
        want = np.vdot(alpha, h.matrix @ alpha).real
        assert energy == pytest.approx(want, abs=1e-10)
        assert diag["warnings"] == []

    def test_cross_component_coupling_is_flagged(self):
        h = ham.SiteHamiltonian.from_matrix(
            [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]
        )
        alpha = np.array([0.8, 0.0, 0.6], dtype=complex)
        energy, diag = meas.estimate_energy(h, alpha, "original")
        assert diag["warnings"] == ["unresolved-phase"]
        assert (0, 2) in diag["cross_component_terms"]
        assert (0, 1) in diag["inactive_terms"]
        assert (1, 2) in diag["inactive_terms"]
        assert diag["n_components"] == 2

    def test_shot_mode_original_takes_site_vector(self):
        h = ham.chain_instance(4, disorder=0.5, seed=3)
        alpha = random_site_vector(4, 23)
        want = np.vdot(alpha, h.matrix @ alpha).real
        e1, diag = meas.estimate_energy(h, alpha, "original", shots=200_000, seed=(4, 1))
        e2, _ = meas.estimate_energy(h, alpha, "original", shots=200_000, seed=(4, 1))
        assert e1 == e2
        assert diag["shots_per_setting"] == 200_000
        assert e1 == pytest.approx(want, abs=0.02)

    def test_shot_mode_determinism_and_seed_sensitivity(self):
        h = ham.chain_instance(3, disorder=0.5, seed=2)
        alpha = random_site_vector(3, 21)
        e1, _ = meas.estimate_energy(h, alpha, "original", shots=2000, seed=9)
        e2, _ = meas.estimate_energy(h, alpha, "original", shots=2000, seed=9)
        e3, _ = meas.estimate_energy(h, alpha, "original", shots=2000, seed=10)
        assert e1 == e2
        assert e1 != e3

    def test_shot_mode_binary_accepts_site_vector(self):
        emap = encoding.build_map(4)
        h = ham.random_hermitian_instance(4, seed=5)
        alpha = random_site_vector(4, 22)
        want = np.vdot(alpha, h.matrix @ alpha).real
        energy, diag = meas.estimate_energy(
            h, alpha, "binary", shots=2_000_000, seed=3, emap=emap
        )
        assert diag["shots_per_setting"] == 2_000_000
        assert energy == pytest.approx(want, abs=0.02)

    def test_epsilon_override(self):
        h = ham.chain_instance(3)
        alpha = np.array([0.998, 0.05, 0.0], dtype=complex)
        alpha /= np.linalg.norm(alpha)
        _, diag = meas.estimate_energy(h, alpha, "original", epsilon=0.2)
        assert diag["epsilon"] == 0.2
        assert 1 in diag["inactive_sites"]

    def test_diagnostics_shape(self):
        emap = encoding.build_map(4)
        h = ham.random_hermitian_instance(4, seed=1)
        _, diag = meas.estimate_energy(h, random_site_vector(4, 2), "binary", emap=emap)
        for key in (
            "protocol",
            "settings",
            "shots_per_setting",
            "epsilon",
            "inactive_sites",
            "n_components",
            "cross_component_terms",
            "inactive_terms",
            "unencoded_mass",
            "warnings",
            "profile",
            "phase_graph",
        ):
            assert key in diag
        assert diag["protocol"] == "binary"
        assert len(diag["settings"]) == 5
        assert diag["profile"]["n_sites"] == 4

    @pytest.mark.parametrize("shots", [None, 100])
    @pytest.mark.parametrize(
        "case,error,match",
        [
            ("list", TypeError, "unsupported source type list"),
            ("short", ValueError, "site vector length 3 != 4 sites"),
            ("nan", ValueError, "non-finite"),
            ("inf", ValueError, "non-finite"),
            ("map", ValueError, "encoding map covers 5 sites, Hamiltonian has 4"),
            ("epsilon", ValueError, "epsilon must be a finite number >= 0"),
            ("shots", ValueError, "shots must be an integer >= 1"),
            ("many shots", ValueError, "shots must be an integer >= 1"),
        ],
    )
    def test_site_vector_refused_before_any_setting_runs(self, monkeypatch, shots, case, error, match):
        def not_reached(*args, **kwargs):
            raise AssertionError("a setting ran or a state was built or sampled before the check")

        monkeypatch.setattr(meas, "estimate_setting", not_reached)
        monkeypatch.setattr(meas.sv, "SiteState", not_reached)
        monkeypatch.setattr(meas.sv, "sample_bitstrings", not_reached)
        h = ham.chain_instance(4)
        alpha = random_site_vector(4, 6)
        protocol, emap, epsilon = "original", None, None
        if case == "list":
            alpha = alpha.tolist()
        elif case == "short":
            alpha = alpha[:3]
        elif case in ("nan", "inf"):
            alpha[2] = float(case)
        elif case == "epsilon":
            epsilon = float("nan")
        elif case == "shots":
            shots = 2.5 if shots is None else True
        elif case == "many shots":
            protocol, emap, shots = "binary", encoding.build_map(4), 2**53 + 1
        else:
            protocol, emap = "binary", encoding.build_map(5)
        with pytest.raises(error, match=match):
            meas.estimate_energy(h, alpha, protocol, shots=shots, emap=emap, epsilon=epsilon)

    @pytest.mark.parametrize("shots", [None, 100])
    @pytest.mark.parametrize("protocol", ["original", "binary"])
    @pytest.mark.parametrize("shape", [(2, 2), (1, 4), (4, 1)])
    def test_site_vector_of_four_entries_not_1d_refused(self, monkeypatch, shots, protocol, shape):
        def not_reached(*args, **kwargs):
            raise AssertionError("a setting ran or a state was built or sampled before the check")

        monkeypatch.setattr(meas, "estimate_setting", not_reached)
        monkeypatch.setattr(meas.sv, "SiteState", not_reached)
        monkeypatch.setattr(meas.sv, "sample_bitstrings", not_reached)
        emap = encoding.build_map(4) if protocol == "binary" else None
        alpha = random_site_vector(4, 6).reshape(shape)
        with pytest.raises(ValueError, match=rf"site vector has shape \({shape[0]}, {shape[1]}\), expected \(4,\)"):
            meas.estimate_energy(ham.chain_instance(4), alpha, protocol, shots=shots, emap=emap)

    def test_shot_mode_one_hot_at_1024_sites(self):
        h = ham.chain_instance(1024, 1.0, disorder=1.0, seed=6)
        energy, diag = meas.estimate_energy(h, random_site_vector(1024, 6), "original", shots=1000, seed=3)
        assert np.isfinite(energy)
        assert diag["shots_per_setting"] == 1000

    def test_one_hot_record_above_the_limit_refused_before_any_draw(self, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("a setting was drawn or estimated before the record check")

        monkeypatch.setattr(meas, "estimate_setting", not_reached)
        monkeypatch.setattr(sv, "_one_hot_record", not_reached)
        n = 1024
        shots = sv.MAX_RECORD_ENTRIES // n + 1
        with pytest.raises(ValueError, match=f"a record of {shots} shots on {n} qubits is too large"):
            meas.estimate_energy(ham.chain_instance(n), random_site_vector(n, 1), "original", shots=shots)

    def test_outputs_are_pinned(self):
        # sha256 over every case's energy repr and diagnostics JSON, computed
        # before the per-setting estimates became bare arrays and recomputed,
        # before ``unknown_codeword_count`` was deleted, with that key left
        # out; any change to the estimates, their order or their rounding
        # moves it.  The phase graph is hashed as the version-2 rows it was
        # pinned in (``phase_graph_rows``), so the columns carry the same facts
        families = (
            lambda n, s: ham.chain_instance(n, 0.8, disorder=0.5, seed=s),
            lambda n, s: ham.random_hermitian_instance(n, seed=s),
            lambda n, s: ham.complex_ring_instance(n, seed=s),
        )
        routes = (("original", None), ("binary", "shifted"), ("binary", "plain"))
        cases = itertools.product(
            (1, 2, 3, 5, 8, 13, 16, 31, 64), families, routes, (None, 1, 37, 1000), (False, True)
        )
        digest = hashlib.sha256()
        for idx, (n, family, (protocol, mode), shots, zeroed) in enumerate(cases):
            rng = np.random.default_rng(idx)
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            if zeroed and n > 1:
                alpha[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
            alpha /= np.linalg.norm(alpha)
            args = (family(n, idx), alpha, protocol)
            kwargs = dict(shots=shots, seed=idx, emap=encoding.build_map(n, mode) if mode else None,
                          epsilon=(None, 0, 0.05)[idx % 3])
            energy, diag = meas.estimate_energy(*args, **kwargs)
            diag["phase_graph"] = phase_graph_rows(diag["phase_graph"])
            digest.update(json.dumps([repr(energy), diag], sort_keys=True).encode())
            # the cost loop's call builds no report and gets the same energy
            assert meas.estimate_energy(*args, **kwargs, diagnostics=False) == (energy, None)
        assert digest.hexdigest() == "3cf1543345a92e44a866a05c304da44b41422d02bfb9d879354d9d850788f0c9"

    def test_outputs_are_pinned_at_large_n(self):
        # the same hash at N = 128 and 256, computed before the one-hot chain
        # took its own phase route and recomputed, like the hash above,
        # without the deleted key and over the version-2 phase-graph rows; the
        # shot runs and epsilon 0.05 leave inactive sites that split the chain
        # and the hypercube forest
        cases = itertools.product((128, 256), (("original", None), ("binary", "shifted")),
                                  (None, 1000), (None, 0.05))
        digest = hashlib.sha256()
        for idx, (n, (protocol, mode), shots, epsilon) in enumerate(cases):
            rng = np.random.default_rng(idx)
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            alpha /= np.linalg.norm(alpha)
            energy, diag = meas.estimate_energy(
                ham.random_hermitian_instance(n, seed=idx), alpha, protocol, shots=shots, seed=idx,
                emap=encoding.build_map(n, mode) if mode else None, epsilon=epsilon,
            )
            diag["phase_graph"] = phase_graph_rows(diag["phase_graph"])
            digest.update(json.dumps([repr(energy), diag], sort_keys=True).encode())
        assert digest.hexdigest() == "a2a78c02c98ddac2128accb834d841b1e955f5dbdeb3f77e626c2f1cc8b79ef4"

    @pytest.mark.parametrize("n", [1, 8, 13, 64])
    @pytest.mark.parametrize("protocol", ["original", "binary"])
    @pytest.mark.parametrize("shots", [None, 1000])
    def test_phase_graph_columns_are_the_graphs_arrays(self, n, protocol, shots):
        rng = np.random.default_rng(n)
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        alpha[n // 3: n // 2] = 0.0  # inactive sites split the chain, and some forests
        alpha /= np.linalg.norm(alpha)
        layout = meas._layout(protocol, n, encoding.build_map(n) if protocol == "binary" else None)
        probs, cos, sin = meas._measure(layout, alpha, shots, seed=n)
        profile, pgraph = meas.reconstruct_profile(probs, layout.pair_j, layout.pair_k, cos, sin, shots=shots)
        summary = meas.phase_graph_summary(pgraph)
        assert set(summary) == {"edge_j", "edge_k", "delta", "weight", "in_tree", "component", "n_components"}
        for name in ("edge_j", "edge_k", "delta", "weight", "in_tree", "component"):
            # as JSON, so a bool stays true and an int is not written as a float
            assert json.dumps(summary[name]) == json.dumps(getattr(pgraph, name).tolist()), name
        assert summary["n_components"] == pgraph.n_components
        assert summary["component"] == np.where(profile.active, pgraph.component, -1).tolist()
        # a forest has one edge fewer than sites in each component
        assert sum(summary["in_tree"]) == int(profile.active.sum()) - summary["n_components"]

    def test_unknown_protocol(self):
        h = ham.chain_instance(2)
        with pytest.raises(ValueError, match="protocol"):
            meas.estimate_energy(h, random_site_vector(2, 0), "parity")


class TestAmplitudeProfile:
    def test_from_amplitudes_round_trip(self):
        alpha = random_site_vector(4, 99)
        profile = meas.AmplitudeProfile.from_amplitudes(alpha)
        np.testing.assert_allclose(profile.site_amplitudes(), alpha, atol=1e-12)

    def test_inactive_sites_read_zero(self):
        alpha = np.array([0.8, 1e-12, -0.6j])
        profile = meas.AmplitudeProfile.from_amplitudes(alpha)
        got = profile.site_amplitudes()
        assert got[1] == 0.0
        np.testing.assert_allclose(got, [0.8, 0.0, -0.6j], atol=1e-15)

    def test_phase_difference(self):
        alpha = np.array([1.0, np.exp(0.7j)]) / np.sqrt(2.0)
        profile = meas.AmplitudeProfile.from_amplitudes(alpha)
        assert profile.phases[1] - profile.phases[0] == pytest.approx(0.7, abs=1e-12)

    def test_summaries_are_json_ready(self):
        import json

        alpha = np.array([0.8, 0.0, 0.6], dtype=complex)
        profile = meas.AmplitudeProfile.from_amplitudes(alpha)
        doc = meas.profile_summary(profile)
        assert doc["phases"][1] is None
        json.dumps(doc)


NO_NETWORKX_SCRIPT = """
import sys
sys.modules["networkx"] = None  # any import of networkx now fails
import numpy as np
from sesvqe import encoding, hamiltonian, measurement

rng = np.random.default_rng(5)
for n in (5, 8):
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    alpha /= np.linalg.norm(alpha)
    h = hamiltonian.random_hermitian_instance(n, seed=n)
    want = float((alpha.conj() @ h.matrix @ alpha).real)
    emap = encoding.build_map(n)
    energy, _ = measurement.estimate_energy(h, alpha, "original")
    assert abs(energy - want) < 1e-10, (n, energy, want)
    energy, diag = measurement.estimate_energy(h, alpha, "binary", emap=emap)
    assert abs(energy - want) < 1e-10, (n, energy, want)
    graph = diag["phase_graph"]
    if n == 8:  # the 3-cube: 12 measured pairs, a 7-edge tree, five cycles
        assert (len(graph["edge_j"]), sum(graph["in_tree"])) == (12, 7), graph
    energy, _ = measurement.estimate_energy(h, alpha, "original", shots=2000, seed=1)
    assert np.isfinite(energy)
    energy, _ = measurement.estimate_energy(h, alpha, "binary", shots=2000, seed=1, emap=emap)
    assert np.isfinite(energy)
assert sys.modules["networkx"] is None
print("ok")
"""


def test_runs_without_networkx():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

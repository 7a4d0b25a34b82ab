"""Site Hamiltonians: the one-hot register operator oracle, penalty extension,
energy functional, I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAULI, kron_qubits
from sesvqe import cli
from sesvqe import hamiltonian as ham
from sesvqe.measurement import AmplitudeProfile, estimate_energy
from sesvqe.vqe import VqeConfig


def one_hot_operator(h: ham.SiteHamiltonian) -> np.ndarray:
    """Oracle: the one-hot register operator of ``h`` as a dense kron sum, qubit k = site k.

    sum_k h_kk (1 - Z_k)/2 + sum_{j<k} Re(h_jk)/2 (X_j X_k + Y_j Y_k)
    + Im(h_jk)/2 (Y_j X_k - X_j Y_k).
    """
    n = h.n_sites

    def string(*letters):
        on = dict(letters)
        return kron_qubits([PAULI[on.get(q, "I")] for q in range(n)])

    total = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(n):
        total += h.matrix[k, k].real * (string() - string((k, "Z"))) / 2
        for j in range(k):
            re, im = h.matrix[j, k].real, h.matrix[j, k].imag
            total += re / 2 * (string((j, "X"), (k, "X")) + string((j, "Y"), (k, "Y")))
            total += im / 2 * (string((j, "Y"), (k, "X")) - string((j, "X"), (k, "Y")))
    return total


def test_hermiticity_enforced():
    with pytest.raises(ValueError, match="Hermitian"):
        ham.SiteHamiltonian(2, np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="shape"):
        ham.SiteHamiltonian(3, np.zeros((2, 2)))
    ham.SiteHamiltonian.from_matrix([[1.0, 2j], [-2j, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_refused(bad):
    for mat in ([[bad, 0.0], [0.0, 1.0]], [[0.0, bad], [np.conj(bad), 1.0]]):
        with pytest.raises(ValueError, match="finite"):
            ham.SiteHamiltonian.from_matrix(mat)


def test_matrix_is_read_only():
    h = ham.chain_instance(3)
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 5.0


class TestPauliDecompose:
    """The oracle against hand-expanded Pauli sums, then against sesvqe."""

    def test_two_site_hopping(self):
        t = 0.7
        h = ham.SiteHamiltonian.from_matrix([[0, t], [t, 0]])
        want = t / 2 * (kron_qubits([PAULI["X"]] * 2) + kron_qubits([PAULI["Y"]] * 2))
        np.testing.assert_allclose(one_hot_operator(h), want, atol=1e-15)

    def test_single_site(self):
        eps = -1.3
        h = ham.SiteHamiltonian.from_matrix([[eps]])
        np.testing.assert_allclose(one_hot_operator(h), eps / 2 * (PAULI["I"] - PAULI["Z"]), atol=1e-15)

    def test_imaginary_hopping_terms(self):
        h = ham.SiteHamiltonian.from_matrix([[0, 1j], [-1j, 0]])
        want = 0.5 * kron_qubits([PAULI["Y"], PAULI["X"]]) - 0.5 * kron_qubits([PAULI["X"], PAULI["Y"]])
        np.testing.assert_allclose(one_hot_operator(h), want, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_register_operator_restricts_to_h(self, seed):
        # project the dense register operator onto the three single-bit states
        h = ham.random_hermitian_instance(3, seed=seed)
        idx = [1 << k for k in range(3)]
        block = one_hot_operator(h)[np.ix_(idx, idx)]
        np.testing.assert_allclose(block, h.matrix, atol=1e-12)

    def test_vacuum_state_has_zero_energy(self):
        h = ham.random_hermitian_instance(3, seed=5)
        assert abs(one_hot_operator(h)[0, 0]) < 1e-12

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_single_excitation_mapping(self, n, seed):
        rng = np.random.default_rng(seed)
        h = ham.random_hermitian_instance(n, seed=int(rng.integers(2**31)))
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        alpha /= np.linalg.norm(alpha)
        operator = one_hot_operator(h)
        one_hot = 1 << np.arange(n)
        np.testing.assert_allclose(operator[np.ix_(one_hot, one_hot)], h.matrix, atol=1e-12)
        register = np.zeros(2**n, dtype=complex)
        register[one_hot] = alpha
        energy = np.vdot(register, operator @ register).real
        assert abs(energy - np.vdot(alpha, h.matrix @ alpha).real) <= 1e-12
        assert abs(estimate_energy(h, alpha, "original")[0] - energy) <= 1e-12


class TestPenaltyExtension:
    def test_padding_diagonal(self):
        h = ham.chain_instance(3)
        ext = ham.extend_with_penalty(h, 100.0)
        assert ext.n_sites == 4
        np.testing.assert_allclose(ext.matrix[:3, :3], h.matrix, atol=1e-15)
        assert ext.matrix[3, 3] == pytest.approx(100.0)
        assert np.max(np.abs(ext.matrix[3, :3])) == 0.0

    def test_ground_energy_preserved(self):
        h = ham.random_hermitian_instance(6, seed=2)
        ext = ham.extend_with_penalty(h, ham.default_penalty(h))
        assert ext.n_sites == 8
        assert ham.ground_energy(ext) == pytest.approx(ham.ground_energy(h), abs=1e-10)

    def test_penalty_validation(self):
        for c_p in (0.0, -3.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                ham.extend_with_penalty(ham.chain_instance(3), c_p)

    @pytest.mark.parametrize("c_p", [True, np.True_, "5", None])
    def test_penalty_must_be_a_real_number(self, c_p):
        with pytest.raises(ValueError, match="positive and finite"):
            ham.check_penalty(c_p)
        if c_p is not None:  # a config's None picks the default penalty
            with pytest.raises(ValueError, match="positive and finite"):
                VqeConfig(ham.chain_instance(3), ansatz="hardware_efficient", penalty=c_p)

    def test_default_penalty_value(self):
        h = ham.SiteHamiltonian.from_matrix([[0, 1], [1, 0]])
        assert ham.default_penalty(h) == pytest.approx(20.0)
        tiny = ham.SiteHamiltonian.from_matrix([[0.01, 0], [0, 0.02]])
        assert ham.default_penalty(tiny) == pytest.approx(1.0)

    def test_default_penalty_clears_a_lifted_spectrum(self, lifted_chain):
        # ten times the range (10.39) sits below this spectrum, near 100
        h = lifted_chain
        eigs = h.spectrum
        c_p = ham.default_penalty(h)
        assert c_p == pytest.approx(eigs[-1] + (eigs[-1] - eigs[0]))
        extended = ham.extend_with_penalty(h, c_p)
        assert ham.ground_energy(extended) == pytest.approx(eigs[0], abs=1e-12)


class TestSpectrum:
    def test_symmetric_hopping_pair(self):
        h = ham.SiteHamiltonian.from_matrix([[0, 1], [1, 0]])
        np.testing.assert_allclose(h.spectrum, [-1.0, 1.0], atol=1e-14)
        assert ham.ground_energy(h) == pytest.approx(-1.0)

    def test_four_site_chain_closed_form(self):
        h = ham.chain_instance(4, hopping=1.0)
        want = sorted(2.0 * np.cos(k * np.pi / 5.0) for k in range(1, 5))
        np.testing.assert_allclose(h.spectrum, want, atol=1e-12)
        # golden-ratio pair
        np.testing.assert_allclose(
            h.spectrum,
            [-1.618033988749895, -0.6180339887498949, 0.6180339887498949, 1.618033988749895],
            atol=1e-12,
        )

    def test_single_site(self):
        h = ham.SiteHamiltonian.from_matrix([[0.25]])
        np.testing.assert_allclose(h.spectrum, [0.25])

    def test_permutation_invariance(self):
        h = ham.random_hermitian_instance(5, seed=3)
        perm = np.random.default_rng(0).permutation(5)
        p = np.eye(5)[perm]
        h2 = ham.SiteHamiltonian(5, p @ h.matrix @ p.T)
        np.testing.assert_allclose(h2.spectrum, h.spectrum, atol=1e-12)

    def test_computed_once_and_read_only(self, monkeypatch):
        h = ham.chain_instance(4)
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(1) or eigvalsh(mat))
        assert h.spectrum is h.spectrum
        assert ham.default_penalty(h) == pytest.approx(10 * (h.spectrum[-1] - h.spectrum[0]))
        assert ham.ground_energy(h) == h.spectrum[0]
        assert calls == [1]
        with pytest.raises(ValueError, match="read-only"):
            h.spectrum[0] = 0.0

    def test_budget_guard(self, monkeypatch):
        # the refusal at a small budget; the CLI tests refuse 4097 sites end to end
        assert ham._SPECTRUM_BUDGET == 4096
        monkeypatch.setattr(ham, "_SPECTRUM_BUDGET", 8)
        assert ham.chain_instance(8).spectrum.size == 8
        with pytest.raises(ValueError, match="dense spectrum limited to 8 sites, got 9"):
            ham.chain_instance(9).spectrum


def profile_of(alpha) -> AmplitudeProfile:
    return AmplitudeProfile.from_amplitudes(np.asarray(alpha, dtype=complex))


class TestEnergyFromProfile:
    def test_single_site(self):
        h = ham.SiteHamiltonian.from_matrix([[2.5]])
        assert ham.energy_from_profile(h, profile_of([1.0])) == pytest.approx(2.5)

    def test_antisymmetric_pair(self):
        t = 0.9
        h = ham.SiteHamiltonian.from_matrix([[0, t], [t, 0]])
        alpha = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert ham.energy_from_profile(h, profile_of(alpha)) == pytest.approx(-t, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_quadratic_form(self, seed):
        rng = np.random.default_rng(seed)
        h = ham.random_hermitian_instance(5, seed=seed + 40)
        alpha = rng.normal(size=5) + 1j * rng.normal(size=5)
        alpha /= np.linalg.norm(alpha)
        want = np.vdot(alpha, h.matrix @ alpha).real
        got = ham.energy_from_profile(h, profile_of(alpha))
        assert got == pytest.approx(want, abs=1e-12)

    def test_inactive_sites_drop_their_couplings(self):
        h = ham.random_hermitian_instance(4, seed=7)
        alpha = np.array([0.0, 0.8, 0.6, 0.0], dtype=complex)
        got = ham.energy_from_profile(h, profile_of(alpha))
        want = np.vdot(alpha, h.matrix @ alpha).real
        assert got == pytest.approx(want, abs=1e-12)

    def test_all_but_one_inactive(self):
        h = ham.random_hermitian_instance(3, seed=8)
        got = ham.energy_from_profile(h, profile_of([0.0, 1.0, 0.0]))
        assert got == pytest.approx(h.matrix[1, 1].real, abs=1e-12)

    def test_super_normalized_rejected(self):
        with pytest.raises(ValueError, match="super-normalized"):
            AmplitudeProfile(
                2,
                np.array([1.0, 1.0]),
                np.zeros(2),
                np.array([True, True]),
                1e-9,
                0,
            )

    def test_size_mismatch(self):
        h = ham.chain_instance(3)
        with pytest.raises(ValueError, match="sites"):
            ham.energy_from_profile(h, profile_of([1.0, 0.0]))


class TestInstances:
    def test_chain_structure(self):
        h = ham.chain_instance(5, hopping=0.5)
        mat = h.matrix
        assert np.all(np.diag(mat) == 0)
        for k in range(4):
            assert mat[k, k + 1] == pytest.approx(0.5)
        assert mat[0, 2] == 0

    def test_chain_disorder_bounds_and_determinism(self):
        a = ham.chain_instance(50, 1.0, disorder=2.0, seed=11)
        b = ham.chain_instance(50, 1.0, disorder=2.0, seed=11)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        onsite = np.diag(a.matrix).real
        assert np.max(np.abs(onsite)) <= 2.0
        assert np.std(onsite) > 0.1
        c = ham.chain_instance(50, 1.0, disorder=2.0, seed=12)
        assert not np.array_equal(c.matrix, a.matrix)

    def test_random_hermitian(self):
        h = ham.random_hermitian_instance(6, seed=0)
        ham.SiteHamiltonian(h.n_sites, h.matrix)  # the constructor re-checks Hermiticity
        assert not np.allclose(h.matrix.imag, 0.0)

    def test_complex_ring(self):
        h = ham.complex_ring_instance(5, seed=4)
        ham.SiteHamiltonian(h.n_sites, h.matrix)  # the constructor re-checks Hermiticity
        mat = h.matrix
        for k in range(5):
            j = (k + 1) % 5
            assert abs(mat[k, j]) == pytest.approx(1.0)
        assert mat[0, 2] == 0

    def test_two_site_ring_keeps_hermiticity(self):
        h = ham.complex_ring_instance(2, seed=1)
        ham.SiteHamiltonian(h.n_sites, h.matrix)  # the constructor re-checks Hermiticity

    def test_family_registry(self, tmp_path):
        # `sesvqe gen` holds the family list; each name builds its instance
        builders = {
            "chain": ham.chain_instance,
            "random_hermitian": ham.random_hermitian_instance,
            "complex_ring": ham.complex_ring_instance,
        }
        for family, build in builders.items():
            out = tmp_path / f"{family}.json"
            assert cli.main(["gen", "--family", family, "--n-sites", "5", "--seed", "3", "--out", str(out)]) == 0
            np.testing.assert_allclose(ham.load_hamiltonian(out).matrix, build(5, seed=3).matrix, atol=1e-15)


def save_by_loop(h, path, meta=None):
    """The writer's former per-entry loop, kept as the oracle for its file bytes."""
    entries = []
    for j in range(h.n_sites):
        for k in range(j, h.n_sites):
            v = h.matrix[j, k]
            if v != 0:
                entries.append([j, k, float(v.real), float(v.imag)])
    doc = {"format": ham.FORMAT_TAG, "n_sites": h.n_sites, "entries": entries}
    if meta:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


class TestSaveLoad:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_file_bytes_match_the_entry_loop(self, tmp_path, n):
        rng = np.random.default_rng(n)
        dense = ham.random_hermitian_instance(n, seed=n).matrix.copy()
        dense[rng.random(n) < 0.5, :] *= rng.random(n) < 0.5  # exact zeros, some on the diagonal
        cases = {
            "chain": ham.chain_instance(n),  # a zero diagonal
            "disordered": ham.chain_instance(n, disorder=0.5, seed=n),
            "ring": ham.complex_ring_instance(n, seed=n),
            "random": ham.random_hermitian_instance(n, seed=n),
            "sparse": ham.SiteHamiltonian(n, np.triu(dense) + np.triu(dense, 1).conj().T),
        }
        for name, h in cases.items():
            meta = {"family": name, "n_sites": n} if n % 2 else None
            ham.save_hamiltonian(h, tmp_path / "new.json", meta=meta)
            save_by_loop(h, tmp_path / "old.json", meta=meta)
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes(), name

    def test_round_trip(self, tmp_path):
        for n in (1, 3, 6):
            h = ham.random_hermitian_instance(n, seed=n)
            path = tmp_path / f"h{n}.json"
            ham.save_hamiltonian(h, path, meta={"family": "random_hermitian"})
            back = ham.load_hamiltonian(path)
            assert back.n_sites == n
            np.testing.assert_allclose(back.matrix, h.matrix, atol=1e-15)

    def test_file_shape(self, tmp_path):
        h = ham.SiteHamiltonian.from_matrix([[1.0, 2 - 1j], [2 + 1j, 0.0]])
        path = tmp_path / "h.json"
        ham.save_hamiltonian(h, path)
        data = json.loads(path.read_text())
        assert data["format"] == "sesvqe-hamiltonian/1"
        assert data["n_sites"] == 2
        # upper triangle only, zeros skipped; entries are [row, col, re, im]
        cells = {(row, col) for row, col, _, _ in data["entries"]}
        assert cells == {(0, 0), (0, 1)}

    def test_load_rejects_bad_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other/9", "n_sites": 1, "entries": []}))
        with pytest.raises(ValueError, match="format"):
            ham.load_hamiltonian(path)

    def test_load_rejects_lower_triangle(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "sesvqe-hamiltonian/1",
                    "n_sites": 2,
                    "entries": [[1, 0, 1.0, 0.0]],
                }
            )
        )
        with pytest.raises(ValueError, match="below the diagonal"):
            ham.load_hamiltonian(path)

    def test_load_rejects_duplicate_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "sesvqe-hamiltonian/1",
                    "n_sites": 2,
                    "entries": [[0, 1, 1.0, 0.0], [0, 1, 2.0, 0.0]],
                }
            )
        )
        with pytest.raises(ValueError, match="duplicate"):
            ham.load_hamiltonian(path)

    def test_load_rejects_non_finite_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        for entry in ([0, 1, float("nan"), 0.0], [0, 0, 1.0, float("nan")]):
            doc = {"format": "sesvqe-hamiltonian/1", "n_sites": 2, "entries": [entry]}
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="finite|imaginary"):
                ham.load_hamiltonian(path)

    def test_load_rejects_complex_diagonal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "sesvqe-hamiltonian/1",
                    "n_sites": 1,
                    "entries": [[0, 0, 1.0, 0.5]],
                }
            )
        )
        with pytest.raises(ValueError, match="diagonal"):
            ham.load_hamiltonian(path)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_load_refuses_a_corrupted_field_with_value_error(self, tmp_path_factory, data):
        # a valid document with one field replaced by another JSON value: the
        # load succeeds (the value was valid too) or raises ValueError, never
        # any other exception
        h = ham.random_hermitian_instance(3, seed=4)
        doc = {"format": ham.FORMAT_TAG, "n_sites": 3,
               "entries": [[j, k, h.matrix[j, k].real, h.matrix[j, k].imag] for j in range(3) for k in range(j, 3)]}
        scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
                   | st.sampled_from([0.9, 2.7, 1e300, -1, 10**400]))
        value = data.draw(st.recursive(scalars, lambda inner: st.lists(inner, max_size=5)
                                       | st.dictionaries(st.text(max_size=3), inner, max_size=3)))
        where = data.draw(st.sampled_from(["document", "format", "n_sites", "entries", "entry", "field"]))
        if where == "document":
            doc = value
        elif where in ("format", "n_sites", "entries"):
            if where == "n_sites" and type(value) is int and 64 < value <= 4096:
                value = 64  # valid, and a larger one only allocates a bigger dense matrix
            doc[where] = value
        else:
            entry = data.draw(st.integers(0, len(doc["entries"]) - 1))
            if where == "entry":
                doc["entries"][entry] = value
            else:
                doc["entries"][entry][data.draw(st.integers(0, 3))] = value
        path = tmp_path_factory.mktemp("h") / "h.json"
        path.write_text(json.dumps(doc))
        try:
            ham.load_hamiltonian(path)
        except ValueError:
            pass

    def test_load_rejects_out_of_range_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "sesvqe-hamiltonian/1",
                    "n_sites": 2,
                    "entries": [[0, 2, 1.0, 0.0]],
                }
            )
        )
        with pytest.raises(ValueError, match="out of range"):
            ham.load_hamiltonian(path)


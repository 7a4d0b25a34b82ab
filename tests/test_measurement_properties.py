"""Property tests of the measurement layer against brute-force oracles.

Exact mode: on random Hermitian h and random states (some sites zeroed), both
protocols return |alpha| as magnitudes, the quadratic form of the state each
measured component reconstructs (alpha^H h alpha when no coupling crosses
components), and the unmeasured coupling lists of a plain double loop.

Shot mode: on random outcome counts, every histogram estimate equals the
per-bitstring sum it stands for, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sesvqe import encoding
from sesvqe import hamiltonian as ham
from sesvqe import measurement as meas
from sesvqe import statevector as sv

def sparse_hermitian(n, density, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    keep = np.triu(rng.random((n, n)) < density, 1)
    keep = keep | keep.T | np.eye(n, dtype=bool)
    return ham.SiteHamiltonian.from_matrix((m + m.conj().T) / 2.0 * keep)


def measured_pairs(protocol, n, emap):
    if protocol == "original":
        return [(j, j + 1) for j in range(n - 1)]
    return [(j, k) for j, k, _ in encoding.hypercube_edges(emap)]


def components(active, pairs):
    """Component label per active site by flood fill, numbered by lowest site."""
    label = [-1] * len(active)
    count = 0
    for start in range(len(active)):
        if not active[start] or label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            s = stack.pop()
            for j, k in pairs:
                for a, b in ((j, k), (k, j)):
                    if a == s and active[b] and label[b] < 0:
                        label[b] = count
                        stack.append(b)
        count += 1
    return label


def unmeasured_terms(h, active, label):
    inactive, cross = [], []
    for j in range(h.n_sites):
        for k in range(j + 1, h.n_sites):
            if h.matrix[j, k] == 0:
                continue
            if not (active[j] and active[k]):
                inactive.append((j, k))
            elif label[j] != label[k]:
                cross.append((j, k))
    return inactive, cross


@given(
    n=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
    # a few zeroed sites split a state into two or three components, many into more
    zeroed=st.one_of(st.lists(st.integers(0, 63), max_size=3), st.lists(st.integers(0, 63), max_size=40)),
    density=st.sampled_from([0.1, 0.5, 1.0]),
    protocol=st.sampled_from(["original", "binary"]),
    mode=st.sampled_from(["shifted", "plain"]),
)
def test_exact_mode_matches_brute_force(n, seed, zeroed, density, protocol, mode):
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    alpha[[z % n for z in zeroed]] = 0.0
    if not alpha.any():
        alpha[n - 1] = 1.0
    alpha /= np.linalg.norm(alpha)
    h = sparse_hermitian(n, density, rng)
    emap = encoding.build_map(n, mode) if protocol == "binary" else None

    energy, diag = meas.estimate_energy(h, alpha, protocol, emap=emap)

    np.testing.assert_allclose(diag["profile"]["magnitudes"], np.abs(alpha), rtol=0, atol=1e-10)
    active = (np.abs(alpha) > meas.EXACT_EPSILON).tolist()
    label = components(active, measured_pairs(protocol, n, emap))
    inactive, cross = unmeasured_terms(h, active, label)
    assert diag["inactive_terms"] == inactive
    assert diag["cross_component_terms"] == cross
    assert diag["phase_graph"]["component_of"] == [[s, c] for s, c in enumerate(label) if c >= 0]
    assert diag["n_components"] == max(label) + 1

    # each component comes back with its lowest site's phase set to 0
    anchored = alpha.copy()
    for c in range(max(label) + 1):
        members = [s for s, x in enumerate(label) if x == c]
        anchored[members] *= np.exp(-1j * np.angle(alpha[members[0]]))
    assert energy == pytest.approx(float((anchored.conj() @ h.matrix @ anchored).real), abs=1e-10)
    if not cross:
        assert energy == pytest.approx(float((alpha.conj() @ h.matrix @ alpha).real), abs=1e-10)


def bit(index, qubit):
    return (index >> qubit) & 1


def brute_mean(counts, value_of):
    """Mean over a histogram, one term per observed bitstring."""
    total = 0.0
    for index, count in enumerate(counts):
        if count:
            total += count * value_of(index)
    return total / int(sum(counts))


@st.composite
def histograms(draw):
    width = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 40), min_size=2**width, max_size=2**width))
    if not any(counts):
        counts[draw(st.integers(0, 2**width - 1))] = 1
    return width, np.array(counts, dtype=np.int64)


@given(histograms())
def test_one_hot_histogram_estimates_equal_bitstring_sums(data):
    width, counts = data
    shots = int(counts.sum())
    for setting in meas.settings_original(width):
        est = meas.estimate_setting(sv.ShotHistogram.from_counts(setting.label, counts), setting)
        assert est.shots_used == shots
        if setting.label == "MZ":
            want = [brute_mean(counts, lambda i, j=j: bit(i, j)) for j in range(width)]
        else:
            want = []
            for j in range(width - 1):
                raw = brute_mean(
                    counts, lambda i, j=j: (1 - 2 * bit(i, j)) * (1 - 2 * bit(i, j + 1))
                )
                want.append(raw if setting.label == "MXX" or setting.bases[j] == "X" else -raw)
        assert est.values.tolist() == want


@given(histograms(), st.data())
def test_packed_histogram_estimates_equal_bitstring_sums(data, choose):
    width, counts = data
    shots = int(counts.sum())
    low = 1 if width == 1 else 2 ** (width - 1) + 1
    emap = encoding.build_map(
        choose.draw(st.integers(low, 2**width)), choose.draw(st.sampled_from(["shifted", "plain"]))
    )
    for setting in meas.settings_binary(width):
        est = meas.estimate_setting(sv.ShotHistogram.from_counts(setting.label, counts), setting, emap)
        if setting.label == "BZ":
            found = [int(counts[emap.codeword(s)]) for s in range(emap.n_sites)]
            assert est.values.tolist() == [c / shots for c in found]
            assert est.extras == {
                "unknown_codeword_count": shots - sum(found),
                "unencoded_mass": (shots - sum(found)) / shots,
            }
            continue
        axis = setting.axis
        want = {}
        for j, k, pos in encoding.hypercube_edges(emap):
            if pos != axis:
                continue
            base0 = emap.codeword(j) & ~(1 << axis)
            raw = (int(counts[base0]) - int(counts[base0 | 1 << axis])) / shots
            if setting.label.startswith("BY") and bit(emap.codeword(j), axis):
                raw = -raw
            want[j, k] = raw
        got = dict(zip(zip(est.sites.tolist(), est.partners.tolist()), est.values.tolist()))
        assert got == want


@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    protocol=st.sampled_from(["original", "binary"]),
    mode=st.sampled_from(["shifted", "plain"]),
)
# a full shifted register is where hypercube_edges lists pairs out of site order
@example(n=8, seed=0, protocol="binary", mode="shifted")
@example(n=32, seed=1, protocol="binary", mode="shifted")
def test_phase_graph_lists_each_measured_pair_once_in_site_order(n, seed, protocol, mode):
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    alpha /= np.linalg.norm(alpha)
    h = sparse_hermitian(n, 0.5, rng)
    emap = encoding.build_map(n, mode) if protocol == "binary" else None

    _, diag = meas.estimate_energy(h, alpha, protocol, emap=emap)

    assert all(diag["profile"]["active"])
    listed = [(j, k) for j, k, _, _ in diag["phase_graph"]["edges"]]
    assert listed == sorted(measured_pairs(protocol, n, emap))
    assert len(set(listed)) == len(listed)
    assert all(j < k for j, k in listed)

"""Property tests of the measurement layer against brute-force oracles.

Exact mode: on random Hermitian h and random states (some sites zeroed), both
protocols return |alpha| as magnitudes, the quadratic form of the state each
measured component reconstructs (alpha^H h alpha when no coupling crosses
components), and the unmeasured coupling lists of a plain double loop.  On
random activity masks and component labels those lists equal the N x N mask
form they were once built from, pair for pair and in order.

Shot mode: on random outcome counts, every histogram estimate equals the
per-bitstring sum it stands for, bit for bit.

Phase forest: pairs that form a path in site order, and the packed
protocol's hypercube edges, give the forest and the phases of the
root-chasing Kruskal walk that every pair graph once took, bit for bit, and
``np.float_power(x, 2.0)`` squares like Python's ``x ** 2``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rows_histogram, setting_estimate
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
    assert diag["phase_graph"]["component"] == label
    assert diag["n_components"] == max(label) + 1

    # each component comes back with its lowest site's phase set to 0
    anchored = alpha.copy()
    for c in range(max(label) + 1):
        members = [s for s, x in enumerate(label) if x == c]
        anchored[members] *= np.exp(-1j * np.angle(alpha[members[0]]))
    assert energy == pytest.approx(float((anchored.conj() @ h.matrix @ anchored).real), abs=1e-10)
    if not cross:
        assert energy == pytest.approx(float((alpha.conj() @ h.matrix @ alpha).real), abs=1e-10)


def unmeasured_terms_by_masks(h, profile, pgraph):
    """The N x N mask form of the unmeasured coupling lists, kept as the oracle of
    the coupling-list filter that replaced it."""
    def pairs_of(mask):
        j, k = np.nonzero(mask)
        return list(zip(j.tolist(), k.tolist()))

    active = profile.active
    if active.all() and pgraph.n_components == 1:
        return [], []
    coupled = np.triu(h.matrix != 0, 1)
    both = np.outer(active, active)
    inactive = pairs_of(coupled & ~both)
    if pgraph.n_components < 2:
        return inactive, []
    component = pgraph.component
    return inactive, pairs_of(coupled & both & (component[:, None] != component[None, :]))


@given(
    n=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    one_component=st.booleans(),
    data=st.data(),
)
def test_unmeasured_terms_match_the_mask_form(n, seed, density, one_component, data):
    h = sparse_hermitian(n, density, np.random.default_rng(seed))
    if one_component:  # every site active in one component: the early return
        active, labels = [True] * n, [0] * n
    else:
        active = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    active = np.array(active)
    component = np.where(active, labels, -1)
    empty = np.zeros(0)
    profile = meas.AmplitudeProfile(n, np.zeros(n), np.zeros(n), active, 0.0, None)
    pgraph = meas.PhaseGraph(
        edge_j=empty, edge_k=empty, delta=empty, cos=empty, sin=empty, in_tree=empty,
        component=component, n_components=len(set(component[active].tolist())),
    )
    got = meas._unmeasured_terms(h, profile, pgraph)
    assert list(got) == list(unmeasured_terms_by_masks(h, profile, pgraph))


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
    for setting in meas.settings_original(width):
        est = setting_estimate(rows_histogram(setting.label, counts), setting)
        if setting.label == "MZ":
            want = [brute_mean(counts, lambda i, j=j: bit(i, j)) for j in range(width)]
        else:
            want = []
            for j in range(width - 1):
                raw = brute_mean(
                    counts, lambda i, j=j: (1 - 2 * bit(i, j)) * (1 - 2 * bit(i, j + 1))
                )
                want.append(raw if setting.label == "MXX" or setting.bases[j] == "X" else -raw)
        assert est.tolist() == want


@given(histograms(), st.data())
def test_packed_histogram_estimates_equal_bitstring_sums(data, choose):
    width, counts = data
    shots = int(counts.sum())
    low = 1 if width == 1 else 2 ** (width - 1) + 1
    emap = encoding.build_map(
        choose.draw(st.integers(low, 2**width)), choose.draw(st.sampled_from(["shifted", "plain"]))
    )
    # unsigned counts too: an X/Y estimate is a difference of two counts
    dtype = choose.draw(st.sampled_from([np.int64, np.uint64, np.uint8]))
    for setting in meas.settings_binary(width):
        record = sv.ShotHistogram(setting.label, None, counts.astype(dtype), shots)
        est = setting_estimate(record, setting, emap)
        if setting.label == "BZ":
            found = [int(counts[emap.codeword(s)]) for s in range(emap.n_sites)]
            assert est.tolist() == [c / shots for c in found]
            continue
        axis = next(q for q, b in enumerate(setting.bases) if b != "Z")
        # one value per edge on the setting's axis, in hypercube_edges order
        want = []
        for j, k, pos in encoding.hypercube_edges(emap):
            if pos != axis:
                continue
            base0 = emap.codeword(j) & ~(1 << axis)
            raw = (int(counts[base0]) - int(counts[base0 | 1 << axis])) / shots
            if setting.label.startswith("BY") and bit(emap.codeword(j), axis):
                raw = -raw
            want.append(raw)
        assert est.tolist() == want


@given(n=st.integers(2, 64), mode=st.sampled_from(["shifted", "plain"]))
@example(n=64, mode="shifted")
def test_each_packed_setting_resolves_the_pairs_its_bases_flip(n, mode):
    # oracle: every site pair whose codewords differ exactly at the qubit the
    # setting's bases hold X or Y on, found by brute force over the map
    emap = encoding.build_map(n, mode)
    layout = meas._layout("binary", n, emap)
    codewords = emap.codewords
    for setting in layout.settings:
        if setting.kind == "prob":
            assert setting.label not in layout.groups
            continue
        (flip,) = [q for q, b in enumerate(setting.bases) if b in "XY"]
        want = {(j, k) for j in range(n) for k in range(j + 1, n) if codewords[j] ^ codewords[k] == 1 << flip}
        group = layout.groups[setting.label]
        low, high = group.low.tolist(), group.high.tolist()
        assert all(codewords[a] >> flip & 1 == 0 for a in low)
        got = [(min(a, b), max(a, b)) for a, b in zip(low, high)]
        assert len(got) == len(want) and set(got) == want
        # each estimate lands on its own pair of the layout's list
        assert list(zip(layout.pair_j[group.index].tolist(), layout.pair_k[group.index].tolist())) == got


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
    listed = list(zip(diag["phase_graph"]["edge_j"], diag["phase_graph"]["edge_k"]))
    assert listed == sorted(measured_pairs(protocol, n, emap))
    assert len(set(listed)) == len(listed)
    assert all(j < k for j, k in listed)


def parent_spanning_forest(active, js, ks, deltas, weights):
    """Kruskal with a path-halving union-find over a sorted edge list, and the
    walk over its tree, as every pair graph took them before pairs forming a
    path in site order got their own route: the oracle for that route and for
    the relabelling union-find that replaced it."""
    n_sites = len(active)
    root = list(range(n_sites))

    def find(s):
        while root[s] != s:
            root[s] = s = root[root[s]]
        return s

    in_tree = [False] * len(js)
    links = [[] for _ in range(n_sites)]
    for e in sorted(range(len(js)), key=weights.__getitem__, reverse=True):
        j, k = js[e], ks[e]
        a, b = find(j), find(k)
        if a == b:
            continue
        if a < b:
            root[b] = a
        else:
            root[a] = b
        in_tree[e] = True
        links[j].append((k, deltas[e]))
        links[k].append((j, -deltas[e]))

    component = [-1] * n_sites
    phases = [np.nan] * n_sites
    n_components = 0
    for start in range(n_sites):
        if not active[start] or root[start] != start:
            continue
        component[start] = n_components
        phases[start] = 0.0
        frontier = [start]
        for site in frontier:
            for other, step in links[site]:
                if component[other] < 0:
                    component[other] = n_components
                    phases[other] = phases[site] + step
                    frontier.append(other)
        n_components += 1
    return in_tree, component, n_components, phases


# zero (both signs), tied and negative correlator values
TIED = [0.0, -0.0, 0.25, -0.25, 0.5, -1.0]


# noise 0.0 doubles the draws, so about 300 still carry noisy probabilities
@settings(max_examples=600)
@given(
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    dropped=st.sampled_from([0.0, 0.2, 0.5]),
    inactive=st.lists(st.tuples(st.integers(0, 63), st.integers(1, 8)), max_size=6),
    tied=st.sampled_from([0.0, 0.5, 1.0]),
    epsilon=st.sampled_from([None, 0.0, 0.05]),
    shots=st.sampled_from([None, 1000]),
    order=st.sampled_from(["path", "path", "reversed", "repeated"]),
    noise=st.sampled_from([0.002, 0.0]),
)
# the running sum starts from the root's 0.0: a first delta of -0.0 (sin -0.0,
# cos 0.5) must give site 1 the phase 0.0 + -0.0 = 0.0, as the walk does
@example(n=8, seed=22, dropped=0.0, inactive=[], tied=1.0, epsilon=None, shots=None, order="path", noise=0.002)
# two runs split by the inactive site 3
@example(n=8, seed=3, dropped=0.0, inactive=[(3, 1)], tied=0.0, epsilon=None, shots=None, order="path", noise=0.002)
# every site active at reconstruct_sweep's size
@example(n=256, seed=5, dropped=0.0, inactive=[], tied=0.0, epsilon=None, shots=None, order="path", noise=0.0)
def test_path_route_equals_the_kruskal_walk(n, seed, dropped, inactive, tied, epsilon, shots, order, noise):
    rng = np.random.default_rng(seed)
    # sub-normalised probabilities, noisy (some negative) or not, with runs of zeros
    probs = rng.random(n)
    probs *= rng.uniform(0.5, 0.9) / probs.sum()
    probs += rng.normal(scale=noise, size=n)
    for start, length in inactive:
        probs[start % n:start % n + length] = 0.0
    # pairs (j, j + 1), j strictly increasing, some of the chain's left out;
    # reversed or with a pair repeated they are no path, and take Kruskal
    j = np.flatnonzero(rng.random(max(n - 1, 0)) >= dropped)
    if order == "reversed":
        j = j[::-1]
    elif order == "repeated" and j.size:
        j = np.sort(np.append(j, rng.choice(j)))
    k = j + 1
    cos, sin = rng.normal(size=(2, j.size))
    ties = rng.random(j.size) < tied
    cos[ties] = rng.choice(TIED, size=int(ties.sum()))
    sin[ties] = rng.choice(TIED, size=int(ties.sum()))

    with mock.patch.object(meas, "_spanning_forest", wraps=meas._spanning_forest) as kruskal:
        profile, pgraph = meas.reconstruct_profile(probs, j, k, cos, sin, epsilon, shots)
    assert kruskal.called == (order != "path" and j.size > 1)

    threshold = meas.pick_epsilon(shots) if epsilon is None else epsilon
    active = np.sqrt(np.maximum(probs, 0.0)) > threshold
    keep = active[j] & active[k]
    c, s = cos[keep], sin[keep]
    delta = np.arctan2(s, c)
    weights = [y**2 + x**2 for x, y in zip(c.tolist(), s.tolist())]
    in_tree, component, n_components, phases = parent_spanning_forest(
        active.tolist(), j[keep].tolist(), k[keep].tolist(), delta.tolist(), weights
    )
    assert pgraph.in_tree.tolist() == in_tree
    assert pgraph.component.tolist() == component
    assert pgraph.n_components == n_components
    # bit for bit, NaN on the inactive sites included
    assert profile.phases.tobytes() == np.array(phases).tobytes()
    assert pgraph.delta.tobytes() == delta.tobytes()
    assert pgraph.weight.tobytes() == np.array(weights).tobytes()


@settings(max_examples=300)
@given(
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["shifted", "plain"]),
    shots=st.sampled_from([None, 1000]),
    # a few zeroed sites leave one forest, many split it
    zeroed=st.one_of(st.lists(st.integers(0, 63), max_size=3), st.lists(st.integers(0, 63), max_size=40)),
    tied=st.sampled_from([0.0, 0.5, 1.0]),
)
# every site active at reconstruct_sweep's size, then tied and split at it
@example(n=256, seed=5, mode="shifted", shots=None, zeroed=[], tied=0.0)
@example(n=256, seed=6, mode="shifted", shots=1000, zeroed=[3, 40, 41, 200], tied=0.5)
def test_packed_forest_equals_the_union_find_kruskal(n, seed, mode, shots, zeroed, tied):
    # the relabelling Kruskal over one stable argsort against the root-chasing
    # one over a sorted list: the same forest, found in the same order, so the
    # same phases bit for bit, on the hypercube edges the packed protocol measures
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
    alpha[[z % n for z in zeroed]] = 0.0
    if not alpha.any():
        alpha[n - 1] = 1.0
    alpha /= np.linalg.norm(alpha)
    layout = meas._layout("binary", n, encoding.build_map(n, mode))
    probs, cos, sin = meas._measure(layout, alpha, shots, seed)
    ties = rng.random(cos.size) < tied
    cos[ties] = rng.choice(TIED, size=int(ties.sum()))
    sin[ties] = rng.choice(TIED, size=int(ties.sum()))
    active = np.sqrt(np.maximum(probs, 0.0)) > meas.pick_epsilon(shots)
    keep = active[layout.pair_j] & active[layout.pair_k]
    j, k, c, s = layout.pair_j[keep].tolist(), layout.pair_k[keep].tolist(), cos[keep], sin[keep]
    delta, weight = np.arctan2(s, c).tolist(), meas._edge_weight(c, s)

    in_tree, component, n_components, phases = meas._spanning_forest(active.tolist(), j, k, delta, weight)
    want = parent_spanning_forest(active.tolist(), j, k, delta, weight.tolist())
    assert in_tree.tolist() == want[0]
    assert component.tolist() == want[1]
    assert n_components == want[2]
    assert phases.tobytes() == np.array(want[3]).tobytes()


# many doubles over the whole range the squares stay finite in
MANY_DOUBLES = (
    np.random.default_rng(0).normal(size=4096) * 10.0 ** np.random.default_rng(1).uniform(-160, 150, 4096)
).tolist()


@given(st.lists(
    st.one_of(
        st.floats(-1e150, 1e150),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-150, -1e-150, 1e150, -1e150]),
    ),
    min_size=1, max_size=256,
))
@example(MANY_DOUBLES)
def test_float_power_squares_like_python(xs):
    # reconstruct_profile's edge weights are np.float_power(x, 2.0), which
    # must round like Python's x ** 2 (libm pow), as the weights did when
    # they were a list: np.square (x * x) differs in the last bit on about
    # 0.1% of doubles, and a numpy build that sent float_power to a SIMD pow
    # could too; either would reorder near-tied shot-mode edges and so move
    # the forest without any other test noticing
    got = np.float_power(np.array(xs), 2.0)
    assert got.tobytes() == np.array([x**2 for x in xs]).tobytes()

"""Few-setting measurement protocols and amplitude-profile reconstruction.

Two protocols estimate the energy of a single-particle state from product
measurements alone:

* ``original`` runs on the one-hot register of N qubits with three settings:
  all-Z (site occupations), all-X (neighbor cosine correlators) and an
  alternating X/Y pattern (neighbor sine correlators).
* ``binary`` runs on a packed n-qubit register with 2n + 1 settings: all-Z
  plus, for each qubit ell, one setting with X (resp. Y) on ell and Z
  elsewhere.  Each X/Y setting resolves every encoded pair whose codewords
  differ exactly at ell.

Each setting carries its kind (``prob``, ``cos`` or ``sin``); one layout per
(protocol, N), built once, says what each setting measures: the chain pairs
(j, j+1) for ``original``, the hypercube edges of the encoding map for
``binary``.  A setting's estimate is a bare array in that layout's order.
Pairs are read in site order (j < k) as cos: 2 r_j r_k cos(t_k - t_j) and
sin: 2 r_j r_k sin(t_k - t_j).  Relative phases come from a maximum-weight
spanning forest over the measured pairs, so a state is reconstructed up to
one global phase per connected component.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import statevector as sv
from .encoding import EncodingMap, hypercube_edges
from .hamiltonian import SiteHamiltonian, energy_from_profile

EXACT_EPSILON = 1e-9


@dataclass(frozen=True)
class MeasurementSetting:
    """One product-measurement context: a basis letter per qubit, and the
    ``kind`` it estimates (``prob``, ``cos`` or ``sin``)."""

    label: str
    bases: str
    protocol: str
    kind: str
    axis: int | None = None

    def __post_init__(self):
        bad = set(self.bases) - set("XYZ")
        if bad:
            raise ValueError(f"unknown basis letters {sorted(bad)} in {self.bases!r}")
        if self.kind not in ("prob", "cos", "sin"):
            raise ValueError(f"unknown setting kind {self.kind!r}")


@dataclass(frozen=True)
class AmplitudeProfile:
    """Magnitude/phase description of a site-space state.

    Phases are defined only on sites whose magnitude clears the activity
    threshold; each connected reconstruction component is anchored at phase 0
    on its lowest-index active site.
    """

    n_sites: int
    magnitudes: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)
    threshold: float
    reference_site: int | None

    def __post_init__(self):
        r = np.asarray(self.magnitudes, dtype=float)
        if (r < 0).any():
            raise ValueError("magnitudes must be non-negative")
        norm_sq = float((r**2).sum())
        if norm_sq > 1.0 + 1e-6:
            raise ValueError(f"profile is super-normalized: sum r^2 = {norm_sq!r}")

    def site_amplitudes(self) -> np.ndarray:
        """Complex site vector, zero on inactive sites."""
        theta = np.where(self.active, self.phases, 0.0)
        return np.where(self.active, self.magnitudes * np.exp(1j * theta), 0.0)

    @staticmethod
    def from_amplitudes(alpha, threshold: float = EXACT_EPSILON) -> "AmplitudeProfile":
        alpha = np.asarray(alpha, dtype=complex)
        r = np.abs(alpha)
        active = r > threshold
        phases = np.where(active, np.angle(alpha), np.nan)
        ref = int(np.argmax(active)) if active.any() else None
        return AmplitudeProfile(alpha.size, r, phases, active, threshold, ref)


@dataclass(frozen=True)
class PhaseGraph:
    """Measured pair-phase relations over the active sites.

    Edge ``i`` joins sites ``edge_j[i] < edge_k[i]`` (edges sorted in site
    order); ``delta[i]`` estimates ``t_k - t_j`` and ``weight[i]`` is
    ``cos_est^2 + sin_est^2``.  ``in_tree`` marks the maximum-weight spanning
    forest actually used for propagation; ``component[s]`` is the component
    index of site ``s`` (components numbered by their lowest site), -1 for an
    inactive site.
    """

    edge_j: np.ndarray = field(repr=False)
    edge_k: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    in_tree: np.ndarray = field(repr=False)
    component: np.ndarray = field(repr=False)
    n_components: int


def settings_original(n_sites: int) -> list:
    """Three settings for the one-hot register of ``n_sites`` qubits."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    alternating = "".join("X" if q % 2 == 0 else "Y" for q in range(n_sites))
    return [
        MeasurementSetting("MZ", "Z" * n_sites, "original", "prob"),
        MeasurementSetting("MXX", "X" * n_sites, "original", "cos"),
        MeasurementSetting("MXY", alternating, "original", "sin"),
    ]


def settings_binary(num_qubits: int) -> list:
    """The 2n + 1 settings for a packed ``num_qubits`` register."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    out = [MeasurementSetting("BZ", "Z" * num_qubits, "binary", "prob")]
    for axis in range(num_qubits):
        for letter, kind in (("X", "cos"), ("Y", "sin")):
            bases = "".join(letter if q == axis else "Z" for q in range(num_qubits))
            out.append(MeasurementSetting(f"B{letter}{axis}", bases, "binary", kind, axis))
    return out


@dataclass(frozen=True)
class _PairGroup:
    """The pairs one X/Y setting resolves, in its estimate's order.

    The setting measures the raw correlator 2 conj(a_low) a_high of pair
    ``i`` in register order: ``low[i]`` is the site on the X qubit (one-hot)
    or whose codeword has bit 0 at the flip axis (packed).  ``sign[i]`` is +1
    where ``low[i]`` is the lower site, so ``sign * Im(raw)`` is the
    site-ordered sine.  ``index[i]`` is the place of pair ``i`` in the
    layout's pair list.
    """

    low: np.ndarray
    high: np.ndarray
    sign: np.ndarray
    index: np.ndarray


@dataclass(frozen=True)
class _Layout:
    """What a protocol measures on one (protocol, N), built once.

    ``settings`` are the protocol's settings in sampling order.
    ``groups[axis]`` holds the pairs of the X/Y settings on flip axis
    ``axis`` (key ``None`` for the one-hot settings); ``pair_j``/``pair_k``
    list every measured pair once, in site order (ascending ``j * N + k``).
    ``positions`` holds each packed site's codeword, the register basis index
    that carries it; it is None for the one-hot register, where site j is
    qubit j.
    """

    settings: tuple
    n_sites: int
    groups: dict
    positions: np.ndarray | None
    pair_j: np.ndarray
    pair_k: np.ndarray


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)  # shared by every later estimate
    return arrays


def _pair_group(j, k, j_is_low, index) -> _PairGroup:
    low, high = np.where(j_is_low, j, k), np.where(j_is_low, k, j)
    return _PairGroup(*_read_only(low, high, np.where(j_is_low, 1.0, -1.0), index))


@functools.lru_cache(maxsize=64)
def _chain_layout(n_sites: int) -> _Layout:
    settings = tuple(settings_original(n_sites))
    j, k = _read_only(np.arange(n_sites - 1), np.arange(1, n_sites))
    # the alternating pattern puts X on even qubits
    group = _pair_group(j, k, j % 2 == 0, j)
    return _Layout(settings, n_sites, {None: group}, None, j, k)


def _binary_layout(emap: EncodingMap) -> _Layout:
    j, k, axis = np.array(hypercube_edges(emap), dtype=np.int64).reshape(-1, 3).T
    order = np.argsort(j * emap.n_sites + k, kind="stable")
    index = np.empty_like(order)
    index[order] = np.arange(order.size)
    positions = np.array(emap.codewords, dtype=np.int64)
    j_is_low = (positions[j] >> axis) & 1 == 0
    groups = {}
    for a in range(emap.num_qubits):
        on_axis = axis == a
        groups[a] = _pair_group(j[on_axis], k[on_axis], j_is_low[on_axis], index[on_axis])
    positions, pair_j, pair_k = _read_only(positions, j[order], k[order])
    return _Layout(tuple(settings_binary(emap.num_qubits)), emap.n_sites, groups, positions, pair_j, pair_k)


def _layout(protocol: str, n_sites: int, emap: EncodingMap | None) -> _Layout:
    """The protocol's layout; the packed one is built once per encoding map."""
    if protocol == "original":
        return _chain_layout(n_sites)
    if protocol != "binary":
        raise ValueError(f"unknown protocol {protocol!r}")
    if emap is None:
        raise ValueError("binary protocol requires an encoding map")
    layout = getattr(emap, "_layout_cache", None)
    if layout is None:
        layout = _binary_layout(emap)
        object.__setattr__(emap, "_layout_cache", layout)
    return layout


def _check_histogram(hist: sv.ShotHistogram, setting: MeasurementSetting):
    if hist.setting_label != setting.label:
        raise ValueError(
            f"histogram for setting {hist.setting_label!r} used with {setting.label!r}"
        )
    if hist.num_qubits != len(setting.bases):
        raise ValueError(f"histogram width {hist.num_qubits} != setting width {len(setting.bases)}")
    if (hist.rows is None) != (setting.protocol == "binary"):
        want = "2^width outcome counts" if setting.protocol == "binary" else "outcome rows"
        raise ValueError(f"{setting.protocol} setting {setting.label!r} reads a record of {want}")


def _site_vector(alpha, n_sites: int) -> np.ndarray:
    """``alpha`` as complex site amplitudes; refused unless a finite array of ``n_sites``."""
    if not isinstance(alpha, np.ndarray):
        raise TypeError(f"unsupported source type {type(alpha).__name__}")
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.size != n_sites:
        raise ValueError(f"site vector length {alpha.size} != {n_sites} sites")
    if not np.isfinite(alpha).all():
        raise ValueError("site vector has non-finite entries")
    return alpha


class _CheckedSites(NamedTuple):
    """A site vector ``estimate_energy`` has checked once for all its settings."""

    amplitudes: np.ndarray


def _estimate_exact(alpha: np.ndarray, setting, layout: _Layout) -> np.ndarray:
    """Estimates read straight from checked site amplitudes."""
    if setting.kind == "prob":
        return np.abs(alpha) ** 2
    group = layout.groups[setting.axis]
    raw = 2.0 * (np.conj(alpha[group.low]) * alpha[group.high])
    return raw.real if setting.kind == "cos" else group.sign * raw.imag


def _bit_sums(hist: sv.ShotHistogram, adjacent: bool = False) -> np.ndarray:
    """Shots with qubit k's bit set (``adjacent``: with qubits k and k + 1 differing).

    ``counts @ rows`` summed in int64 (a uint8 sum would wrap); einsum casts
    the rows in buffered blocks, not as one widened copy of the record.
    """
    rows = hist.rows
    if adjacent:
        rows = rows[:, :-1] ^ rows[:, 1:]
    return np.einsum("k,kq->q", hist.counts, rows)


def _estimate_histogram(hist: sv.ShotHistogram, setting, layout: _Layout) -> np.ndarray:
    """Estimates from integer outcome counts; each mean is an exact integer over the shots."""
    shots = hist.total_shots
    if setting.protocol == "binary":
        # a packed record holds the shots of every outcome index
        counts, positions = hist.counts, layout.positions
        if setting.kind == "prob":
            return counts[positions] / shots
        group = layout.groups[setting.axis]
        raw = (counts[positions[group.low]] - counts[positions[group.high]]) / shots
    else:
        # means of +-1 bit products over the recorded outcomes
        if setting.kind == "prob":
            return _bit_sums(hist) / shots
        group = layout.groups[None]
        raw = (shots - 2 * _bit_sums(hist, adjacent=True)) / shots
    return raw if setting.kind == "cos" else group.sign * raw


def estimate_setting(source, setting: MeasurementSetting, emap: EncodingMap | None = None) -> np.ndarray:
    """Evaluate one measurement setting on a site vector or a shot record.

    ``source`` is a site-amplitude vector (numpy array) or a ShotHistogram
    recorded for this setting, in its register's form: outcome rows for
    ``original``, the 2^n outcome counts for ``binary`` (the other form is
    refused).  Binary-protocol settings need the encoding map.

    A ``prob`` setting returns one value per site, estimating |a_j|^2.  A
    ``cos`` or ``sin`` setting returns one value per pair (j < k) it
    resolves, estimating 2 r_j r_k cos(t_k - t_j) or 2 r_j r_k sin(t_k - t_j),
    in a fixed order: on the one-hot register pair (j, j + 1) is at index j;
    on the packed register the pairs come in ``hypercube_edges(emap)`` order,
    restricted to the edges whose flip position is the setting's axis.
    """
    width = len(setting.bases)
    layout = _layout(setting.protocol, width, emap)
    register = len(layout.settings[0].bases)
    if width != register:
        raise ValueError(f"setting width {width} != register width {register}")
    if isinstance(source, sv.ShotHistogram):
        _check_histogram(source, setting)
        return _estimate_histogram(source, setting, layout)
    if isinstance(source, _CheckedSites):
        return _estimate_exact(source.amplitudes, setting, layout)
    return _estimate_exact(_site_vector(source, layout.n_sites), setting, layout)


def check_epsilon(epsilon) -> None:
    """Refuse an activity threshold that is not a finite number >= 0; None means the default."""
    if epsilon is None:
        return
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real) or not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon!r}")


def pick_epsilon(shots: int | None) -> float:
    """Default activity threshold: fixed in exact mode, noise-scaled with shots."""
    if shots is None:
        return EXACT_EPSILON
    return max(1e-6, 3.0 / np.sqrt(shots))


def _chain_forest(active: list, ks: list, deltas: list) -> tuple:
    """The forest of pairs that form a path in site order, each pair ``(k - 1, k)``.

    A path has no cycle, so every pair is a tree edge; each linked run of
    active sites is one component, rooted at its lowest site.  From there the
    walk in ``_spanning_forest`` adds each delta to the previous site's phase,
    one site after the next; this running sum makes the same adds in the same
    order, so its phases round the same, bit for bit.  Returns what
    ``_spanning_forest`` returns.
    """
    phases = [0.0 if a else np.nan for a in active]
    for k, step in zip(ks, deltas):
        phases[k] = phases[k - 1] + step
    linked = set(ks)
    component, n_components = [], 0
    for site, a in enumerate(active):
        if not a:
            component.append(-1)
        elif site in linked:
            component.append(n_components - 1)
        else:
            component.append(n_components)
            n_components += 1
    return np.ones(len(ks), dtype=bool), component, n_components, phases


def _spanning_forest(active: list, js: list, ks: list, deltas: list, weights: list) -> tuple:
    """Maximum-weight spanning forest over the active sites, and the phases it gives.

    Kruskal with a union-find: edges by descending weight, ties in edge order
    (a stable sort), stopping once the tree spans every active site.  Each
    component's root is its lowest site, where its phase is 0; phases spread
    from there along tree edges.  Returns ``(in_tree, component,
    n_components, phases)``: a bool array, a list, an int and a list.  Pairs
    that form a path in site order take ``_chain_forest``, which returns the
    same.
    """
    n_sites = len(active)
    root = list(range(n_sites))
    tree = []
    links = [[] for _ in range(n_sites)]
    # tree edges still to find; an edge joins two active sites, so this is
    # at least 1 whenever the loop runs
    missing = sum(active) - 1
    for e in sorted(range(len(js)), key=weights.__getitem__, reverse=True):
        j, k = js[e], ks[e]
        a, b = root[j], root[k]
        if a == b:  # one parent, so one set
            continue
        while root[a] != a:
            root[a] = a = root[root[a]]  # path halving
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a == b:
            continue
        if a < b:
            root[b] = a
        else:
            root[a] = b
        tree.append(e)
        links[j].append((k, deltas[e]))
        links[k].append((j, -deltas[e]))
        missing -= 1
        if not missing:
            break

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
    in_tree = np.zeros(len(js), dtype=bool)
    in_tree[tree] = True
    return in_tree, component, n_components, phases


@functools.lru_cache(maxsize=64)
def _pair_route(pair_j: bytes, pair_k: bytes, n_sites: int) -> bool:
    """Refuse a pair outside ``0 <= j < k < n_sites``; True when the pairs form
    a path in site order, each ``(j, j + 1)`` with ``j`` strictly increasing.

    Keyed by the int64 bytes of the pair indices, as a layout passes the same
    pairs to every estimate: a few numpy calls on every estimate would cost a
    small packed register a tenth of its estimate.  A refusal is not cached.
    """
    j, k = np.frombuffer(pair_j, dtype=np.int64), np.frombuffer(pair_k, dtype=np.int64)
    if not j.size:
        return True
    if (j >= k).any():
        raise ValueError("every pair must have j < k")
    if j.min() < 0 or k.max() >= n_sites:
        raise ValueError(f"pair index outside [0, {n_sites})")
    return bool((k - j == 1).all() and (j[1:] > j[:-1]).all())


def reconstruct_profile(probs, pair_j, pair_k, cos, sin, epsilon: float | None = None,
                        shots: int | None = None):
    """Turn site probabilities and pair estimates into (AmplitudeProfile, PhaseGraph).

    Magnitudes come from the site probabilities (negative estimates clamp to
    zero before the square root); relative phases from atan2 of each pair's
    sine/cosine estimates, spread from each component's lowest active site
    over a maximum-weight spanning forest.  ``epsilon`` must be a finite
    number >= 0 and defaults to ``pick_epsilon(shots)``; ``shots`` is None
    (exact mode) or a shot count that ``statevector.check_shots`` accepts.

    ``probs`` is 1-D; ``pair_j``, ``pair_k``, ``cos`` and ``sin`` are 1-D
    of one length, with ``0 <= j < k < N`` for every pair (refused
    otherwise).  Pairs that form a path in site order, each ``(j, j + 1)``
    with ``j`` strictly increasing (the one-hot chain), take a running sum
    along the path; any other pairs take Kruskal and a walk over its tree.
    Both give the same forest and phases, bit for bit: on a path the walk
    adds each pair's delta to the previous site's phase in site order, and
    the running sum makes those adds in that order (``_chain_forest``).
    """
    probs = np.asarray(probs, dtype=float)
    j, k = np.asarray(pair_j, dtype=np.int64), np.asarray(pair_k, dtype=np.int64)
    c, s = np.asarray(cos, dtype=float), np.asarray(sin, dtype=float)
    n_sites = probs.size
    if probs.ndim != 1:
        raise ValueError(f"probs must be 1-D, got shape {probs.shape}")
    if j.ndim != 1 or not j.shape == k.shape == c.shape == s.shape:
        raise ValueError(f"pair_j, pair_k, cos and sin must be 1-D of one length, got shapes "
                         f"{j.shape}, {k.shape}, {c.shape}, {s.shape}")
    path = _pair_route(j.tobytes(), k.tobytes(), n_sites)
    if shots is not None:
        sv.check_shots(shots)
    check_epsilon(epsilon)
    if epsilon is None:
        epsilon = pick_epsilon(shots)
    magnitudes = np.sqrt(np.maximum(probs, 0.0))
    active = magnitudes > epsilon

    keep = active[j] & active[k]
    if not keep.all():
        j, k, c, s = j[keep], k[keep], c[keep], s[keep]
    delta = np.arctan2(s, c)
    # squares through libm pow, as Python's ``x ** 2`` computes them: np.square
    # (x * x) differs in the last bit for about 0.1% of inputs, enough to
    # reorder near-tied shot-mode edges and so change which tree is used
    weight = np.float_power(s, 2.0) + np.float_power(c, 2.0)
    active_sites = active.tolist()
    if path:
        forest = _chain_forest(active_sites, k.tolist(), delta.tolist())
    else:
        forest = _spanning_forest(active_sites, j.tolist(), k.tolist(), delta.tolist(), weight.tolist())
    in_tree, component, n_components, phases = forest

    reference = active_sites.index(True) if True in active_sites else None
    profile = AmplitudeProfile(n_sites, magnitudes, np.array(phases), active, float(epsilon), reference)
    pgraph = PhaseGraph(j, k, delta, weight, in_tree, np.array(component), n_components)
    return profile, pgraph


def _unmeasured_terms(h: SiteHamiltonian, profile: AmplitudeProfile, pgraph: PhaseGraph) -> tuple:
    """Coupled pairs (j < k, h_jk != 0) with an inactive site, and across components."""
    active = profile.active
    if active.all() and pgraph.n_components == 1:
        return [], []
    j, k = h.couplings()
    both = active[j] & active[k]
    cross = both & (pgraph.component[j] != pgraph.component[k])
    return tuple(list(zip(j[m].tolist(), k[m].tolist())) for m in (~both, cross))


def estimate_energy(
    h: SiteHamiltonian,
    alpha,
    protocol: str,
    shots: int | None = None,
    seed=0,
    emap: EncodingMap | None = None,
    epsilon: float | None = None,
    *,
    diagnostics: bool = True,
):
    """Full protocol run: settings -> estimates -> profile -> energy.

    ``alpha`` is the state's site-amplitude vector.  In shot mode each
    setting is sampled from it, on the protocol's register, with its own
    generator derived from ``seed`` (an int or tuple of ints), so results do
    not depend on evaluation order.  Returns ``(energy, diagnostics)``; with
    ``diagnostics=False`` (the cost loop, which reads the energy alone) the
    report is not built and the second item is None.
    """
    layout = _layout(protocol, h.n_sites, emap)
    if layout.n_sites != h.n_sites:
        raise ValueError(f"encoding map covers {layout.n_sites} sites, Hamiltonian has {h.n_sites}")
    alpha = _site_vector(alpha, h.n_sites)
    check_epsilon(epsilon)
    if shots is not None:
        sv.check_shots(shots)
        state = sv.SiteState(len(layout.settings[0].bases), layout.positions, alpha)
        seed_root = list(seed) if isinstance(seed, (tuple, list)) else [seed]

    cos, sin = np.empty(layout.pair_j.size), np.empty(layout.pair_j.size)
    checked = _CheckedSites(alpha)
    for idx, setting in enumerate(layout.settings):
        source = checked
        if shots is not None:
            rng = np.random.default_rng(np.random.SeedSequence(seed_root + [idx]))
            source = sv.sample_bitstrings(state, setting.bases, shots, rng, setting.label)
        values = estimate_setting(source, setting, emap)
        if setting.kind == "prob":
            probs = values
        else:
            (cos if setting.kind == "cos" else sin)[layout.groups[setting.axis].index] = values

    profile, pgraph = reconstruct_profile(probs, layout.pair_j, layout.pair_k, cos, sin, epsilon, shots)
    energy = energy_from_profile(h, profile)
    if not diagnostics:
        return energy, None
    # the packed sampler puts probability exactly 0 off the codewords
    # (``_packed_distribution`` writes only ``register[positions]``), so a
    # record drawn here has no unencoded mass
    exact_binary = protocol == "binary" and shots is None
    unencoded_mass = max(0.0, float(1.0 - probs.sum())) if exact_binary else 0.0
    inactive_terms, unresolved = _unmeasured_terms(h, profile, pgraph)
    report = {
        "protocol": protocol,
        "settings": [s.label for s in layout.settings],
        "shots_per_setting": shots,
        "epsilon": profile.threshold,
        "inactive_sites": np.flatnonzero(~profile.active).tolist(),
        "n_components": pgraph.n_components,
        "cross_component_terms": unresolved,
        "inactive_terms": inactive_terms,
        "unencoded_mass": unencoded_mass,
        "warnings": ["unresolved-phase"] if unresolved else [],
        "profile": profile_summary(profile),
        "phase_graph": phase_graph_summary(pgraph),
    }
    return energy, report


def profile_summary(profile: AmplitudeProfile) -> dict:
    """JSON-ready rendering; inactive phases become None."""
    active = np.asarray(profile.active, dtype=bool).tolist()
    return {
        "n_sites": profile.n_sites,
        "magnitudes": np.asarray(profile.magnitudes, dtype=float).tolist(),
        "phases": [
            p if a else None
            for p, a in zip(np.asarray(profile.phases, dtype=float).tolist(), active)
        ],
        "active": active,
        "threshold": float(profile.threshold),
        "reference_site": profile.reference_site,
    }


def phase_graph_summary(pgraph: PhaseGraph) -> dict:
    js, ks = pgraph.edge_j.tolist(), pgraph.edge_k.tolist()
    return {
        "edges": [[j, k, d, w] for j, k, d, w in zip(js, ks, pgraph.delta.tolist(), pgraph.weight.tolist())],
        "tree_edges": [[j, k] for j, k, t in zip(js, ks, pgraph.in_tree.tolist()) if t],
        "n_components": pgraph.n_components,
        "component_of": [[s, c] for s, c in enumerate(pgraph.component.tolist()) if c >= 0],
    }

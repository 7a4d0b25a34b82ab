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

Estimates are arrays over one pair list per (protocol, N), built once: the
chain pairs (j, j+1) for ``original``, the hypercube edges of the encoding
map for ``binary``.  Every pair is stored in site order (j < k) with value
conventions cos: 2 r_j r_k cos(t_k - t_j) and sin: 2 r_j r_k sin(t_k - t_j).
Relative phases come from a maximum-weight spanning forest over the measured
pairs, so a state is reconstructed up to one global phase per connected
component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import statevector as sv
from .encoding import EncodingMap, hypercube_edges
from .hamiltonian import SiteHamiltonian, energy_from_profile

EXACT_EPSILON = 1e-9


@dataclass(frozen=True)
class MeasurementSetting:
    """One product-measurement context: a basis letter per qubit."""

    label: str
    bases: str
    protocol: str
    axis: int | None = None

    def __post_init__(self):
        bad = set(self.bases) - set("XYZ")
        if bad:
            raise ValueError(f"unknown basis letters {sorted(bad)} in {self.bases!r}")


@dataclass(frozen=True)
class SettingEstimates:
    """Estimates extracted from one setting.

    ``kind`` is ``prob`` (``values[i]`` estimates |alpha|^2 of site
    ``sites[i]``), ``cos`` or ``sin`` (``values[i]`` estimates the correlator
    of the site-ordered pair ``(sites[i], partners[i])``).  ``shots_used`` is
    None in exact mode.
    """

    setting_label: str
    kind: str
    sites: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    partners: np.ndarray | None = field(default=None, repr=False)
    shots_used: int | None = None
    extras: dict | None = None


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

    def phase(self, site: int) -> float:
        if not self.active[site]:
            raise ValueError(
                f"phase of site {site} is undefined: magnitude {self.magnitudes[site]!r}"
                f" is below threshold {self.threshold!r}"
            )
        return float(self.phases[site])

    def phase_difference(self, j: int, k: int) -> float:
        return self.phase(k) - self.phase(j)

    def site_amplitudes(self) -> np.ndarray:
        """Complex site vector with zero phase on inactive sites."""
        theta = np.where(self.active, np.nan_to_num(self.phases), 0.0)
        return self.magnitudes * np.exp(1j * theta)

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

    n_sites: int
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
        MeasurementSetting("MZ", "Z" * n_sites, "original"),
        MeasurementSetting("MXX", "X" * n_sites, "original"),
        MeasurementSetting("MXY", alternating, "original"),
    ]


def settings_binary(num_qubits: int) -> list:
    """The 2n + 1 settings for a packed ``num_qubits`` register."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    out = [MeasurementSetting("BZ", "Z" * num_qubits, "binary")]
    for axis in range(num_qubits):
        for letter in ("X", "Y"):
            bases = "".join(letter if q == axis else "Z" for q in range(num_qubits))
            out.append(MeasurementSetting(f"B{letter}{axis}", bases, "binary", axis))
    return out


@dataclass(frozen=True)
class _PairGroup:
    """The pairs one X/Y setting resolves.

    Pair ``i`` joins sites ``j[i] < k[i]``.  The setting measures the raw
    correlator 2 conj(a_low) a_high in register order: ``low`` is the site on
    the X qubit (one-hot) or whose codeword has bit 0 at the flip axis
    (packed).  ``sign`` is +1 where ``low`` is ``j``, so ``sign * Im(raw)``
    is the site-ordered sine.
    """

    j: np.ndarray
    k: np.ndarray
    low: np.ndarray
    high: np.ndarray
    sign: np.ndarray


@dataclass(frozen=True)
class _Layout:
    """What the estimators need of one (protocol, N), built once.

    ``groups[axis]`` holds the pairs of the X/Y settings on flip axis
    ``axis`` (key ``None`` for the one-hot settings); ``positions`` holds
    each site's codeword, the register basis index that carries it.
    """

    sites: np.ndarray
    groups: dict
    positions: np.ndarray


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)  # shared by every later estimate
    return arrays


def _pair_group(j, k, j_is_low) -> _PairGroup:
    low, high = np.where(j_is_low, j, k), np.where(j_is_low, k, j)
    return _PairGroup(*_read_only(j, k, low, high, np.where(j_is_low, 1.0, -1.0)))


@functools.lru_cache(maxsize=64)
def _chain_layout(n_sites: int) -> _Layout:
    j = np.arange(n_sites - 1)
    # the alternating pattern puts X on even qubits; site j is the one-hot
    # codeword with only qubit j set
    sites, positions = _read_only(np.arange(n_sites), 1 << np.arange(n_sites))
    return _Layout(sites, {None: _pair_group(j, j + 1, j % 2 == 0)}, positions)


def _binary_layout(emap: EncodingMap) -> _Layout:
    j, k, axis = np.array(hypercube_edges(emap), dtype=np.int64).reshape(-1, 3).T
    positions = np.array(emap.codewords, dtype=np.int64)
    j_is_low = (positions[j] >> axis) & 1 == 0
    groups = {}
    for a in range(emap.num_qubits):
        on_axis = axis == a
        groups[a] = _pair_group(j[on_axis], k[on_axis], j_is_low[on_axis])
    sites, positions = _read_only(np.arange(emap.n_sites), positions)
    return _Layout(sites, groups, positions)


def _layout(protocol: str, n_sites: int, emap: EncodingMap | None) -> _Layout:
    """The protocol's layout; the packed one is built once per encoding map."""
    if protocol == "original":
        return _chain_layout(n_sites)
    layout = getattr(emap, "_layout_cache", None)
    if layout is None:
        layout = _binary_layout(emap)
        object.__setattr__(emap, "_layout_cache", layout)
    return layout


_ORIGINAL_KINDS = {"MZ": "prob", "MXX": "cos", "MXY": "sin"}


def _kind(setting: MeasurementSetting) -> str:
    if setting.protocol == "original":
        if setting.label not in _ORIGINAL_KINDS:
            raise ValueError(f"unknown original-protocol setting {setting.label!r}")
        return _ORIGINAL_KINDS[setting.label]
    if setting.label == "BZ":
        return "prob"
    return "cos" if setting.label.startswith("BX") else "sin"


def _check_histogram(hist: sv.ShotHistogram, setting: MeasurementSetting):
    if hist.setting_label != setting.label:
        raise ValueError(
            f"histogram for setting {hist.setting_label!r} used with {setting.label!r}"
        )
    if hist.num_qubits != len(setting.bases):
        raise ValueError(f"histogram width {hist.num_qubits} != setting width {len(setting.bases)}")


def _estimate_exact(alpha, setting, layout: _Layout, kind: str):
    """Estimates read straight from the site amplitudes."""
    n_sites = layout.sites.size
    if not isinstance(alpha, np.ndarray):
        raise TypeError(f"unsupported source type {type(alpha).__name__}")
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.size != n_sites:
        raise ValueError(f"site vector length {alpha.size} != {n_sites} sites")
    if kind == "prob":
        probs = np.abs(alpha) ** 2
        extras = None
        if setting.protocol == "binary":
            extras = {"unencoded_mass": float(1.0 - probs.sum())}
        return SettingEstimates(setting.label, kind, layout.sites, probs, extras=extras)
    group = layout.groups[setting.axis]
    raw = 2.0 * (np.conj(alpha[group.low]) * alpha[group.high])
    values = raw.real if kind == "cos" else group.sign * raw.imag
    return SettingEstimates(setting.label, kind, group.j, values, group.k)


def _estimate_histogram(hist: sv.ShotHistogram, setting, layout: _Layout, kind: str):
    """Estimates from integer outcome counts; each mean is an exact integer over the shots."""
    shots = hist.total_shots
    counts = hist.counts
    if setting.protocol == "binary":
        if kind == "prob":
            found = counts[layout.positions]
            unknown = shots - int(found.sum())
            extras = {"unknown_codeword_count": unknown, "unencoded_mass": unknown / shots}
            return SettingEstimates(setting.label, kind, layout.sites, found / shots,
                                    shots_used=shots, extras=extras)
        group = layout.groups[setting.axis]
        positions = layout.positions
        raw = (counts[positions[group.low]] - counts[positions[group.high]]) / shots
    else:
        # means of +-1 bit products over the observed outcomes
        outcomes = np.flatnonzero(counts)
        seen = counts[outcomes]
        bits = (outcomes[:, None] >> np.arange(hist.num_qubits)) & 1
        if kind == "prob":
            z = (shots - 2 * (seen @ bits)) / shots
            return SettingEstimates(setting.label, kind, layout.sites, (1.0 - z) / 2.0,
                                    shots_used=shots)
        group = layout.groups[None]
        raw = (shots - 2 * (seen @ (bits[:, :-1] ^ bits[:, 1:]))) / shots
    values = raw if kind == "cos" else group.sign * raw
    return SettingEstimates(setting.label, kind, group.j, values, group.k, shots_used=shots)


def estimate_setting(source, setting: MeasurementSetting, emap: EncodingMap | None = None):
    """Evaluate one measurement setting on a site vector or a shot record.

    ``source`` is a site-amplitude vector (numpy array) or a ShotHistogram
    recorded for this setting.  Binary-protocol settings need the encoding
    map.
    """
    if setting.protocol == "original":
        n_sites = len(setting.bases)
    elif setting.protocol == "binary":
        if emap is None:
            raise ValueError("binary-protocol estimation requires an encoding map")
        if len(setting.bases) != emap.num_qubits:
            raise ValueError(
                f"setting width {len(setting.bases)} != register width {emap.num_qubits}"
            )
        n_sites = emap.n_sites
    else:
        raise ValueError(f"unknown protocol {setting.protocol!r}")
    layout = _layout(setting.protocol, n_sites, emap)
    if isinstance(source, sv.ShotHistogram):
        _check_histogram(source, setting)
        return _estimate_histogram(source, setting, layout, _kind(setting))
    return _estimate_exact(source, setting, layout, _kind(setting))


def pick_epsilon(shots: int | None) -> float:
    """Default activity threshold: fixed in exact mode, noise-scaled with shots."""
    if shots is None:
        return EXACT_EPSILON
    return max(1e-6, 3.0 / np.sqrt(shots))


def _estimate_name(kind: str, j, k) -> str:
    return f"{kind}:{j}" if kind == "prob" else f"{kind}:{j}:{k}"


def _keyed(parts: list, kind: str, n_sites: int) -> tuple:
    """One kind's estimates as ``(key, j, k, value)`` in ascending key order.

    The key is the site of a probability and ``j * n_sites + k`` of a pair;
    a repeated key is refused.
    """
    if len(parts) == 1:
        j, k, value = parts[0]
    elif parts:
        j, k, value = (np.concatenate(column) for column in zip(*parts))
    else:
        j = k = np.empty(0, dtype=np.int64)
        value = np.empty(0)
    key = j if kind == "prob" else j * n_sites + k
    if key.size > 1 and not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, j, k, value = key[order], j[order], k[order], value[order]
        repeated = np.flatnonzero(key[1:] == key[:-1])
        if repeated.size:
            name = _estimate_name(kind, j[repeated[0]], k[repeated[0]])
            raise ValueError(f"duplicate estimate key {name!r} across settings")
    return key, j, k, value


def merge_estimates(estimate_list, n_sites: int) -> tuple:
    """Collect per-setting estimates into site- and pair-indexed arrays.

    Returns ``(probs, pair_j, pair_k, cos, sin, shots)``: site probabilities,
    the measured pairs in site order with their cosine and sine estimates,
    and the smallest per-setting shot count (None in exact mode).  Refuses a
    site out of range, an estimate given twice and a pair that has only one
    of its cosine and sine.
    """
    parts = {"prob": [], "cos": [], "sin": []}
    for se in estimate_list:
        j = np.asarray(se.sites, dtype=np.int64)
        k = j if se.partners is None else np.asarray(se.partners, dtype=np.int64)
        parts[se.kind].append((j, k, np.asarray(se.values, dtype=float)))
    ends = np.concatenate([np.empty(0, dtype=np.int64)] + [
        end for column in parts.values() for j, k, _ in column for end in (j, k)
    ])
    if ends.size and (ends.min() < 0 or ends.max() >= n_sites):
        for kind, column in parts.items():
            for j, k, _ in column:
                bad = np.flatnonzero((np.minimum(j, k) < 0) | (np.maximum(j, k) >= n_sites))
                if bad.size:
                    name = _estimate_name(kind, j[bad[0]], k[bad[0]])
                    raise ValueError(f"estimate {name!r} out of range for {n_sites} sites")
    prob_key, _, _, prob_value = _keyed(parts["prob"], "prob", n_sites)
    cos_key, pair_j, pair_k, cos_value = _keyed(parts["cos"], "cos", n_sites)
    sin_key, _, _, sin_value = _keyed(parts["sin"], "sin", n_sites)
    if cos_key.size != sin_key.size or not (cos_key == sin_key).all():
        lone = np.setxor1d(cos_key, sin_key)[0]
        raise ValueError(
            f"pair ({lone // n_sites},{lone % n_sites}) is missing a cosine or sine estimate"
        )
    probs = np.zeros(n_sites)
    probs[prob_key] = prob_value
    shots = [se.shots_used for se in estimate_list if se.shots_used is not None]
    return probs, pair_j, pair_k, cos_value, sin_value, (min(shots) if shots else None)


def _spanning_forest(active: list, js: list, ks: list, deltas: list, weights: list) -> tuple:
    """Maximum-weight spanning forest over the active sites, and the phases it gives.

    Kruskal with a union-find: edges by descending weight, ties in edge order
    (a stable sort).  Each component's root is its lowest site, where its
    phase is 0; phases spread from there along tree edges.  Returns
    ``(in_tree, component, n_components, phases)`` as lists.
    """
    n_sites = len(active)
    root = list(range(n_sites))

    def find(s):
        while root[s] != s:
            root[s] = s = root[root[s]]  # path halving
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


def reconstruct_profile(probs, pair_j, pair_k, cos, sin, epsilon: float | None = None,
                        shots: int | None = None):
    """Turn merged estimates into (AmplitudeProfile, PhaseGraph).

    Magnitudes come from the site probabilities (negative estimates clamp to
    zero before the square root); relative phases from atan2 of each pair's
    sine/cosine estimates, spread from each component's lowest active site
    over a maximum-weight spanning forest.  ``epsilon`` defaults to
    ``pick_epsilon(shots)``.
    """
    probs = np.asarray(probs, dtype=float)
    j, k = np.asarray(pair_j), np.asarray(pair_k)
    c, s = np.asarray(cos, dtype=float), np.asarray(sin, dtype=float)
    n_sites = probs.size
    if epsilon is None:
        epsilon = pick_epsilon(shots)
    magnitudes = np.sqrt(np.clip(probs, 0.0, None))
    active = magnitudes > epsilon

    keep = active[j] & active[k]
    if not keep.all():
        j, k, c, s = j[keep], k[keep], c[keep], s[keep]
    delta = np.arctan2(s, c)
    # squares through libm pow, as Python's ``x ** 2`` computes them: np.square
    # differs in the last bit for about 0.1% of inputs, enough to reorder
    # near-tied shot-mode edges and so change which tree is used
    weights = [y**2 + x**2 for x, y in zip(c.tolist(), s.tolist())]
    active_sites = active.tolist()
    in_tree, component, n_components, phases = _spanning_forest(
        active_sites, j.tolist(), k.tolist(), delta.tolist(), weights
    )

    reference = active_sites.index(True) if True in active_sites else None
    profile = AmplitudeProfile(n_sites, magnitudes, np.array(phases), active, float(epsilon), reference)
    pgraph = PhaseGraph(n_sites, j, k, delta, np.array(weights), np.array(in_tree, dtype=bool),
                        np.array(component), n_components)
    return profile, pgraph


@functools.lru_cache(maxsize=64)
def _settings(protocol: str, width: int) -> tuple:
    return tuple(settings_original(width) if protocol == "original" else settings_binary(width))


def _settings_for(protocol: str, n_sites: int, emap: EncodingMap | None) -> tuple:
    if protocol == "original":
        return _settings(protocol, n_sites)
    if protocol == "binary":
        if emap is None:
            raise ValueError("binary protocol requires an encoding map")
        return _settings(protocol, emap.num_qubits)
    raise ValueError(f"unknown protocol {protocol!r}")


def _pairs_of(mask: np.ndarray) -> list:
    j, k = np.nonzero(mask)
    return list(zip(j.tolist(), k.tolist()))


def _unmeasured_terms(h: SiteHamiltonian, profile: AmplitudeProfile, pgraph: PhaseGraph) -> tuple:
    """Coupled pairs (j < k, h_jk != 0) with an inactive site, and across components."""
    active = profile.active
    if active.all() and pgraph.n_components == 1:
        return [], []
    coupled = np.triu(h.matrix != 0, 1)
    both = np.outer(active, active)
    inactive = _pairs_of(coupled & ~both)
    if pgraph.n_components < 2:
        return inactive, []
    component = pgraph.component
    return inactive, _pairs_of(coupled & both & (component[:, None] != component[None, :]))


def estimate_energy(
    h: SiteHamiltonian,
    alpha,
    protocol: str,
    shots: int | None = None,
    seed=0,
    emap: EncodingMap | None = None,
    epsilon: float | None = None,
):
    """Full protocol run: settings -> estimates -> profile -> energy.

    ``alpha`` is the state's site-amplitude vector.  In shot mode it is
    embedded in the protocol's register at the layout's codewords, and each
    setting is sampled with its own generator derived from ``seed`` (an int
    or tuple of ints), so results do not depend on evaluation order.  Returns
    ``(energy, diagnostics)``.
    """
    settings = _settings_for(protocol, h.n_sites, emap)
    if shots is not None:
        positions = _layout(protocol, h.n_sites, emap).positions
        state = sv.embed_sites(alpha, positions, len(settings[0].bases))
        seed_root = list(seed) if isinstance(seed, (tuple, list)) else [seed]

    results = []
    for idx, setting in enumerate(settings):
        if shots is None:
            results.append(estimate_setting(alpha, setting, emap))
            continue
        rng = np.random.default_rng(np.random.SeedSequence(seed_root + [idx]))
        hist = sv.sample_bitstrings(state, setting.bases, shots, rng, setting.label)
        results.append(estimate_setting(hist, setting, emap))

    probs, pair_j, pair_k, cos, sin, min_shots = merge_estimates(results, h.n_sites)
    profile, pgraph = reconstruct_profile(probs, pair_j, pair_k, cos, sin, epsilon, min_shots)
    energy = energy_from_profile(h, profile)
    inactive_terms, unresolved = _unmeasured_terms(h, profile, pgraph)

    unencoded = 0.0
    unknown_codewords = 0
    for se in results:
        if se.extras:
            unencoded = max(unencoded, se.extras.get("unencoded_mass", 0.0))
            unknown_codewords += se.extras.get("unknown_codeword_count", 0)
    diagnostics = {
        "protocol": protocol,
        "settings": [s.label for s in settings],
        "shots_per_setting": shots,
        "epsilon": profile.threshold,
        "inactive_sites": np.flatnonzero(~profile.active).tolist(),
        "n_components": pgraph.n_components,
        "cross_component_terms": unresolved,
        "inactive_terms": inactive_terms,
        "unencoded_mass": unencoded,
        "unknown_codeword_count": unknown_codewords,
        "warnings": ["unresolved-phase"] if unresolved else [],
        "profile": profile_summary(profile),
        "phase_graph": phase_graph_summary(pgraph),
    }
    return energy, diagnostics


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
        "edges": [list(e) for e in zip(js, ks, pgraph.delta.tolist(), pgraph.weight.tolist())],
        "tree_edges": [[j, k] for j, k, t in zip(js, ks, pgraph.in_tree.tolist()) if t],
        "n_components": pgraph.n_components,
        "component_of": [[s, c] for s, c in enumerate(pgraph.component.tolist()) if c >= 0],
    }

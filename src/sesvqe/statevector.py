"""Site states and shot sampling, with a little-endian qubit convention.

Basis state ``|i>`` assigns qubit ``k`` the bit ``(i >> k) & 1``, so qubit 0 is
the least significant bit of the outcome index.  Circuits are simulated by
``circuits.simulate``; this module holds the register limits it shares.

Shot sampling never builds the one-hot register.  ``sample_bitstrings`` reads
a ``SiteState``, the site amplitudes alpha and the register that carries them,
and runs one kernel per register:

* one-hot (site j is qubit j alone set): all-Z is one multinomial over the
  site weights |alpha_j|^2.  In a product of X and Y bases the outcome s has
  amplitude 2^(-N/2) sum_j (-1)^(s_j) c_j with c_j = phi_j alpha_j (phi = 1
  for X, -i for Y), so the first k bits have the marginal
  2^(-k) (|P_k|^2 + R_k), where P_k = sum_{j<k} (-1)^(s_j) c_j and
  R_k = sum_{j>=k} |alpha_j|^2.  The bits are drawn in qubit order with
  P(s_k = 1 | s_<k) = 1/2 - Re(conj(P_k) c_k) / (|P_k|^2 + R_k), vectorised
  over shots: O(shots * N) time and memory (Bravyi, Gosset & Liu,
  PRL 128, 220503 (2022)).
* packed (site s at codeword positions[s]): a setting with X or Y on qubit a
  and Z elsewhere has the 2^n outcome probabilities |a_lo +- phi a_hi|^2 / 2
  for each codeword pair (lo, hi = lo | 2^a), an unpaired codeword giving
  |a|^2 / 2 on both outcomes; all-Z gives |alpha|^2 at the codewords.  One
  multinomial draws the counts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-10
MAX_SIM_WIDTH = 22  # widest dense register a run may allocate
# a one-hot shot record holds one byte per shot and qubit; it may take the
# memory of the widest register, 2^22 complex amplitudes (64 MiB)
MAX_RECORD_ENTRIES = 16 << MAX_SIM_WIDTH
_DRAW_BLOCK = 1 << 20  # uniforms drawn at once by the one-hot X/Y kernel
_BIT_WEIGHTS = 1 << np.arange(63)  # 2^k for qubit k of an outcome index

# rows: the outcomes with the flipped bit 0 and 1, from the pair (a_lo, a_hi)
_PAIR_CHANGE = {
    letter: np.array([[1, phi], [1, -phi]], dtype=complex) / np.sqrt(2.0)
    for letter, phi in (("X", 1.0), ("Y", -1j))
}


@dataclass(frozen=True)
class SiteState:
    """Normalized site amplitudes and the register that carries them.

    ``positions[s]`` is the basis index (codeword) of site ``s`` in a packed
    register of ``num_qubits`` qubits.  ``positions`` is None for the one-hot
    register, where site j is qubit j and ``num_qubits`` is the site count.
    """

    num_qubits: int
    positions: np.ndarray | None = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        sites = self.num_qubits if self.positions is None else np.shape(self.positions)[0]
        if amps.shape != (sites,):
            raise ValueError(f"site vector has shape {amps.shape}, expected ({sites},)")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class ShotHistogram:
    """Measurement record for one setting.

    ``rows[i]`` is an observed outcome, one bit per qubit (``rows[i, k]`` is
    qubit ``k``), seen ``counts[i]`` times.  Rows need not be distinct.
    ``index`` holds each row's basis index when ``from_counts`` drew the rows
    from it, so ``outcome_index`` does not recompute it.
    """

    setting_label: str
    rows: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    total_shots: int
    index: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, counts = np.asarray(self.rows), np.asarray(self.counts)
        if self.total_shots <= 0:
            raise ValueError("total_shots must be positive")
        if rows.ndim != 2 or rows.shape[1] < 1 or counts.shape != rows.shape[:1]:
            raise ValueError(f"histogram needs one count per outcome row, got rows {rows.shape}"
                             f" and counts {counts.shape}")
        if counts.dtype.kind not in "iu":
            raise ValueError("histogram counts must be non-negative integers")
        if int(counts.sum(dtype=np.int64)) != self.total_shots:
            raise ValueError("histogram counts do not sum to total_shots")
        if counts.min() < 0:  # not empty: the counts sum to a positive total
            raise ValueError("histogram counts must be non-negative integers")
        if rows.dtype.kind not in "biu" or rows.max() > 1 or rows.min() < 0:
            raise ValueError("outcome rows must hold bits")
        object.__setattr__(self, "rows", rows.astype(np.uint8, copy=False))
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, label: str, dense_counts) -> "ShotHistogram":
        """Histogram from ``dense_counts[i]``, the shots with outcome index ``i``."""
        dense = np.asarray(dense_counts)
        if dense.ndim != 1 or dense.size < 2 or dense.size & (dense.size - 1):
            raise ValueError(f"histogram needs 2^width outcome counts, got shape {dense.shape}")
        seen = np.flatnonzero(dense)
        rows = (seen[:, None] >> np.arange(dense.size.bit_length() - 1)) & 1
        hist = cls(label, rows.astype(np.uint8), dense[seen], int(dense.sum()))
        object.__setattr__(hist, "index", seen)
        return hist

    @property
    def num_qubits(self) -> int:
        return self.rows.shape[1]

    def outcome_index(self) -> np.ndarray:
        """Basis index of each row (qubit k is bit k), the inverse of ``from_counts``."""
        if self.index is not None:
            return self.index
        return self.rows @ _BIT_WEIGHTS[: self.num_qubits]


def check_shots(shots) -> None:
    """Refuse a shot count that is not an int in [1, 2^53] (float64 counts are exact up to 2^53)."""
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or not 1 <= shots <= 1 << 53:
        raise ValueError(f"shots must be an integer >= 1 and <= 2^53, got {shots!r}")


def _one_hot_record(alpha: np.ndarray, bases: str, shots: int, rng) -> tuple:
    """Outcome rows and counts of ``shots`` one-hot measurements; see the module docstring."""
    n = alpha.size
    weights = np.abs(alpha) ** 2
    if bases == "Z" * n:
        counts = rng.multinomial(shots, weights / weights.sum())
        sites = np.flatnonzero(counts)
        rows = np.zeros((sites.size, n), dtype=np.uint8)
        rows[np.arange(sites.size), sites] = 1
        return rows, counts[sites]
    if set(bases) - set("XY"):
        raise ValueError(f"one-hot sampling takes all-Z or all-X/Y bases, got {bases!r}")
    c = (np.where(np.array(list(bases)) == "Y", -1j, 1.0) * alpha).tolist()
    remaining = np.cumsum(weights[::-1])[::-1].tolist()  # R_k
    record = np.empty((n, shots), dtype=bool)  # qubit-major: each step fills one row
    block = max(1, _DRAW_BLOCK // n)
    for start in range(0, shots, block):
        # shot-major uniforms, so any block size draws the same bits
        centred = (rng.random((min(block, shots - start), n)) - 0.5).T.copy()
        m = centred.shape[1]
        prefix = np.zeros(m, dtype=complex)  # P_k of each shot
        re, im = prefix.real, prefix.imag
        x, overlap = np.empty(m), np.empty(m, dtype=complex)
        for k, ck in enumerate(c):
            # u < 1/2 - Re(conj(P) c) / (|P|^2 + R) times the denominator, as
            # (u - 1/2)(|P|^2 + R) + Re(conj(P) c) < 0: a zero denominator (a
            # prefix of probability 0) reads 0
            np.multiply(re, re, out=x)
            x += im * im
            x += remaining[k]
            x *= centred[k]
            np.multiply(prefix, ck.conjugate(), out=overlap)
            x += overlap.real
            one = np.less(x, 0.0, out=record[k, start:start + m])
            prefix += np.where(one, -ck, ck)
    return record.view(np.uint8).T, np.ones(shots, dtype=np.int64)


def _packed_distribution(state: SiteState, bases: str) -> np.ndarray:
    """Outcome probabilities of a packed setting; see the module docstring."""
    n = state.num_qubits
    if n > MAX_SIM_WIDTH:
        raise ValueError(f"a {n}-qubit register is too wide to sample; limit is {MAX_SIM_WIDTH}")
    flips = [q for q, b in enumerate(bases) if b != "Z"]
    if len(flips) > 1 or set(bases) - set("XYZ"):
        raise ValueError(f"packed sampling takes bases with X or Y on at most one qubit, got {bases!r}")
    register = np.zeros(1 << n, dtype=complex)
    register[state.positions] = state.amplitudes
    if flips:
        axis = flips[0]
        pairs = register.reshape(-1, 2, 1 << axis)  # [:, b] holds the outcomes with bit `axis` = b
        # (a_lo +- phi a_hi) / sqrt(2) as one 2 x 2 product with the pairs as
        # columns: the rounding of the per-qubit basis rotation this replaced,
        # so the multinomial draws the same counts
        out = _PAIR_CHANGE[bases[axis]] @ pairs.transpose(1, 0, 2).reshape(2, -1)
        register = out.reshape(2, -1, 1 << axis).transpose(1, 0, 2).reshape(-1)
    p = np.abs(register) ** 2
    return p / p.sum()


def sample_bitstrings(state: SiteState, bases: str, shots: int, seed, label: str = "") -> ShotHistogram:
    """Sample ``shots`` outcomes of measuring every qubit of ``state`` in ``bases``.

    ``bases[k]`` is Z, X or Y for qubit ``k``.  ``seed`` is an integer or a
    ``numpy.random.Generator``; identical seeds reproduce identical
    histograms.  A one-hot record above MAX_RECORD_ENTRIES bits is refused
    before any draw.
    """
    check_shots(shots)
    if len(bases) != state.num_qubits:
        raise ValueError(f"basis string length {len(bases)} != state width {state.num_qubits}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if state.positions is not None:
        counts = rng.multinomial(shots, _packed_distribution(state, bases))
        return ShotHistogram.from_counts(label or bases, counts)
    if shots * state.num_qubits > MAX_RECORD_ENTRIES:
        raise ValueError(
            f"a record of {shots} shots on {state.num_qubits} qubits is too large;"
            f" limit is {MAX_RECORD_ENTRIES} bits"
        )
    rows, counts = _one_hot_record(state.amplitudes, bases, shots, rng)
    return ShotHistogram(label or bases, rows, counts, shots)

"""Dense register states with a little-endian qubit convention: state
vectors, site embedding, basis rotations and shot sampling.

Basis state ``|i>`` assigns qubit ``k`` the bit ``(i >> k) & 1``, so qubit 0 is
the least significant bit of the amplitude index.  All exported operations
treat states as immutable and return fresh arrays.  Circuits are simulated by
``circuits.simulate``, which applies dense gates through ``_apply_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-10
MAX_SIM_WIDTH = 22  # widest dense register a run may allocate

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
SDG = np.array([[1, 0], [0, -1j]], dtype=complex)

# Basis-change operator for measuring Y: apply S-dagger, then Hadamard.  Maps
# the +1 eigenstate (|0> + i|1>)/sqrt(2) to |0>.
Y_BASIS_CHANGE = H @ SDG


def ry(theta: float) -> np.ndarray:
    """Rotation exp(-i*theta*Y/2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation exp(-i*theta*Z/2)."""
    return np.array(
        [[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]], dtype=complex
    )


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over ``num_qubits`` little-endian qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected"
                f" ({2 ** self.num_qubits},) for {self.num_qubits} qubits"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class ShotHistogram:
    """Measurement record for one setting.

    ``counts[i]`` is the number of shots with outcome index ``i`` (qubit
    ``k`` read bit ``(i >> k) & 1``), so the array has 2^width entries.
    """

    setting_label: str
    counts: np.ndarray = field(repr=False)
    total_shots: int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if self.total_shots <= 0:
            raise ValueError("total_shots must be positive")
        if counts.ndim != 1 or counts.size < 2 or counts.size & (counts.size - 1):
            raise ValueError(f"histogram needs 2^width outcome counts, got shape {counts.shape}")
        if counts.dtype.kind not in "iu" or np.any(counts < 0):
            raise ValueError("histogram counts must be non-negative integers")
        if int(counts.sum()) != self.total_shots:
            raise ValueError("histogram counts do not sum to total_shots")
        object.__setattr__(self, "counts", counts)

    @property
    def num_qubits(self) -> int:
        return self.counts.size.bit_length() - 1


def _apply_matrix(
    amps: np.ndarray, matrix: np.ndarray, qubits, num_qubits: int
) -> np.ndarray:
    """Apply a 2^m x 2^m matrix to the listed qubits of a flat amplitude array.

    The first listed qubit indexes the least significant bit of the matrix.
    """
    m = len(qubits)
    tensor = amps.reshape([2] * num_qubits)
    # numpy axis a of the reshaped tensor corresponds to qubit (n-1-a); the
    # transpose puts the most significant gate qubit first.
    axes = [num_qubits - 1 - q for q in reversed(qubits)]
    rest = [a for a in range(num_qubits) if a not in axes]
    perm = axes + rest
    moved = tensor.transpose(perm).reshape(2**m, -1)
    out = (matrix @ moved).reshape([2] * num_qubits)
    return out.transpose(np.argsort(perm)).reshape(-1)


def rotate_to_measurement_basis(state: StateVector, bases: str) -> StateVector:
    """Apply per-qubit basis changes so a Z measurement realizes ``bases``.

    ``bases[k]`` is Z, X or Y for qubit ``k``.
    """
    if len(bases) != state.num_qubits:
        raise ValueError(
            f"basis string length {len(bases)} != state width {state.num_qubits}"
        )
    amps = state.amplitudes
    for q, b in enumerate(bases):
        if b == "Z":
            continue
        if b == "X":
            amps = _apply_matrix(amps, H, [q], state.num_qubits)
        elif b == "Y":
            amps = _apply_matrix(amps, Y_BASIS_CHANGE, [q], state.num_qubits)
        else:
            raise ValueError(f"unknown measurement basis {b!r} for qubit {q}")
    return StateVector(state.num_qubits, amps)


def measurement_distribution(state: StateVector, bases: str) -> np.ndarray:
    """Exact outcome probabilities of measuring every qubit in ``bases``."""
    rotated = rotate_to_measurement_basis(state, bases)
    p = np.abs(rotated.amplitudes) ** 2
    return p / p.sum()


def sample_bitstrings(
    state: StateVector, bases: str, shots: int, seed, label: str = ""
) -> ShotHistogram:
    """Sample ``shots`` outcomes of a product measurement.

    ``seed`` is an integer or a ``numpy.random.Generator``; identical seeds
    reproduce identical histograms.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    p = measurement_distribution(state, bases)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ShotHistogram(label or bases, rng.multinomial(shots, p), shots)


def embed_sites(alpha, positions, num_qubits: int) -> StateVector:
    """Register state holding ``alpha[s]`` at basis index ``positions[s]``.

    Refuses a register wider than MAX_SIM_WIDTH before allocating it.
    """
    if num_qubits > MAX_SIM_WIDTH:
        raise ValueError(
            f"a {num_qubits}-qubit register is too wide to simulate; limit is {MAX_SIM_WIDTH}"
        )
    register = np.zeros(2**num_qubits, dtype=complex)
    register[positions] = alpha
    return StateVector(num_qubits, register)

"""Shared test plumbing: acceptance-criterion result lines, the hypothesis
profile, dense kron oracles, the dense measurement oracle and shared
instances."""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sesvqe import hamiltonian as ham
from sesvqe import statevector as sv

# every property test is reproducible and not timed; a test that needs more
# examples raises max_examples with its own @settings
settings.register_profile(
    "sesvqe",
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sesvqe")

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_qubits(factors) -> np.ndarray:
    """Register operator with ``factors[q]`` on qubit q (qubit 0 = least significant bit)."""
    # np.kron puts its first factor on the most significant bits
    return functools.reduce(np.kron, reversed(factors))


# per-qubit rotations that turn a measurement in X or Y into one in Z; Y's
# maps the +1 eigenstate (|0> + i|1>)/sqrt(2) to |0>
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
BASIS_CHANGE = {"Z": PAULI["I"], "X": _H, "Y": _H @ np.diag([1, -1j])}


def measurement_distribution(register: np.ndarray, bases: str) -> np.ndarray:
    """Oracle: outcome probabilities of measuring every qubit of a dense
    register in ``bases`` (letter q on qubit q), by rotating each qubit to
    its Z basis (one kron product of the per-qubit rotations) and squaring
    the amplitudes."""
    n = len(bases)
    if register.shape != (2**n,):
        raise ValueError(f"register of {register.size} amplitudes does not match width {n}")
    register = kron_qubits([BASIS_CHANGE[letter] for letter in bases]) @ register
    p = np.abs(register) ** 2
    return p / p.sum()


def dense_register(state: sv.SiteState) -> np.ndarray:
    """The 2^num_qubits register a site state describes (one-hot: site j at 2^j)."""
    positions = state.positions
    if positions is None:
        positions = 1 << np.arange(state.num_qubits)
    register = np.zeros(2**state.num_qubits, dtype=complex)
    register[positions] = state.amplitudes
    return register


def ses_cascade_loop(n_sites: int, params) -> np.ndarray:
    """Oracle: the one-hot cascade one A gate at a time, in scalar complex
    arithmetic, written into a preallocated numpy array with numpy's ``exp``."""
    pairs = np.asarray(params, dtype=float).reshape(n_sites - 1, 2)
    alpha = np.zeros(n_sites, dtype=complex)
    carry = 1.0 + 0.0j
    for j in range(n_sites - 1):
        beta, gamma = pairs[j]
        alpha[j] = math.cos(beta) * carry
        carry = np.exp(-1j * gamma) * math.sin(beta) * carry
    alpha[n_sites - 1] = carry
    return alpha


def outcome_counts(hist: sv.ShotHistogram) -> np.ndarray:
    """Shots per outcome index (qubit k = bit k), 2^width entries: a packed
    record's own counts, or a one-hot record's rows read as indices."""
    if hist.rows is None:
        return hist.counts
    index = hist.rows.astype(np.int64) @ (1 << np.arange(hist.num_qubits))
    return np.bincount(index, weights=hist.counts, minlength=2**hist.num_qubits).astype(np.int64)


def rows_histogram(label: str, dense) -> sv.ShotHistogram:
    """Oracle: a record in the rows form from ``dense[i]``, the shots with
    outcome index ``i``: one row per outcome seen."""
    dense = np.asarray(dense)
    seen = np.flatnonzero(dense)
    rows = (seen[:, None] >> np.arange(dense.size.bit_length() - 1)) & 1
    return sv.ShotHistogram(label, rows.astype(np.uint8), dense[seen], int(dense.sum()))


_lines = []


def record_acceptance(line: str) -> None:
    """Store one pass/fail line for the terminal summary."""
    _lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _lines:
        terminalreporter.write_line(line)


@pytest.fixture
def lifted_chain() -> ham.SiteHamiltonian:
    """diag(100, 100.5, 101) with a 0.1 chain hopping: ground energy 99.98."""
    m = np.diag([100.0, 100.5, 101.0]).astype(complex)
    m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 0.1
    return ham.SiteHamiltonian.from_matrix(m)

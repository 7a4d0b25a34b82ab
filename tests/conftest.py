"""Shared test plumbing: acceptance-criterion result lines, the hypothesis
profile, dense kron oracles and shared instances."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sesvqe import hamiltonian as ham

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

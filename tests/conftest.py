"""Shared test plumbing: acceptance-criterion result lines and shared instances."""

import numpy as np
import pytest

from sesvqe import hamiltonian as ham

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

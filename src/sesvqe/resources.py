"""Volumetric cost accounting for the competing register strategies.

The figure of merit is width x depth x number of measurement settings.  Two
conventions are reported side by side: a constants-free scaling ratio that
drops all prefactors, and a unit-constant table that sets every hidden
prefactor to one so the strategies can be compared as concrete numbers.
Neither convention claims gate-accurate depths; real terms of comparison for
built circuits come from gate_counts on the circuits themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuits
from .encoding import register_width

STRATEGIES = ("original", "binary_hardware_efficient", "binary_full", "binary_gray")


@dataclass(frozen=True)
class VolumetricRow:
    """One strategy's width/depth/settings footprint."""

    strategy: str
    width: int
    depth: int
    settings: int

    @property
    def volume(self) -> int:
        return self.width * self.depth * self.settings

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "width": self.width,
            "depth": self.depth,
            "settings": self.settings,
            "volume": self.volume,
        }


def asymptotic_rows(n_sites: int) -> list:
    """Unit-constant footprints of the four strategies at ``n_sites``.

    original: one-hot register, N qubits, depth N, 3 settings.  The binary
    strategies share width n and 2n + 1 settings and differ in depth: a
    hardware-efficient ansatz of n layers, an exact state preparation of
    depth N, and a Gray-ordered exact preparation of depth N * n.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    n = register_width(n_sites)
    settings = 2 * n + 1
    return [
        VolumetricRow("original", n_sites, n_sites, 3),
        VolumetricRow("binary_hardware_efficient", n, n, settings),
        VolumetricRow("binary_full", n, n_sites, settings),
        VolumetricRow("binary_gray", n, n_sites * n, settings),
    ]


def volume_ratios(n_sites: int) -> dict:
    """original volume divided by each binary strategy's volume (unit constants)."""
    rows = {r.strategy: r for r in asymptotic_rows(n_sites)}
    base = rows["original"].volume
    return {
        name: base / rows[name].volume
        for name in STRATEGIES
        if name != "original"
    }


def constants_free_ratios(n_sites: int) -> dict:
    """Scaling-only advantage over the original strategy, all prefactors dropped.

    hardware-efficient N^2/n^3, full preparation N/n^2, Gray-ordered N/n^3
    with n the packed register width.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    n = register_width(n_sites)
    return {
        "binary_hardware_efficient": n_sites**2 / n**3,
        "binary_full": n_sites / n**2,
        "binary_gray": n_sites / n**3,
    }


def order_of_magnitude(value: float) -> int:
    if value <= 0:
        raise ValueError("order of magnitude needs a positive value")
    return math.floor(math.log10(value))


def leading_figure(value: float, digits: int = 2) -> str:
    """Scientific rendering rounded to ``digits`` significant figures."""
    if value <= 0:
        raise ValueError("expected a positive value")
    return f"{value:.{digits - 1}e}"


def binary_ansatz_cnot_total(n_sites: int) -> int:
    """CNOT-equivalent count of the packed ansatz circuit at ``n_sites``."""
    return circuits.build_binary_ses_circuit(n_sites).cnot_count


def scaling_exponent(sizes, costs, reference) -> float:
    """Least-squares slope of log(cost) against log(reference(size)).

    A slope near 1 confirms the costs track the reference law over the range.
    """
    sizes = list(sizes)
    if len(sizes) != len(list(costs)) or len(sizes) < 2:
        raise ValueError("need matching size/cost lists with at least two points")
    x = np.log([float(reference(s)) for s in sizes])
    y = np.log([float(c) for c in costs])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def report_table(n_sites: int) -> dict:
    """Everything the resources CLI prints, as one JSON-friendly dict."""
    rows = asymptotic_rows(n_sites)
    return {
        "n_sites": n_sites,
        "register_width": register_width(n_sites),
        "rows": [r.as_dict() for r in rows],
        "volume_ratios_vs_original": volume_ratios(n_sites),
        "constants_free_ratios": constants_free_ratios(n_sites),
    }

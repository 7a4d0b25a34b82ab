"""Qubit-efficient variational solver for single-particle Hamiltonians.

The package covers the full pipeline: Hamiltonian instances, one-hot and
packed-register ansatz circuits, dense statevector simulation, few-setting
measurement protocols with amplitude-profile reconstruction, derivative-free
optimization, and volumetric resource comparison.
"""

from .circuits import (
    Circuit,
    GateOp,
    a_gate_matrix,
    build_binary_ses_circuit,
    build_hardware_efficient_circuit,
    build_ses_circuit,
    decompose,
    gate_counts,
    ses_site_amplitudes,
    simulate,
)
from .encoding import (
    EncodingMap,
    build_map,
    diff_sets,
    gray_sequence,
    hypercube_edges,
    register_width,
)
from .hamiltonian import (
    PenaltyConfig,
    SiteHamiltonian,
    chain_instance,
    complex_ring_instance,
    energy_from_profile,
    exact_spectrum,
    extend_with_penalty,
    ground_energy,
    load_hamiltonian,
    random_hermitian_instance,
    save_hamiltonian,
)
from .measurement import (
    AmplitudeProfile,
    MeasurementSetting,
    PhaseGraph,
    estimate_energy,
    estimate_setting,
    reconstruct_profile,
    settings_binary,
    settings_original,
)
from .resources import asymptotic_rows, constants_free_ratios, volume_ratios
from .statevector import ShotHistogram, SiteState
from .vqe import RunPlan, VqeConfig, VqeResult, evaluate_cost, optimize, prepare

__version__ = "0.1.0"

__all__ = [
    "AmplitudeProfile",
    "Circuit",
    "EncodingMap",
    "GateOp",
    "MeasurementSetting",
    "PenaltyConfig",
    "PhaseGraph",
    "RunPlan",
    "ShotHistogram",
    "SiteState",
    "SiteHamiltonian",
    "VqeConfig",
    "VqeResult",
    "a_gate_matrix",
    "asymptotic_rows",
    "build_binary_ses_circuit",
    "build_hardware_efficient_circuit",
    "build_map",
    "build_ses_circuit",
    "chain_instance",
    "complex_ring_instance",
    "constants_free_ratios",
    "decompose",
    "diff_sets",
    "energy_from_profile",
    "estimate_energy",
    "estimate_setting",
    "evaluate_cost",
    "exact_spectrum",
    "extend_with_penalty",
    "gate_counts",
    "gray_sequence",
    "ground_energy",
    "hypercube_edges",
    "load_hamiltonian",
    "optimize",
    "prepare",
    "random_hermitian_instance",
    "reconstruct_profile",
    "register_width",
    "save_hamiltonian",
    "ses_site_amplitudes",
    "settings_binary",
    "settings_original",
    "simulate",
    "volume_ratios",
    "__version__",
]

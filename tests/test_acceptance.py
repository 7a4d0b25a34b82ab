"""End-to-end acceptance criteria, one test per criterion.

Each test records a single pass/fail line (printed in the terminal summary by
conftest) and then asserts the same condition, so a red test and its summary
line always agree.
"""

import math
import time

import numpy as np

from conftest import record_acceptance
from sesvqe import circuits, measurement, resources, vqe
from sesvqe import hamiltonian as ham
from sesvqe.encoding import build_map


def random_site_vector(n: int, rng) -> np.ndarray:
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a / np.linalg.norm(a)


def exactness_sweep(protocol: str, sizes) -> float:
    """Worst reconstruction error over 100 states x 20 operators per size."""
    worst = 0.0
    for size_idx, n in enumerate(sizes):
        emap = build_map(n, "shifted") if protocol == "binary" else None
        rng = np.random.default_rng(1000 + size_idx)
        for state_idx in range(100):
            alpha = random_site_vector(n, rng)
            for h_idx in range(20):
                h = ham.random_hermitian_instance(
                    n, seed=size_idx * 100_000 + state_idx * 100 + h_idx
                )
                est, _ = measurement.estimate_energy(h, alpha, protocol, emap=emap)
                exact = float((alpha.conj() @ h.matrix @ alpha).real)
                worst = max(worst, abs(est - exact))
    return worst


def test_criterion_1_three_setting_exactness():
    t0 = time.perf_counter()
    worst = exactness_sweep("original", (2, 4, 8, 16, 32, 64))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 120.0
    line = (
        f"criterion 1 (three-setting exactness): {'PASS' if ok else 'FAIL'}; "
        f"worst |E_est - E_exact| = {worst:.2e} over 6 sizes x 100 states x "
        f"20 operators; {elapsed:.1f} s"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_2_binary_setting_exactness():
    t0 = time.perf_counter()
    worst = exactness_sweep("binary", tuple(2**n for n in range(1, 7)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 120.0
    line = (
        f"criterion 2 (2n+1-setting exactness): {'PASS' if ok else 'FAIL'}; "
        f"worst |E_est - E_exact| = {worst:.2e} over n = 1..6; {elapsed:.1f} s"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_3_ansatz_equivalence():
    t0 = time.perf_counter()
    worst_mag = 0.0
    worst_phase = 0.0
    for n in (2, 4, 8, 16):
        emap = build_map(n, "shifted")
        rng = np.random.default_rng(n)
        for _ in range(100):
            params = rng.uniform(-np.pi, np.pi, size=2 * (n - 1))
            want = circuits.ses_site_amplitudes(n, params)
            state = circuits.simulate(circuits.build_binary_ses_circuit(n, emap), params)
            got, leak = circuits.binary_data_amplitudes(state, emap)
            assert leak < 1e-10
            worst_mag = max(worst_mag, float(np.max(np.abs(np.abs(got) - np.abs(want)))))
            # phase comparison restricted to well-conditioned sites; at tiny
            # magnitude the angle itself is numerically meaningless
            mask = np.abs(want) > 1e-5
            delta = np.angle(got[mask] * np.conj(want[mask]))
            delta = delta - delta[0]
            delta = (delta + np.pi) % (2 * np.pi) - np.pi
            worst_phase = max(worst_phase, float(np.max(np.abs(delta))))
    elapsed = time.perf_counter() - t0
    ok = worst_mag < 1e-10 and worst_phase < 1e-9 and elapsed < 300.0
    line = (
        f"criterion 3 (packed ansatz equivalence): {'PASS' if ok else 'FAIL'}; "
        f"worst magnitude gap {worst_mag:.2e}, worst phase gap {worst_phase:.2e} rad "
        f"over N in (2,4,8,16) x 100 draws; {elapsed:.1f} s"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_4_gate_count_model():
    one_a = circuits.Circuit(2, [circuits.GateOp("A", (0, 1))])
    a_cnots = sum(1 for g in circuits.decompose(one_a).gates if g.kind == "CNOT")
    a_ok = a_cnots == 3 and one_a.cnot_count == 3

    mcx_ok = all(
        circuits.GateOp("MCX", tuple(range(k + 1))).cnot_cost() == (2 * k - 3) * 6
        for k in range(3, 11)
    )

    sizes = (4, 8, 16, 32, 64, 128, 256)
    measured = [circuits.build_binary_ses_circuit(n).cnot_count for n in sizes]
    formula = [resources.binary_ansatz_cnot_total(n) for n in sizes]
    slope = resources.scaling_exponent(
        sizes, measured, lambda n: n * math.ceil(math.log2(n))
    )
    slope_ok = 0.85 <= slope <= 1.15 and measured == formula

    ok = a_ok and mcx_ok and slope_ok
    line = (
        f"criterion 4 (gate-count model): {'PASS' if ok else 'FAIL'}; "
        f"A gate = {a_cnots} CNOTs, MCX ladder matches (2k-3)*6, "
        f"log-log slope vs N*ceil(log2 N) = {slope:.4f}"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_5_penalty_extension():
    candidates = [
        n
        for m in range(2, 8)
        for n in range(2**m + 1, 2 ** (m + 1))
    ]
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(50):
        n = int(rng.choice(candidates))
        h = ham.random_hermitian_instance(n, seed=500 + i)
        extended = ham.extend_with_penalty(h, ham.default_penalty(h))
        worst = max(worst, abs(ham.ground_energy(extended) - ham.ground_energy(h)))
    ok = worst < 1e-10
    line = (
        f"criterion 5 (penalty extension): {'PASS' if ok else 'FAIL'}; "
        f"worst ground-energy shift {worst:.2e} over 50 non-power-of-two sizes"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_6_shot_noise_scaling():
    h = ham.chain_instance(8, 1.0, disorder=1.0, seed=6)
    alpha = random_site_vector(8, np.random.default_rng(42))
    emap = build_map(8, "shifted")

    def spread(shots: int) -> float:
        estimates = [
            measurement.estimate_energy(
                h, alpha, "binary", shots=shots, seed=seed, emap=emap
            )[0]
            for seed in range(50)
        ]
        return float(np.std(estimates))

    ratio = spread(10**4) / spread(10**6)
    ok = 10.0 / 1.5 <= ratio <= 10.0 * 1.5
    line = (
        f"criterion 6 (shot-noise scaling): {'PASS' if ok else 'FAIL'}; "
        f"std ratio 1e4 vs 1e6 shots = {ratio:.2f}, expected near 10"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_7_vqe_convergence():
    t0 = time.perf_counter()
    counts = {}
    for n in (2, 4, 8, 16):
        hits = 0
        for seed in range(20):
            h = ham.chain_instance(n, 1.0, disorder=1.0, seed=seed)
            result = vqe.optimize(
                vqe.VqeConfig(hamiltonian=h, seed=seed, max_evaluations=5000)
            )
            assert result.evaluations_used <= 5000
            if result.relative_error < 1e-3:
                hits += 1
        counts[n] = hits
    elapsed = time.perf_counter() - t0
    ok = all(hits >= 16 for hits in counts.values()) and elapsed < 900.0
    detail = " ".join(f"N={n}:{hits}/20" for n, hits in counts.items())
    line = (
        f"criterion 7 (one-hot VQE convergence): {'PASS' if ok else 'FAIL'}; "
        f"runs under 1e-3 relative error: {detail}; {elapsed:.0f} s"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_8_volumetric_figures():
    kilo = resources.constants_free_ratios(1024)["binary_hardware_efficient"]
    kilo_ok = (
        abs(kilo - 1048.576) < 1e-9 and resources.order_of_magnitude(kilo) == 3
    )

    mega = resources.constants_free_ratios(2**20)
    figures = {
        name: resources.leading_figure(value)
        for name, value in mega.items()
    }
    buckets = {
        name: resources.order_of_magnitude(value) for name, value in mega.items()
    }
    mega_ok = (
        figures["binary_hardware_efficient"] == "1.4e+08"
        and figures["binary_full"] == "2.6e+03"
        and figures["binary_gray"] == "1.3e+02"
        and buckets["binary_hardware_efficient"] == 8
        and buckets["binary_full"] == 3
        and buckets["binary_gray"] == 2
    )

    ok = kilo_ok and mega_ok
    line = (
        f"criterion 8 (volumetric figures): {'PASS' if ok else 'FAIL'}; "
        f"N=1024 ratio {kilo:.1f} in the 10^3 bucket; N=2^20 leading figures "
        f"{figures['binary_hardware_efficient']}, {figures['binary_full']}, "
        f"{figures['binary_gray']}"
    )
    record_acceptance(line)
    assert ok, line


def test_criterion_9_hardware_scale_note():
    record_acceptance(
        "criterion 9 (hardware-scale runs): NOT REPRODUCED at desk scale by "
        "design; covered at the formula level by criterion 8"
    )

"""Driver behavior: configuration, cost routes, convergence, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dense_register
from sesvqe import circuits, encoding
from sesvqe import hamiltonian as ham
from sesvqe import statevector as sv
from sesvqe import vqe


def local_cascade(params):
    """Oracle: site amplitudes written as an explicit running product."""
    pairs = np.asarray(params, dtype=float).reshape(-1, 2)
    n = pairs.shape[0] + 1
    alpha = np.zeros(n, dtype=complex)
    carry = 1.0 + 0.0j
    for j, (beta, gamma) in enumerate(pairs):
        alpha[j] = math.cos(beta) * carry
        carry *= np.exp(-1j * gamma) * math.sin(beta)
    alpha[n - 1] = carry
    return alpha


class TestConfigValidation:
    def setup_method(self):
        self.h = ham.chain_instance(4)

    def test_defaults_are_valid(self):
        cfg = vqe.VqeConfig(self.h)
        assert cfg.ansatz == "one_hot_ses"
        assert cfg.protocol == "exact_operator"

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="ansatz"):
            vqe.VqeConfig(self.h, ansatz="uccsd")
        with pytest.raises(ValueError, match="protocol"):
            vqe.VqeConfig(self.h, protocol="tomography")
        with pytest.raises(ValueError, match="optimizer"):
            vqe.VqeConfig(self.h, optimizer="adam")

    def test_register_protocol_compatibility(self):
        with pytest.raises(ValueError, match="register"):
            vqe.VqeConfig(self.h, ansatz="one_hot_ses", protocol="binary")
        with pytest.raises(ValueError, match="register"):
            vqe.VqeConfig(self.h, ansatz="binary_ses", protocol="original")
        with pytest.raises(ValueError, match="register"):
            vqe.VqeConfig(self.h, ansatz="hardware_efficient", protocol="original")

    def test_shot_mode_constraints(self):
        with pytest.raises(ValueError, match="shots"):
            vqe.VqeConfig(self.h, protocol="original", shots=0, optimizer="spsa")
        with pytest.raises(ValueError, match="measurement protocol"):
            vqe.VqeConfig(self.h, protocol="exact_operator", shots=100, optimizer="spsa")
        with pytest.raises(ValueError, match="spsa"):
            vqe.VqeConfig(self.h, protocol="original", shots=100, optimizer="simplex")
        for shots in (2.5, True):
            with pytest.raises(ValueError, match="shots must be an integer"):
                vqe.VqeConfig(self.h, protocol="original", shots=shots, optimizer="spsa")

    def test_scalar_bounds(self):
        for value in (0, 10.5, True):
            with pytest.raises(ValueError, match="max_evaluations must be an integer >= 1"):
                vqe.VqeConfig(self.h, max_evaluations=value)
        for value in (0, 1.5, True):
            with pytest.raises(ValueError, match="layers must be an integer >= 1"):
                vqe.VqeConfig(self.h, ansatz="hardware_efficient", protocol="binary", layers=value)
        for value in (-1, 1.5, True, None):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                vqe.VqeConfig(self.h, seed=value)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.5, "x"])
    def test_epsilon_must_be_a_finite_number_at_least_zero(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            vqe.VqeConfig(self.h, protocol="original", epsilon=epsilon)

    @pytest.mark.parametrize(
        "optimizer,options",
        [("simplex", {"visit_capp": 3}), ("simplex", {"a": 0.3}), ("spsa", {"block": 4})],
    )
    def test_unknown_optimizer_options_refused(self, optimizer, options):
        with pytest.raises(ValueError, match=f"unknown {optimizer} option"):
            vqe.VqeConfig(self.h, optimizer=optimizer, optimizer_options=options)

    @pytest.mark.parametrize("optimizer", vqe.OPTIMIZERS)
    def test_option_table_holds_the_defaults(self, optimizer):
        def trace(options):
            cfg = vqe.VqeConfig(self.h, optimizer=optimizer, max_evaluations=150, optimizer_options=options)
            return vqe.optimize(cfg).trace

        assert trace(dict(vqe.OPTIMIZER_OPTIONS[optimizer])) == trace({})

    def test_penalty_requires_hardware_efficient(self):
        pen = ham.PenaltyConfig(50.0, 2)
        with pytest.raises(ValueError, match="penalty"):
            vqe.VqeConfig(self.h, penalty=pen)
        vqe.VqeConfig(self.h, ansatz="hardware_efficient", protocol="binary", penalty=pen)


class TestTemplateCircuit:
    @pytest.mark.parametrize(
        "ansatz,protocol,shots,optimizer",
        [
            ("binary_ses", "exact_operator", None, "simplex"),
            ("binary_ses", "binary", 100, "spsa"),
            ("hardware_efficient", "exact_operator", None, "simplex"),
            ("hardware_efficient", "binary", 100, "spsa"),
        ],
    )
    def test_a_solve_compiles_once(self, monkeypatch, ansatz, protocol, shots, optimizer):
        compiled = []
        compile_circuit = circuits._compile

        def counting(circuit):
            compiled.append(circuit.label)
            return compile_circuit(circuit)

        monkeypatch.setattr(circuits, "_compile", counting)
        cfg = vqe.VqeConfig(
            ham.chain_instance(4, disorder=0.5, seed=2),
            ansatz=ansatz,
            protocol=protocol,
            shots=shots,
            optimizer=optimizer,
            max_evaluations=40,
            seed=1,
        )
        result = vqe.optimize(cfg)
        assert result.evaluations_used > 1
        assert compiled == [ansatz]

    def test_one_hot_exact_mode_never_simulates(self, monkeypatch):
        monkeypatch.setattr(circuits, "_compile", None)  # any compile would fail
        plan = vqe.prepare(vqe.VqeConfig(ham.chain_instance(4)))
        assert plan.circuit is None
        vqe.optimize(vqe.VqeConfig(ham.chain_instance(4), max_evaluations=30))

    def test_one_hot_shot_mode_never_simulates(self, monkeypatch):
        monkeypatch.setattr(circuits, "_compile", None)
        cfg = vqe.VqeConfig(
            ham.chain_instance(4, disorder=0.5, seed=2),
            protocol="original",
            shots=100,
            optimizer="spsa",
            max_evaluations=40,
            seed=1,
        )
        assert vqe.prepare(cfg).circuit is None
        assert vqe.optimize(cfg).evaluations_used == 40


class TestParameterCount:
    def test_chain_ansatz_sizes(self):
        assert vqe.parameter_count(vqe.VqeConfig(ham.chain_instance(5))) == 8
        cfg = vqe.VqeConfig(ham.chain_instance(8), ansatz="binary_ses", protocol="binary")
        assert vqe.parameter_count(cfg) == 14

    def test_hardware_efficient_size(self):
        cfg = vqe.VqeConfig(
            ham.chain_instance(5), ansatz="hardware_efficient", protocol="binary", layers=3
        )
        # 3 register qubits, 2 angles per qubit per layer
        assert vqe.parameter_count(cfg) == 18


class TestPrepare:
    def test_one_hot_plan(self):
        plan = vqe.prepare(vqe.VqeConfig(ham.chain_instance(4)))
        assert plan.dim == 6
        assert plan.emap is None
        assert plan.target is plan.config.hamiltonian
        assert plan.exact_ground == pytest.approx(-1.618033988749895, abs=1e-12)

    def test_binary_plan_uses_shifted_map(self):
        cfg = vqe.VqeConfig(ham.chain_instance(8), ansatz="binary_ses", protocol="binary")
        plan = vqe.prepare(cfg)
        assert plan.emap.codewords == encoding.build_map(8, "shifted").codewords
        assert plan.emap.num_qubits == 3

    def test_hardware_efficient_gets_default_penalty(self):
        h = ham.chain_instance(3)
        cfg = vqe.VqeConfig(h, ansatz="hardware_efficient", protocol="exact_operator")
        plan = vqe.prepare(cfg)
        assert plan.target.n_sites == 4
        spread = float(
            ham.exact_spectrum(h)[-1] - ham.exact_spectrum(h)[0]
        )
        assert plan.target.matrix[3, 3].real == pytest.approx(max(10 * spread, 1.0))
        assert plan.emap.codewords == encoding.build_map(4, "plain").codewords
        # ground energy of the extension matches the raw problem
        assert plan.exact_ground == pytest.approx(ham.ground_energy(h), abs=1e-12)

    def test_penalty_width_mismatch(self):
        cfg = vqe.VqeConfig(
            ham.chain_instance(3),
            ansatz="hardware_efficient",
            protocol="binary",
            penalty=ham.PenaltyConfig(40.0, 3),
        )
        with pytest.raises(ValueError, match="width"):
            vqe.prepare(cfg)

    def test_one_hot_shot_mode_has_no_width_cap(self):
        # 23 sites: one past the widest register a run may allocate, which
        # one-hot shot mode does not need
        wide = ham.SiteHamiltonian(23, np.zeros((23, 23)))
        cfg = vqe.VqeConfig(
            wide, protocol="original", shots=100, optimizer="spsa", max_evaluations=4
        )
        result = vqe.optimize(cfg)
        assert result.evaluations_used == 4
        assert all(math.isfinite(energy) for _, energy, _ in result.trace)


def packed_register_energy(h, params):
    """Oracle: the quadratic form of the simulated packed circuit's data block."""
    emap = encoding.build_map(h.n_sites, "shifted")
    state = circuits.simulate(circuits.build_binary_ses_circuit(h.n_sites, params, emap))
    alpha, _ = circuits.binary_data_amplitudes(state, emap)
    alpha = alpha / np.linalg.norm(alpha)
    return float((alpha.conj() @ h.matrix @ alpha).real)


@st.composite
def ansatz_points(draw):
    """A site count N = 2..12, a random Hermitian h on it and 2(N - 1) angles."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.uniform(-np.pi, np.pi, size=2 * (n - 1))
    return ham.random_hermitian_instance(n, seed=int(rng.integers(2**31))), params


class TestSiteVector:
    @given(ansatz_points())
    def test_binary_ses_cost_equals_packed_circuit(self, point):
        h, params = point
        want = packed_register_energy(h, params)
        for protocol in ("exact_operator", "binary"):
            plan = vqe.prepare(vqe.VqeConfig(h, ansatz="binary_ses", protocol=protocol))
            assert abs(vqe.evaluate_cost(plan, params) - want) <= 1e-12

    @given(ansatz_points())
    def test_one_hot_register_embeds_the_cascade(self, point):
        # shot mode samples the cascade's site state in place of the
        # simulated one-hot register, so the register it describes must agree
        h, params = point
        n = h.n_sites
        register = circuits.simulate(circuits.build_ses_circuit(n, params))
        alpha = circuits.ses_site_amplitudes(n, params)
        embedded = dense_register(sv.SiteState(n, None, alpha))
        assert np.max(np.abs(register - embedded)) <= 1e-14


class TestEvaluateCost:
    def test_single_site(self):
        h = ham.SiteHamiltonian.from_matrix([[0.7]])
        assert vqe.evaluate_cost(vqe.prepare(vqe.VqeConfig(h)), []) == pytest.approx(0.7)

    def test_two_site_closed_form(self):
        # beta = pi/4, gamma = pi gives the odd pair state and energy -t
        h = ham.SiteHamiltonian.from_matrix([[0, 1], [1, 0]])
        got = vqe.evaluate_cost(vqe.prepare(vqe.VqeConfig(h)), [math.pi / 4, math.pi])
        assert got == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_quadratic_form_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        h = ham.random_hermitian_instance(8, seed=seed)
        params = rng.uniform(-np.pi, np.pi, size=14)
        alpha = local_cascade(params)
        want = np.vdot(alpha, h.matrix @ alpha).real
        got = vqe.evaluate_cost(vqe.prepare(vqe.VqeConfig(h)), params)
        assert got == pytest.approx(want, abs=1e-10)

    def test_all_exact_routes_agree(self):
        rng = np.random.default_rng(77)
        h = ham.random_hermitian_instance(8, seed=13)
        params = rng.uniform(-np.pi, np.pi, size=14)
        routes = [
            vqe.VqeConfig(h, ansatz="one_hot_ses", protocol="exact_operator"),
            vqe.VqeConfig(h, ansatz="one_hot_ses", protocol="original"),
            vqe.VqeConfig(h, ansatz="binary_ses", protocol="exact_operator"),
            vqe.VqeConfig(h, ansatz="binary_ses", protocol="binary"),
        ]
        values = [vqe.evaluate_cost(vqe.prepare(cfg), params) for cfg in routes]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-10)

    def test_shot_mode_is_keyed_by_eval_index(self):
        cfg = vqe.VqeConfig(
            ham.chain_instance(3),
            protocol="original",
            shots=500,
            optimizer="spsa",
            seed=4,
        )
        plan = vqe.prepare(cfg)
        params = np.array([0.3, -0.2, 1.0, 0.1])
        assert vqe.evaluate_cost(plan, params, 7) == vqe.evaluate_cost(plan, params, 7)
        assert vqe.evaluate_cost(plan, params, 7) != vqe.evaluate_cost(plan, params, 8)


class TestOptimize:
    def test_two_site_chain_to_machine_precision(self):
        res = vqe.optimize(vqe.VqeConfig(ham.chain_instance(2), max_evaluations=200))
        assert res.status == "converged"
        assert res.relative_error < 1e-6
        assert res.evaluations_used <= 200

    def test_zero_dimensional_problem(self):
        h = ham.SiteHamiltonian.from_matrix([[0.7]])
        res = vqe.optimize(vqe.VqeConfig(h, max_evaluations=50))
        assert res.status == "converged"
        assert res.best_energy == pytest.approx(0.7)
        assert res.evaluations_used == 1

    def test_plateau_fires_at_exactly_one_window(self):
        # constant landscape: no improvement is possible, so the plateau rule
        # must trip the moment the window fills
        h = ham.SiteHamiltonian.from_matrix([[0.5, 0.0], [0.0, 0.5]])
        res = vqe.optimize(vqe.VqeConfig(h, max_evaluations=5000))
        assert res.status == "converged"
        assert res.evaluations_used == res.diagnostics["plateau_window"] == 100

    def test_budget_of_one(self):
        res = vqe.optimize(vqe.VqeConfig(ham.chain_instance(2), max_evaluations=1))
        assert res.status == "non_converged"
        assert res.evaluations_used == 1
        assert res.trace[0][0] == 0

    def test_trace_bookkeeping(self):
        res = vqe.optimize(vqe.VqeConfig(ham.chain_instance(3), max_evaluations=400))
        assert len(res.trace) == res.evaluations_used
        bests = [row[2] for row in res.trace]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(bests, bests[1:]))
        assert [row[0] for row in res.trace] == list(range(len(res.trace)))
        assert res.best_energy == bests[-1]

    def test_seed_determinism(self):
        cfg = vqe.VqeConfig(ham.chain_instance(4, disorder=1.0, seed=5), seed=3, max_evaluations=600)
        a = vqe.optimize(cfg)
        b = vqe.optimize(cfg)
        assert a.trace == b.trace
        assert np.array_equal(a.best_params, b.best_params)
        c = vqe.optimize(
            vqe.VqeConfig(ham.chain_instance(4, disorder=1.0, seed=5), seed=4, max_evaluations=600)
        )
        assert c.trace != a.trace

    def test_exact_mode_respects_variational_bound(self):
        res = vqe.optimize(
            vqe.VqeConfig(ham.random_hermitian_instance(4, seed=8), max_evaluations=800)
        )
        floor = res.exact_ground - 1e-9
        assert all(row[1] >= floor for row in res.trace)

    def test_binary_ansatz_run(self):
        cfg = vqe.VqeConfig(
            ham.chain_instance(4, disorder=0.5, seed=1),
            ansatz="binary_ses",
            protocol="exact_operator",
            max_evaluations=2000,
            seed=0,
        )
        res = vqe.optimize(cfg)
        assert res.status == "converged"
        assert res.relative_error < 1e-5
        assert res.diagnostics["leak"] < 1e-10

    def test_spsa_with_shots(self):
        h = ham.chain_instance(4, 1.0, disorder=1.0, seed=3)
        cfg = vqe.VqeConfig(
            h,
            protocol="original",
            shots=10_000,
            optimizer="spsa",
            max_evaluations=3000,
            seed=3,
        )
        res = vqe.optimize(cfg)
        # judge the noisy run by the exact energy of its best parameters
        exact = vqe.evaluate_cost(vqe.prepare(vqe.VqeConfig(h)), res.best_params)
        rel = abs(exact - res.exact_ground) / abs(res.exact_ground)
        assert rel < 0.05

    def test_hardware_efficient_with_default_penalty(self):
        h = ham.random_hermitian_instance(3, seed=14)
        cfg = vqe.VqeConfig(
            h,
            ansatz="hardware_efficient",
            protocol="exact_operator",
            max_evaluations=4000,
            seed=1,
            layers=2,
        )
        res = vqe.optimize(cfg)
        assert res.status == "converged"
        assert res.relative_error < 1e-4
        d = res.diagnostics
        assert d["physical_weight"] > 0.9999
        assert d["physical_energy"] >= ham.ground_energy(h) - 1e-9
        assert d["physical_energy"] == pytest.approx(ham.ground_energy(h), abs=1e-3)

    def test_default_penalty_on_a_lifted_spectrum(self, lifted_chain):
        # the old default c_p = 10 * range = 10.39 sat below the ground energy
        # 99.98, and the solve reported "converged" on a non-physical state
        h = lifted_chain
        cfg = vqe.VqeConfig(h, ansatz="hardware_efficient", seed=0)
        res = vqe.optimize(cfg)
        assert res.exact_ground == pytest.approx(ham.ground_energy(h), abs=1e-12)
        assert res.diagnostics["physical_weight"] > 0.99
        assert res.relative_error < 1e-3
        assert res.status == "converged"
        assert res.diagnostics["warnings"] == []

    def test_relative_error_is_against_the_input_hamiltonian(self, lifted_chain):
        h = lifted_chain
        low = ham.PenaltyConfig(10.0, 2)
        res = vqe.optimize(vqe.VqeConfig(h, ansatz="hardware_efficient", seed=0, penalty=low))
        assert res.exact_ground == pytest.approx(ham.ground_energy(h), abs=1e-12)
        assert res.relative_error > 0.5
        # the penalty sits below the spectrum, so the best state is non-physical
        assert res.diagnostics["physical_weight"] < vqe.MIN_PHYSICAL_WEIGHT
        assert res.status == "non_physical"
        assert res.diagnostics["warnings"] == ["non-physical-state"]

    def test_initial_points_cover_the_angle_box(self):
        cfg = vqe.VqeConfig(ham.chain_instance(3), seed=0)
        draws = np.concatenate(
            [vqe._initial_point(cfg, 4, r)[0] for r in range(200)]
        )
        assert np.all(draws > -np.pi)
        assert np.all(draws <= np.pi)
        assert draws.min() < -3.0
        assert draws.max() > 3.0
        np.testing.assert_array_equal(
            vqe._initial_point(cfg, 4, 5)[0], vqe._initial_point(cfg, 4, 5)[0]
        )


class TestFinalReport:
    def test_one_hot_fields(self):
        res = vqe.optimize(vqe.VqeConfig(ham.chain_instance(3), max_evaluations=500))
        d = res.diagnostics
        assert d["ansatz"] == "one_hot_ses"
        assert d["leak"] == 0.0
        assert len(d["site_magnitudes"]) == 3
        assert d["active_sites"] >= 1
        assert d["exact_energy_of_state"] == pytest.approx(res.best_energy, abs=1e-9)

    def test_magnitudes_describe_the_ground_state(self):
        h = ham.chain_instance(4)
        res = vqe.optimize(vqe.VqeConfig(h, max_evaluations=2000, seed=2))
        ground_vec = np.linalg.eigh(h.matrix)[1][:, 0]
        # the plateau rule stops on energy, so magnitudes carry sqrt-scale slack
        np.testing.assert_allclose(
            res.diagnostics["site_magnitudes"], np.abs(ground_vec), atol=1e-2
        )

"""Variational ground-state search over the single-particle ansatz family.

The driver couples three ansatz builders (one-hot chain, packed binary
register, hardware-efficient layers with a penalty-extended target) to three
cost evaluation routes (exact operator average, exact protocol estimates,
finite-shot protocol estimates) behind one derivative-free optimization loop.
Every route reads the ansatz state as one vector of site amplitudes
(``site_vector``): the closed-form cascade for both SES ansatze, the simulated
register for the hardware-efficient one.

Determinism contract: every random draw descends from the run seed through
numpy SeedSequence spawn keys: [seed, 0, restart] for starting points and the
simplex's in-restart kicks, [seed, 1, eval_index, setting_index] for shot
sampling and [seed, 2, 0] for SPSA perturbations (SPSA runs from one start).
Re-running a configuration reproduces the trace bit for bit.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import circuits, measurement
from .encoding import EncodingMap, build_map, register_width
from .hamiltonian import (
    SiteHamiltonian,
    check_penalty,
    default_penalty,
    extend_with_penalty,
    ground_energy,
)
from .statevector import MAX_SIM_WIDTH, check_shots

ANSATZE = ("one_hot_ses", "binary_ses", "hardware_efficient")
PROTOCOLS = ("original", "binary", "exact_operator")

# protocol families each ansatz's register supports
_COMPATIBLE = {
    "one_hot_ses": ("original", "exact_operator"),
    "binary_ses": ("binary", "exact_operator"),
    "hardware_efficient": ("binary", "exact_operator"),
}

PLATEAU_TOL = 1e-9
PLATEAU_WINDOW_PER_DIM = 50

# a best state with less weight on the physical sites is reported non_physical;
# converged default-penalty runs reach 0.9998-0.999999 on chains of 3-6 sites
MIN_PHYSICAL_WEIGHT = 0.99

# the block-sweep simplex's fixed settings, tuned on disordered chains up to 16 sites
SIMPLEX_BLOCK = 8  # parameters per Nelder-Mead block
SIMPLEX_VISIT_CAP = 100  # evaluations per block visit
SIMPLEX_SPREAD = 0.8  # initial simplex spread
SIMPLEX_SHRINK = 0.63  # spread factor per sweep
SIMPLEX_MAX_SWEEPS = 16  # sweeps per restart
SIMPLEX_KICKS = (0.8, 0.5, 0.3)  # escape kick magnitudes, in order
SIMPLEX_CRAWL_FRACTION = 0.005  # relative sweep gain below which a sweep crawls

# SPSA's fixed gains: step a / (k + 1 + max(1, 0.1 x iterations))^alpha and
# perturbation c / (k + 1)^gamma at iteration k
SPSA_A, SPSA_C, SPSA_ALPHA, SPSA_GAMMA = 0.2, 0.1, 0.602, 0.101

OPTIMIZERS = ("simplex", "spsa")

_MIN_SPREAD = 5e-4
_SWEEP_STALL = 1e-10


def check_count(name: str, value, least: int) -> None:
    """Refuse a value that is not an int >= ``least``; a bool is refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class VqeConfig:
    """Everything a run needs; validated on construction."""

    hamiltonian: SiteHamiltonian
    ansatz: str = "one_hot_ses"
    protocol: str = "exact_operator"
    shots: int | None = None
    optimizer: str = "simplex"
    max_evaluations: int = 5000
    seed: int = 0
    penalty: float | None = None  # c_p; None picks default_penalty(hamiltonian)
    layers: int = 2
    epsilon: float | None = None

    def __post_init__(self):
        if self.ansatz not in ANSATZE:
            raise ValueError(f"unknown ansatz {self.ansatz!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.protocol not in _COMPATIBLE[self.ansatz]:
            raise ValueError(
                f"protocol {self.protocol!r} does not run on the {self.ansatz!r} register"
            )
        if self.shots is not None:
            check_shots(self.shots)
            if self.protocol == "exact_operator":
                raise ValueError("shot mode needs a measurement protocol")
            if self.optimizer == "simplex":
                raise ValueError("the simplex optimizer requires exact mode; use spsa")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        check_count("max_evaluations", self.max_evaluations, 1)
        check_count("seed", self.seed, 0)
        if self.penalty is not None:
            check_penalty(self.penalty)
            if self.ansatz != "hardware_efficient":
                raise ValueError("penalty extension only applies to hardware_efficient")
        check_count("layers", self.layers, 1)
        measurement.check_epsilon(self.epsilon)


@dataclass(frozen=True)
class RunPlan:
    """Config resolved into concrete registers and targets, built once.

    ``circuit`` is the ansatz template that ``circuits.simulate`` binds
    parameters to: every hardware-efficient evaluation, and the packed
    ansatz's leak check in ``final_report``.  It is None for the one-hot
    ansatz, which never simulates.
    """

    config: VqeConfig
    dim: int
    target: SiteHamiltonian
    emap: EncodingMap | None
    exact_ground: float
    circuit: circuits.Circuit | None = None


@dataclass
class VqeResult:
    best_params: np.ndarray
    best_energy: float
    exact_ground: float
    relative_error: float
    evaluations_used: int
    restarts_used: int
    status: str
    trace: list
    wall_time_s: float
    diagnostics: dict


def parameter_count(config: VqeConfig) -> int:
    n = config.hamiltonian.n_sites
    if config.ansatz == "hardware_efficient":
        return 2 * register_width(n) * config.layers
    return 2 * (n - 1)


def prepare(config: VqeConfig) -> RunPlan:
    """Resolve registers, penalty extension and the exact reference energy."""
    h = config.hamiltonian
    n = h.n_sites
    zeros = np.zeros(parameter_count(config))
    circuit = None
    if config.ansatz == "one_hot_ses":
        emap = None
        target = h
    elif config.ansatz == "binary_ses":
        emap = build_map(n, "shifted")
        target = h
        width = circuits.binary_register_layout(emap)["width"]
        if width > MAX_SIM_WIDTH:
            raise ValueError(f"packed register would need {width} qubits; limit is {MAX_SIM_WIDTH}")
        circuit = circuits.build_binary_ses_circuit(n, zeros, emap)
    else:
        c_p = default_penalty(h) if config.penalty is None else config.penalty
        target = extend_with_penalty(h, c_p)
        emap = build_map(target.n_sites, "plain")
        circuit = circuits.build_hardware_efficient_circuit(register_width(n), config.layers, zeros)
    return RunPlan(config, zeros.size, target, emap, ground_energy(h), circuit)


def _shot_seed(config: VqeConfig, eval_index: int):
    return (config.seed, 1, eval_index)


def site_vector(plan: RunPlan, params) -> np.ndarray:
    """The ansatz state as amplitudes over ``plan.target``'s sites.

    Both SES ansatze hold the closed-form cascade (criterion 3 proves the
    packed circuit prepares it); under the plain map the hardware-efficient
    register is its own site basis.
    """
    if plan.config.ansatz == "hardware_efficient":
        return circuits.simulate(plan.circuit, params)
    return circuits.ses_site_amplitudes(plan.target.n_sites, params)


def evaluate_cost(plan: RunPlan, params, eval_index: int = 0) -> float:
    """One cost evaluation; deterministic given (plan, params, eval_index)."""
    config = plan.config
    alpha = site_vector(plan, params)
    if config.protocol == "exact_operator":
        return plan.target.energy(alpha)
    energy, _ = measurement.estimate_energy(
        plan.target,
        alpha,
        config.protocol,
        config.shots,
        seed=_shot_seed(config, eval_index),
        emap=plan.emap,
        epsilon=config.epsilon,
        diagnostics=False,
    )
    return energy


class _BudgetExhausted(Exception):
    pass


class _Plateau(Exception):
    pass


class _Tracker:
    """Evaluation ledger shared across restarts.

    Raises _Plateau when the running best fails to improve by PLATEAU_TOL over
    a full window of evaluations, and _BudgetExhausted at the evaluation cap.
    """

    def __init__(self, plan: RunPlan, budget: int, window: int):
        self.plan = plan
        self.budget = budget
        self.window = window
        self.evals = 0
        self.best = math.inf
        self.best_params = None
        self.trace = []  # (eval_index, energy, best_after)

    def cost(self, params) -> float:
        if self.evals >= self.budget:
            raise _BudgetExhausted
        energy = evaluate_cost(self.plan, params, self.evals)
        if energy < self.best:
            self.best = energy
            self.best_params = np.array(params, dtype=float, copy=True)
        self.trace.append((self.evals, energy, self.best))
        self.evals += 1
        if self.evals >= self.window:
            best_then = self.trace[-self.window][2]
            if best_then - self.best < PLATEAU_TOL:
                raise _Plateau
        return energy


def _initial_point(config: VqeConfig, dim: int, restart: int) -> tuple:
    """A restart's start point in the angle box, and the generator that drew it.

    The simplex goes on to draw its kicks from the same generator.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0, restart]))
    return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=dim), rng


class _VisitCap(Exception):
    pass


def _nelder_mead(func, simplex: np.ndarray, maxfev: int) -> None:
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 259 (2012)).

    scipy 1.17.1's ``optimize._minimize_neldermead`` with ``adaptive``,
    ``initial_simplex``, ``maxfev``, ``xatol=1e-10`` and ``fatol=1e-12``,
    copied operation for operation, so ``func`` is called on the same points,
    bit for bit.  Stops after ``maxfev`` calls or within both tolerances;
    exceptions from ``func`` propagate, and results reach the caller only
    through ``func``.
    """
    sim = np.array(simplex, dtype=float)
    N = sim.shape[1]
    dim = float(N)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _VisitCap
        calls += 1
        return func(x)

    fsim = np.full((N + 1,), np.inf, dtype=float)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
        ind = np.argsort(fsim)  # scipy sorts twice before its first step
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        while True:
            ind = np.argsort(fsim)
            sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
            xspan = np.max(np.ravel(np.abs(sim[1:] - sim[0])))
            if xspan <= 1e-10 and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12:
                return
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
    except _VisitCap:
        pass


def _run_simplex(tracker: _Tracker, x0: np.ndarray, rng: np.random.Generator):
    """Block-coordinate Nelder-Mead sweeps with a shrinking spread schedule.

    Parameters are visited in fixed contiguous blocks.  Each visit runs an
    adaptive Nelder-Mead sub-search over one block (``_nelder_mead``, a port
    of scipy 1.17.1's ``minimize(method="Nelder-Mead")``), seeded with an
    axis-aligned simplex of the scheduled spread around the incumbent point;
    the spread shrinks geometrically sweep over sweep.  Two escape triggers
    share a small budget of random kicks: a fully stalled sweep, and two
    crawling sweeps (relative gain below SIMPLEX_CRAWL_FRACTION) since the
    last kick.  A kick re-widens the spread schedule and is kept only if it
    improves the incumbent.  Returns when the kicks are spent or
    SIMPLEX_MAX_SWEEPS is reached; the caller then starts the next restart.
    """
    dim = x0.size
    blocks = [list(range(lo, min(lo + SIMPLEX_BLOCK, dim))) for lo in range(0, dim, SIMPLEX_BLOCK)]

    incumbent = np.array(x0, dtype=float, copy=True)
    incumbent_energy = tracker.cost(incumbent)

    def visit(idx, spread):
        nonlocal incumbent, incumbent_energy
        center = incumbent.copy()

        def sub(x):
            nonlocal incumbent, incumbent_energy
            point = center.copy()
            point[idx] = x
            energy = tracker.cost(point)
            if energy < incumbent_energy:
                incumbent_energy = energy
                incumbent = point
            return energy

        start = center[idx]
        simplex = np.vstack([start, start + spread * np.eye(len(idx))])
        _nelder_mead(sub, simplex, SIMPLEX_VISIT_CAP)

    schedule = 0
    kick_index = 0
    crawl_count = 0
    previous_gain = None
    for sweep in range(SIMPLEX_MAX_SWEEPS):
        spread = max(SIMPLEX_SPREAD * SIMPLEX_SHRINK**schedule, _MIN_SPREAD)
        before = incumbent_energy
        for idx in blocks:
            visit(idx, spread)
        schedule += 1
        gain = before - incumbent_energy
        # a crawl shows steady but tiny gains; a fresh drop in gain is normal
        crawling = (
            sweep >= 3
            and gain < SIMPLEX_CRAWL_FRACTION * max(abs(incumbent_energy), 0.1)
            and previous_gain is not None
            and gain > 0.3 * previous_gain
        )
        previous_gain = gain
        if crawling:
            crawl_count += 1
        if gain < _SWEEP_STALL or crawl_count >= 2:
            if kick_index >= len(SIMPLEX_KICKS):
                return
            magnitude = SIMPLEX_KICKS[kick_index]
            kick_index += 1
            kicked = incumbent + rng.uniform(-magnitude, magnitude, size=dim)
            energy = tracker.cost(kicked)
            if energy < incumbent_energy:
                incumbent_energy = energy
                incumbent = kicked
            schedule = max(2, schedule - 3)
            crawl_count = 0


def _run_spsa(tracker: _Tracker, x0: np.ndarray, config: VqeConfig):
    iterations = max(1, (tracker.budget - tracker.evals) // 2)
    stability = max(1.0, 0.1 * iterations)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2, 0]))
    theta = np.array(x0, dtype=float, copy=True)
    for k in range(iterations):
        ak = SPSA_A / (k + 1 + stability) ** SPSA_ALPHA
        ck = SPSA_C / (k + 1) ** SPSA_GAMMA
        delta = rng.choice([-1.0, 1.0], size=theta.size)
        y_plus = tracker.cost(theta + ck * delta)
        y_minus = tracker.cost(theta - ck * delta)
        gradient = (y_plus - y_minus) / (2.0 * ck) * delta
        theta = theta - ak * gradient


def optimize(config: VqeConfig) -> VqeResult:
    """Minimize the configured cost; restarts until plateau or budget.

    Status is ``converged`` when the plateau rule fires and ``non_converged``
    when the evaluation budget runs out first.  Whatever stopped the run, it
    is ``non_physical`` when less than MIN_PHYSICAL_WEIGHT of the best state
    lies on the physical sites; ``diagnostics["warnings"]`` then holds
    ``"non-physical-state"``.
    """
    plan = prepare(config)
    tracker = _Tracker(plan, config.max_evaluations, PLATEAU_WINDOW_PER_DIM * plan.dim)
    start = time.perf_counter()
    status = "non_converged"
    restarts_started = 0
    try:
        while True:
            x0, rng = _initial_point(config, plan.dim, restarts_started)
            restarts_started += 1
            if config.optimizer == "spsa":
                # SPSA spends the budget in pairs, so it returns with at most
                # one evaluation left: too few for a step from a new start
                _run_spsa(tracker, x0, config)
                raise _BudgetExhausted
            _run_simplex(tracker, x0, rng)
            if tracker.evals >= tracker.budget:
                raise _BudgetExhausted
    except _Plateau:
        status = "converged"
    except _BudgetExhausted:
        status = "non_converged"
    wall = time.perf_counter() - start

    best_params = tracker.best_params
    if best_params is None:
        raise RuntimeError("optimizer made no evaluations")
    rel = abs(tracker.best - plan.exact_ground) / max(abs(plan.exact_ground), 1e-12)
    diagnostics = final_report(plan, best_params)
    diagnostics["plateau_window"] = tracker.window
    diagnostics["warnings"] = []
    if diagnostics.get("physical_weight", 1.0) < MIN_PHYSICAL_WEIGHT:
        status = "non_physical"
        diagnostics["warnings"].append("non-physical-state")
    return VqeResult(
        best_params=best_params,
        best_energy=tracker.best,
        exact_ground=plan.exact_ground,
        relative_error=rel,
        evaluations_used=tracker.evals,
        restarts_used=restarts_started,
        status=status,
        trace=tracker.trace,
        wall_time_s=wall,
        diagnostics=diagnostics,
    )


def final_report(plan: RunPlan, params) -> dict:
    """Exact-mode description of the state the optimizer settled on."""
    config = plan.config
    h = config.hamiltonian
    report = {"ansatz": config.ansatz, "protocol": config.protocol}
    alpha = site_vector(plan, params)
    if config.ansatz == "one_hot_ses":
        report["leak"] = 0.0
    elif config.ansatz == "binary_ses":
        state = circuits.simulate(plan.circuit, params)
        _, leak = circuits.binary_data_amplitudes(state, plan.emap)
        if not leak <= 1e-6:
            raise RuntimeError(f"packed ansatz leaked probability {leak:.3e} outside the data block")
        report["leak"] = leak
    else:
        physical = alpha[: h.n_sites]
        weight = float(np.sum(np.abs(physical) ** 2))
        report["physical_weight"] = weight
        if weight > 1e-12:
            report["physical_energy"] = h.energy(physical / math.sqrt(weight))
    profile = measurement.AmplitudeProfile.from_amplitudes(alpha)
    report["active_sites"] = int(np.count_nonzero(profile.active))
    report["site_magnitudes"] = [float(r) for r in profile.magnitudes]
    report["exact_energy_of_state"] = plan.target.energy(alpha)
    return report

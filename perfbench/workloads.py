"""The benchmark's workloads: inputs made from the workload seed, the
operations that drive sesvqe through its public entry points, and the checks
that judge each operation against oracles computed here, outside the package.

Every workload is a fixed round of operations that the runner repeats.  An
operation is one closed-loop call: it starts when the previous one returned.
Why each workload was chosen is recorded in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sesvqe import cli, encoding, hamiltonian, measurement, vqe

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"

# Evaluation budgets.  The package default (5000) makes one round of six
# one-hot solves take about 25 s on a 2-vCPU box; these keep a round near
# 1.5-2 s on a quiet host, so a run holds a dozen rounds or more and each
# operation's median is taken over as many samples.  They also make every
# solve budget-bound (each is below the solve's plateau window), so solve
# latency does not depend on where a seed's instance happens to plateau.
ONEHOT_BUDGET = 250
PACKED_BUDGET = 100
SHOT_BUDGET = 20
SHOTS = 1000

ESTIMATE_TOL = 1e-10  # exact-mode estimate vs the quadratic form, magnitudes vs |alpha|
SOLVE_TOL = 1e-9  # best energy vs the state's exact energy and the ground energy
LEAK_TOL = 1e-10
SOLVED_REL = 1e-3


@dataclass
class Outcome:
    """What the checks found for one operation."""

    evals: int = 0
    fingerprint: str = ""
    errors: list = field(default_factory=list)
    solved: bool | None = None
    physical_weight: float | None = None


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def read_matrix(path: Path) -> np.ndarray:
    """Hamiltonian matrix parsed from its file without the package's loader."""
    doc = json.loads(Path(path).read_text())
    n = int(doc["n_sites"])
    mat = np.zeros((n, n), dtype=complex)
    for row, col, re, im in doc["entries"]:
        mat[row, col] = complex(re, im)
        mat[col, row] = complex(re, -im)
    return mat


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _gen(work: Path, family: str, n: int, seed: int) -> Path:
    path = work / f"{family}-{n}-{seed}.json"
    argv = ["gen", "--family", family, "--n-sites", str(n), "--seed", str(seed), "--out", str(path)]
    if family == "chain":
        argv += ["--disorder", "1.0"]
    if _quiet_cli(argv) != 0:
        raise RuntimeError(f"sesvqe gen failed for {path.name}")
    return path


def _best_eval_index(trace: bytes, best: float) -> int:
    rows = csv.reader(io.StringIO(trace.decode()))
    next(rows)
    for idx, energy, _ in rows:
        if float(energy) == best:
            return int(idx)
    raise ValueError("best energy does not appear in the trace")


def solve_op(work: Path, name: str, h_path: Path, config: dict) -> Op:
    """``sesvqe solve`` on one config, checked against eigvalsh of the input."""
    cfg_path = work / f"{name}.config.json"
    cfg_path.write_text(json.dumps({"hamiltonian": h_path.name, **config}))
    report_path = work / f"{name}.report.json"
    trace_path = work / f"{name}.trace.csv"
    argv = ["solve", "--config", str(cfg_path), "--out", str(report_path), "--trace-csv", str(trace_path)]
    e0 = float(np.linalg.eigvalsh(read_matrix(h_path))[0])
    exact = config.get("shots") is None

    def check(code) -> Outcome:
        if code not in (0, 2):  # 2 is a finished, non-converged solve
            return Outcome(errors=[f"exit code {code}"])
        report = json.loads(report_path.read_text())
        trace = trace_path.read_bytes()
        best = report["best_energy"]
        diag = report["diagnostics"]
        out = Outcome(evals=report["evaluations_used"], fingerprint=hashlib.sha256(trace).hexdigest())
        if exact:
            if abs(best - diag["exact_energy_of_state"]) > SOLVE_TOL:
                out.errors.append(f"best {best!r} != exact energy of state {diag['exact_energy_of_state']!r}")
            if best < e0 - SOLVE_TOL:
                out.errors.append(f"best {best!r} below the ground energy {e0!r}")
            if diag.get("leak", 0.0) > LEAK_TOL:
                out.errors.append(f"packed leak {diag['leak']!r}")
            out.solved = abs(best - e0) <= SOLVED_REL * abs(e0)
            out.physical_weight = diag.get("physical_weight")
        else:
            # determinism contract: the best point re-evaluated at its own
            # eval_index draws the same shots and gives the same energy
            index = _best_eval_index(trace, best)
            plan = vqe.prepare(cli.load_solve_config(cfg_path, {}))
            again = vqe.evaluate_cost(plan, np.asarray(report["best_params"]), index)
            if again != best:
                out.errors.append(f"re-evaluation at eval {index} gave {again!r}, logged {best!r}")
        return out

    return Op(name, lambda: _quiet_cli(argv), check)


def estimate_op(name: str, h, alpha: np.ndarray, matrix: np.ndarray, protocol: str, emap) -> Op:
    """Exact-mode ``estimate_energy``, checked against alpha^H h alpha and |alpha|."""
    oracle = float((alpha.conj() @ matrix @ alpha).real)
    magnitudes = np.abs(alpha)

    def check(result) -> Outcome:
        energy, diag = result
        out = Outcome(evals=1, fingerprint=repr(energy))
        if not abs(energy - oracle) <= ESTIMATE_TOL:
            out.errors.append(f"energy {energy!r} != quadratic form {oracle!r}")
        mag_err = float(np.max(np.abs(np.asarray(diag["profile"]["magnitudes"]) - magnitudes)))
        if not mag_err <= ESTIMATE_TOL:
            out.errors.append(f"magnitudes differ from |alpha| by {mag_err:.3e}")
        return out

    return Op(name, lambda: measurement.estimate_energy(h, alpha, protocol, emap=emap), check)


def golden_ops(work: Path) -> list:
    """Replays of the committed goldens, read at run time."""
    trace_path = work / "golden-trace.csv"
    solve_argv = [
        "solve", "--config", str(EXAMPLES / "solve-config.json"),
        "--out", str(work / "golden-solve.json"), "--trace-csv", str(trace_path),
    ]

    def check_solve(code) -> Outcome:
        if code not in (0, 2):
            return Outcome(errors=[f"exit code {code}"])
        trace = trace_path.read_bytes()
        out = Outcome(fingerprint=hashlib.sha256(trace).hexdigest())
        if trace != (EXAMPLES / "trace.csv").read_bytes():
            out.errors.append("trace differs from docs/examples/trace.csv")
        return out

    golden = json.loads((EXAMPLES / "reconstruction-report.json").read_text())
    kind, _, _ = golden["source"].partition(":")
    source = ["--params", str(EXAMPLES / "params.json")] if kind == "params" else ["--amplitudes", str(EXAMPLES / "amplitudes.json")]
    report_path = work / "golden-reconstruction.json"
    rec_argv = [
        "reconstruct", "--hamiltonian", str(EXAMPLES / "hamiltonian.json"),
        "--protocol", golden["protocol"], *source, "--seed", str(golden["seed"]),
        "--out", str(report_path),
    ]
    if golden["shots"] is not None:
        rec_argv += ["--shots", str(golden["shots"])]

    def check_reconstruct(code) -> Outcome:
        if code != 0:
            return Outcome(errors=[f"exit code {code}"])
        energy = json.loads(report_path.read_text())["energy"]
        out = Outcome(fingerprint=repr(energy))
        if energy != golden["energy"]:
            out.errors.append(f"energy {energy!r} != golden {golden['energy']!r}")
        return out

    return [
        Op("golden:solve-trace", lambda: _quiet_cli(solve_argv), check_solve),
        Op("golden:reconstruct-energy", lambda: _quiet_cli(rec_argv), check_reconstruct),
    ]


def _seeds(rng: np.random.Generator) -> tuple:
    return tuple(int(s) for s in rng.integers(0, 2**31, size=2))


def _onehot_exact(work: Path, rng) -> list:
    ops = []
    for family in ("chain", "complex_ring"):
        for n in (8, 12, 16):
            inst, seed = _seeds(rng)
            config = {
                "ansatz": "one_hot_ses", "protocol": "original", "optimizer": "simplex",
                "max_evaluations": ONEHOT_BUDGET, "seed": seed,
            }
            ops.append(solve_op(work, f"onehot-{family}-{n}", _gen(work, family, n, inst), config))
    return ops


def _packed_exact(work: Path, rng) -> list:
    ops = []
    for n in (4, 8):
        inst, seed = _seeds(rng)
        h_path = _gen(work, "chain", n, inst)
        for protocol in ("exact_operator", "binary"):
            config = {
                "ansatz": "binary_ses", "protocol": protocol, "optimizer": "simplex",
                "max_evaluations": PACKED_BUDGET, "seed": seed,
            }
            ops.append(solve_op(work, f"binary_ses-{protocol}-{n}", h_path, config))
    # N=8 runs on the same 3-qubit register as N=5; with it a round holds an
    # odd number of solves and the median falls inside a size class
    for n in (5, 8, 12):
        inst, seed = _seeds(rng)
        config = {
            "ansatz": "hardware_efficient", "protocol": "exact_operator", "optimizer": "simplex",
            "penalty": "default", "max_evaluations": PACKED_BUDGET, "seed": seed,
        }
        ops.append(solve_op(work, f"hardware_efficient-{n}", _gen(work, "chain", n, inst), config))
    return ops


def _shots(work: Path, rng) -> list:
    # two one-hot solves to one packed solve: the one-hot register is the main share
    runs = (("one_hot_ses", "original", "chain", 12), ("one_hot_ses", "original", "complex_ring", 12),
            ("binary_ses", "binary", "chain", 16))
    ops = []
    for ansatz, protocol, family, n in runs:
        inst, seed = _seeds(rng)
        config = {
            "ansatz": ansatz, "protocol": protocol, "optimizer": {"name": "spsa"},
            "shots": SHOTS, "max_evaluations": SHOT_BUDGET, "seed": seed,
        }
        ops.append(solve_op(work, f"shots-{ansatz}-{family}-{n}", _gen(work, family, n, inst), config))
    return ops


def _reconstruct_sweep(work: Path, rng) -> list:
    # two states at N=64 for each at N=256, so the round's latency quantiles
    # (p50, p90) fall inside a size class rather than on a boundary
    ops = []
    for n, states in ((64, 2), (256, 1)):
        h_path = _gen(work, "random_hermitian", n, _seeds(rng)[0])
        h = hamiltonian.load_hamiltonian(h_path)
        matrix = read_matrix(h_path)
        emap = encoding.build_map(n, "shifted")
        for k in range(states):
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            alpha /= np.linalg.norm(alpha)
            for protocol in ("original", "binary"):
                ops.append(estimate_op(f"estimate-{protocol}-{n}-{k}", h, alpha, matrix, protocol,
                                       emap if protocol == "binary" else None))
    return ops


def build(workload: str, seed: int, work: Path) -> list:
    """Generate a workload's inputs under ``work`` and return one round of operations."""
    builders = {
        "onehot_exact": _onehot_exact,
        "packed_exact": _packed_exact,
        "shots": _shots,
        "reconstruct_sweep": _reconstruct_sweep,
    }
    return builders[workload](work, np.random.default_rng(seed))

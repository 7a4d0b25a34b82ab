"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402

MODULES = worker.load_package()
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
COUNTS = (
    "vqe.evals_per_solve",
    "circuits.gates_per_simulate",
    "statevector.amplitudes_per_sample",
    "measurement.settings_per_estimate",
    "encoding.hypercube_edges_calls_per_estimate",
)


def _declared(section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def _pick(workload, tmp_path, names):
    work = tmp_path / workload
    work.mkdir(parents=True)
    ops = workloads.build(workload, 3, work)
    return [op for op in ops if op.name in names]


def test_metric_names_are_well_formed_and_match_what_runs_emit(tmp_path):
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    for name in [*end_to_end, *per_layer]:
        assert NAME.match(name), name
    assert not end_to_end.keys() & per_layer.keys()

    emitted = {name: unit for name, (_, unit) in tracing.layer_metrics([]).items()}
    emitted.update({"trace.overhead_share": "ratio", "trace.uncovered_share": "ratio"})
    assert emitted == per_layer

    ops = _pick("reconstruct_sweep", tmp_path, {"estimate-original-64-0"})
    body = worker.timed_pass(ops, 0)
    emitted = {name: unit for name, (_, unit) in body["metrics"].items()}
    assert {**emitted, "setup_s": "s"} == end_to_end


def _traced_counts(tmp_path):
    ops = _pick("packed_exact", tmp_path, {"binary_ses-binary-4"})
    ops += _pick("shots", tmp_path, {"shots-binary_ses-chain-16"})
    body = worker.traced_pass(ops, 0, MODULES)
    assert body["failures"] == []
    return {name: body["metrics"][name][0] for name in COUNTS}


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    first = _traced_counts(tmp_path / "a")
    second = _traced_counts(tmp_path / "b")
    assert all(value > 0 for value in first.values()), first
    assert first == second


def test_corrupted_estimate_is_counted_as_failed(tmp_path, monkeypatch):
    real = workloads.measurement.estimate_energy

    def corrupted(*args, **kwargs):
        energy, diagnostics = real(*args, **kwargs)
        return energy + 1e-6, diagnostics

    monkeypatch.setattr(workloads.measurement, "estimate_energy", corrupted)
    ops = _pick("reconstruct_sweep", tmp_path, {"estimate-original-64-0", "estimate-binary-64-0"})
    body = worker.timed_pass(ops, 0)
    assert len(body["failures"]) == 2
    assert all("quadratic form" in failure for failure in body["failures"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_a_result_outside_a_checkout(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "shots", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

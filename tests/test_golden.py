"""Replays of the committed golden files in docs/examples, read at test time."""

import json
from pathlib import Path

from sesvqe import cli

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def test_solve_golden_reproduces_trace_byte_for_byte(tmp_path):
    trace = tmp_path / "trace.csv"
    rc = cli.main(
        [
            "solve",
            "--config",
            str(EXAMPLES / "solve-config.json"),
            "--out",
            str(tmp_path / "solve-report.json"),
            "--trace-csv",
            str(trace),
        ]
    )
    assert rc in (0, 2)
    assert trace.read_bytes() == (EXAMPLES / "trace.csv").read_bytes()


def test_reconstruct_golden_reproduces_energy_and_diagnostics(tmp_path):
    golden = json.loads((EXAMPLES / "reconstruction-report.json").read_text())
    kind = golden["source"].partition(":")[0]
    if kind == "params":
        source = ["--params", str(EXAMPLES / "params.json")]
    else:
        source = ["--amplitudes", str(EXAMPLES / "amplitudes.json")]
    out = tmp_path / "reconstruction-report.json"
    argv = [
        "reconstruct",
        "--hamiltonian",
        str(EXAMPLES / "hamiltonian.json"),
        "--protocol",
        golden["protocol"],
        *source,
        "--seed",
        str(golden["seed"]),
        "--out",
        str(out),
    ]
    if golden["shots"] is not None:
        argv += ["--shots", str(golden["shots"])]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["energy"] == golden["energy"]
    assert report["diagnostics"] == golden["diagnostics"]

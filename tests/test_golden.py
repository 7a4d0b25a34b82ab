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


def test_gen_golden_reproduces_the_hamiltonian_file(tmp_path):
    manifest = json.loads((EXAMPLES / "hamiltonian.json.manifest.json").read_text())
    argv = manifest["command"][1:]  # drop the program name
    out = tmp_path / "hamiltonian.json"
    argv[argv.index("--out") + 1] = str(out)
    assert cli.main(argv) == 0
    assert out.read_bytes() == (EXAMPLES / "hamiltonian.json").read_bytes()


def test_resources_golden_reproduces_the_table(tmp_path):
    out = tmp_path / "resources.json"
    assert cli.main(["resources", "--n-sites", "1024", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads((EXAMPLES / "resources.json").read_text())


def test_solve_golden_reproduces_the_report(tmp_path):
    out = tmp_path / "solve-report.json"
    assert cli.main(["solve", "--config", str(EXAMPLES / "solve-config.json"), "--out", str(out)]) == 0
    golden = json.loads((EXAMPLES / "solve-report.json").read_text())
    report = json.loads(out.read_text())
    # the wall time is measured and the config path is the one given on the command line
    for key in ("wall_time_s", "config_path"):
        del report[key], golden[key]
    assert report == golden

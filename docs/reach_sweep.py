"""Statement reach of the program: which statements of ``sesvqe`` no CLI run reaches.

Runs every CLI command in one process under a line tracer:
- ``gen`` for each of the three families;
- ``solve`` for nine configurations (each ansatz/protocol pair with the
  simplex in exact mode, and SPSA at 1000 shots on each measured pair; one
  sets a penalty, one names its optimizer as an object) on two generated
  instances, plus the golden ``docs/examples/solve-config.json`` written to
  ``SESVQE_OUTPUT_DIR``;
- ``reconstruct`` for both protocols, from the golden params and amplitudes,
  in exact mode and at 1000 shots with an explicit ``--epsilon``;
- ``resources``.

It then lists, per function, the statements inside function bodies that no
line event reached.  Refusals are counted but not listed: a ``raise``, or any
statement of a block that ends in a ``raise``, and every ``except`` body.
Names that ``tests/test_reach.py`` allowlists are marked as such.

Run from the repository root (under the tracer the solves run many times
slower; it takes about half a minute on a 2-vCPU host):

    PYTHONPATH=src python docs/reach_sweep.py

It is a measuring tool, not a test: nothing in the test suite runs it.
"""

import ast
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"

SOLVES = [
    {"ansatz": "one_hot_ses", "protocol": "original", "optimizer": "simplex"},
    {"ansatz": "one_hot_ses", "protocol": "exact_operator", "optimizer": "simplex"},
    {"ansatz": "binary_ses", "protocol": "binary", "optimizer": "simplex"},
    {"ansatz": "binary_ses", "protocol": "exact_operator", "optimizer": "simplex", "shots": "exact"},
    {"ansatz": "hardware_efficient", "protocol": "binary", "optimizer": "simplex"},
    {"ansatz": "hardware_efficient", "protocol": "exact_operator", "optimizer": "simplex", "penalty": {"c_p": 40.0}},
    {"ansatz": "one_hot_ses", "protocol": "original", "optimizer": {"name": "spsa"}, "shots": 1000},
    {"ansatz": "binary_ses", "protocol": "binary", "optimizer": "spsa", "shots": 1000},
    {"ansatz": "hardware_efficient", "protocol": "binary", "optimizer": "spsa", "shots": 1000},
]


def runs(work: Path):
    """The argv of every CLI run of the sweep, in order."""
    for family, n in (("chain", 5), ("random_hermitian", 4), ("complex_ring", 6)):
        yield ["gen", "--family", family, "--n-sites", str(n), "--disorder", "0.5", "--seed", "3",
               "--out", str(work / f"{family}.json")]
    for instance in ("chain", "complex_ring"):
        for idx, solve in enumerate(SOLVES):
            config = work / f"solve-{instance}-{idx}.json"
            doc = {"hamiltonian": f"{instance}.json", "max_evaluations": 2000, "seed": 1, **solve}
            config.write_text(json.dumps(doc))
            yield ["solve", "--config", str(config), "--out", str(work / f"report-{instance}-{idx}.json"),
                   "--trace-csv", str(work / f"trace-{instance}-{idx}.csv")]
    yield ["solve", "--config", str(work / "solve-config.json")]
    for protocol in ("original", "binary"):
        for source in ("params", "amplitudes"):
            for shots in ([], ["--shots", "1000", "--epsilon", "0.05"]):
                out = work / f"rec-{protocol}-{source}-{len(shots)}.json"
                yield ["reconstruct", "--hamiltonian", str(work / "hamiltonian.json"), "--protocol", protocol,
                       f"--{source}", str(work / f"{source}.json"), *shots, "--out", str(out)]
    yield ["resources", "--n-sites", "16", "--out", str(work / "resources.json")]


def statements(tree):
    """(function name, first line, last line, is refusal) of each statement in a function body.

    A compound statement spans its header only; its bodies are statements of
    their own.  ``try``, ``def``, ``class``, ``nonlocal`` and ``global``
    lines make no line event, so they are not counted.
    """

    def walk(body, owner, refusal):
        block_refuses = refusal or (bool(body) and isinstance(body[-1], ast.Raise))
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(node.body, node.name, False)
                continue
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, None, False)
                continue
            docstring = isinstance(node, ast.Expr) and isinstance(getattr(node, "value", None), ast.Constant)
            children = [getattr(node, name) for name in ("body", "orelse", "finalbody") if getattr(node, name, None)]
            if owner is not None and not docstring and not isinstance(node, (ast.Try, ast.Nonlocal, ast.Global)):
                last = children[0][0].lineno - 1 if children else node.end_lineno
                yield owner, node.lineno, max(node.lineno, last), block_refuses
            for child in children:
                yield from walk(child, owner, block_refuses)
            for handler in getattr(node, "handlers", []):
                yield from walk(handler.body, owner, True)

    yield from walk(tree.body, None, False)


def main() -> int:
    import sesvqe

    package = Path(sesvqe.__file__).resolve().parent
    hit = defaultdict(set)

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(str(package)):
            return None
        if event == "line":
            hit[path].add(frame.f_lineno)
        return tracer

    from sesvqe import cli

    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.environ["SESVQE_OUTPUT_DIR"] = tmp
        for name in ("hamiltonian.json", "params.json", "amplitudes.json", "solve-config.json"):
            shutil.copy(EXAMPLES / name, work / name)
        for argv in runs(work):
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    rc = cli.main(argv)
            finally:
                sys.settrace(None)
            if rc not in (0, 2):
                failed.append((argv[0], rc, err.getvalue().strip()))

    sys.path.insert(0, str(ROOT / "tests"))
    from test_reach import ALLOWED

    print(f"sesvqe from {package}")
    unrun, refusals = defaultdict(list), 0
    for path in sorted(package.glob("*.py")):
        lines = hit[str(path)]
        for owner, first, last, refusal in statements(ast.parse(path.read_text())):
            if lines.isdisjoint(range(first, last + 1)):
                if refusal:
                    refusals += 1
                else:
                    unrun[path.name, owner].append(first)
    for (name, owner), firsts in sorted(unrun.items(), key=lambda item: (item[0][0], item[1][0])):
        mark = "  (allowlisted)" if owner in ALLOWED else ""
        print(f"{name}:{owner}: {len(firsts)} statements, lines {', '.join(map(str, firsts))}{mark}")
    print(f"{sum(map(len, unrun.values()))} statements unrun outside refusals; {refusals} refusal statements unrun")
    for command, rc, err in failed:
        print(f"run failed: {command} exit {rc}: {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

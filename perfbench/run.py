"""sesvqe benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a sesvqe checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.  Each
metric is printed as ``<name> <value> <unit>``; the last line of standard
output is one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workload runs in a child process with BLAS threads pinned to
one; set-up time is the median over several fresh child processes, each timed
from its start to its first timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import worker

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(worker.__file__).resolve()
WORKLOADS = ("onehot_exact", "packed_exact", "shots", "reconstruct_sweep")
SETUP_SAMPLES = 3  # fresh processes timed for setup_s, the measured one included
DEADLINE_S = 170.0


def _spawn(args, workdir: Path, env: dict, setup_only: bool, deadline: float) -> tuple:
    """Start one worker; return (set-up seconds, parsed result or None)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException:  # the deadline, an interrupt or SIGTERM: end the worker first
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        tag, _, payload = line.partition(" ")
        if tag == "@ready":
            ready = float(payload) - start
        elif tag == "@result":
            result = json.loads(payload)
    if ready is None or (result is None and not setup_only):
        raise RuntimeError("worker ended without reporting")
    return ready, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sesvqe benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sesvqe" / "__init__.py").is_file() or not (ROOT / "docs" / "examples").is_dir():
        print(f"error: {ROOT} is not a sesvqe checkout (src/sesvqe and docs/examples are needed)",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{var: "1" for var in worker.THREAD_VARS})
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        # removed on every exit, also when a killed worker could not clean up
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as workdir:
            setups = []
            # the traced run reports per-layer metrics only, so it times no extra set-ups
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
                setups.append(_spawn(args, Path(workdir), env, True, deadline)[0])
            ready, result = _spawn(args, Path(workdir), env, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if not args.trace:
        print(f"setup_s.samples {' '.join(f'{s:.4f}' for s in setups)} s")
    for name, (value, unit) in sorted({**result["display"], **metrics}.items()):
        print(f"{name} {value:.6g} {unit}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

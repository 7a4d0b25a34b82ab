"""One workload process: set up, then run the timed pass or the traced pass.

Started by ``run.py``.  Prints ``@ready <monotonic time>`` when set-up is done
and, unless ``--setup-only``, ``@result <json>`` when the run is done.  The
run is one process with one thread: every operation starts when the previous
one returned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 7919  # later performance claims must also hold on this seed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The host reference kernel and its nominal time.  REF_MS is the quiet-host
# time of one block of the kernel on the 2-vCPU x86-64 VM the benchmark was
# written on; the bounded timings are rescaled to a host on which a block takes
# REF_MS.  After each operation the kernel runs for about REF_SHARE of the
# operation's time, and for at least one block.
REF_MS = 2.4
REF_SHARE = 0.1


@dataclass
class Record:
    name: str
    seconds: float
    outcome: object
    reference: float | None = None  # mean reference block time just before and after


def execute(op, tracer=None) -> Record:
    """Run one operation, timing only the call into the package."""
    from workloads import Outcome

    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        raw = op.call()
    except Exception as exc:  # a raising operation is a failed one
        return Record(op.name, time.perf_counter() - start, Outcome(errors=[f"raised {exc!r}"]))
    finally:
        if tracer is not None:
            tracer.active = False
    seconds = time.perf_counter() - start
    try:
        outcome = op.check(raw)
    except Exception as exc:
        outcome = Outcome(errors=[f"check raised {exc!r}"])
    return Record(op.name, seconds, outcome)


def _reference_block() -> None:
    """Interpreter work (dict updates) and small-array numpy calls, as in the package."""
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    v = np.arange(256.0)
    for i in range(400):
        v = v * 0.5 + np.sin(v[:: i % 3 + 1]).sum()


def reference_s(blocks: int = 1) -> float:
    """Seconds per block of a fixed kernel that does not use sesvqe."""
    start = time.perf_counter()
    for _ in range(blocks):
        _reference_block()
    return (time.perf_counter() - start) / blocks


def run_rounds(ops, seconds: float, tracer=None, rounds: int | None = None,
               reference: bool = False) -> list:
    """Repeat the round of operations; whole rounds only.

    With ``rounds`` unset, starts another round only while it is expected to
    end within ``seconds``; at least one round runs.  With ``reference``, the
    host reference kernel is timed between every two operations, and each
    record carries the mean of its block times just before and just after it.
    """
    records = []
    start = time.perf_counter()
    done = 0
    before = reference_s() if reference else None
    while True:
        round_start = time.perf_counter()
        for op in ops:
            rec = execute(op, tracer)
            if reference:
                after = reference_s(max(1, round(REF_SHARE * rec.seconds * 1e3 / REF_MS)))
                rec.reference = (before + after) / 2
                before = after
            records.append(rec)
        done += 1
        now = time.perf_counter()
        if rounds is not None:
            if done >= rounds:
                return records
        elif now - start + (now - round_start) > seconds:
            return records


def failures_of(records) -> list:
    """One line per failed operation; a result that changed between rounds fails too."""
    failures = []
    first = {}
    for rec in records:
        fp = rec.outcome.fingerprint
        if not rec.outcome.errors and first.setdefault(rec.name, fp) != fp:
            rec.outcome.errors.append("result differs from the first round")
        if rec.outcome.errors:
            failures.append(f"{rec.name}: {'; '.join(rec.outcome.errors)}")
    return failures


def _quantile_with_tail(values, q: int) -> tuple:
    """The q-th percentile and how many samples lie beyond it."""
    cut = statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]
    return cut, sum(v > cut for v in values)


def timed_pass(ops, seconds: float) -> dict:
    """End-to-end metrics; the bounded timings are rescaled by the host reference.

    Each operation's time is divided by the reference time around it; the
    median of that ratio over the rounds is taken per operation, and the
    round's sum of medians is scaled by ``REF_MS``.  A host that runs both the
    package and the kernel slower leaves the ratio unchanged.
    """
    records = run_rounds(ops, seconds, reference=True)
    by_name = {}
    for rec in records:
        by_name.setdefault(rec.name, []).append(rec)
    ratio = {name: statistics.median(r.seconds / r.reference for r in recs) for name, recs in by_name.items()}
    round_evals = sum(statistics.median(r.outcome.evals for r in recs) for recs in by_name.values())
    round_s = sum(ratio.values()) * REF_MS / 1e3
    times = [r.seconds for r in records]
    references = [r.reference for r in records]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_ms.norm": (round_s * 1e3 / len(by_name), "ms"),
        "evals_per_s.norm": (round_evals / round_s, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    p90, beyond = _quantile_with_tail(times, 90)
    display = {
        "ops": (len(records), "count"),
        "rounds": (len(records) // len(ops), "count"),
        "op_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms.p90": (p90 * 1e3, "ms"),
        "op_ms.p90.samples_beyond": (beyond, "count"),
        "evals_per_s": (sum(r.outcome.evals for r in records) / sum(times), "1/s"),
        "host.ref_ms.min": (min(references) * 1e3, "ms"),
        "host.ref_ms.p50": (statistics.median(references) * 1e3, "ms"),
        "host.ref_ms.max": (max(references) * 1e3, "ms"),
    }
    solved = [r.outcome.solved for r in records if r.outcome.solved is not None]
    if solved:
        display["solved_fraction"] = (sum(solved) / len(solved), "ratio")
    weights = [r.outcome.physical_weight for r in records if r.outcome.physical_weight is not None]
    if weights:
        display["hardware_efficient.physical_weight.min"] = (min(weights), "ratio")
    return {"records": records, "failures": failures_of(records), "metrics": metrics, "display": display}


def module_table(modules) -> dict:
    return {name: dict(vars(module)) for name, module in modules.items()}


def traced_pass(ops, seconds: float, modules: dict) -> dict:
    """Untraced rounds, then the same rounds traced; compares the two."""
    untraced = run_rounds(ops, seconds / 2)
    before = module_table(modules)
    with tracing.Tracer(modules) as tracer:
        traced = run_rounds(ops, 0, tracer, rounds=len(untraced) // len(ops))
    after = module_table(modules)
    records = untraced + traced
    failures = failures_of(records)  # a traced result must equal its untraced first round
    restored = before.keys() == after.keys() and all(
        before[m].keys() == after[m].keys() and all(after[m][k] is v for k, v in before[m].items())
        for m in before
    )
    if not restored:
        failures.append("trace: wrappers left a module attribute changed")

    traced_s = sum(r.seconds for r in traced)
    root_s = sum(s.duration for s in tracer.spans if s.parent is None)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_share"] = (traced_s / sum(r.seconds for r in untraced) - 1.0, "ratio")
    metrics["trace.uncovered_share"] = (1.0 - root_s / traced_s, "ratio")
    by_function = sorted(tracing.self_time_by_function(tracer.spans).items(), key=lambda kv: -kv[1])
    display = {f"self_s.{name}": (value, "s") for name, value in by_function}
    return {"records": records, "failures": failures, "metrics": metrics, "display": display,
            "checks": 1}


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "wait": "none: one thread, closed loop",
    }


def load_package() -> dict:
    """Import sesvqe from this checkout's ``src``; its modules by short name."""
    sys.path.insert(0, str(ROOT / "src"))
    import sesvqe
    from sesvqe import circuits, cli, encoding, hamiltonian, measurement, resources, statevector, vqe

    if Path(sesvqe.__file__).resolve().parent != ROOT / "src" / "sesvqe":
        raise ImportError(f"imported sesvqe from {sesvqe.__file__}, not from {ROOT / 'src'}")
    return {
        "sesvqe": sesvqe, "cli": cli, "vqe": vqe, "measurement": measurement, "circuits": circuits,
        "statevector": statevector, "hamiltonian": hamiltonian, "encoding": encoding,
        "resources": resources,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = load_package()
    import workloads

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        work = Path(tmp)
        ops = workloads.build(args.workload, args.seed, work)
        golden = [execute(op) for op in workloads.golden_ops(work)]  # also the warm-up
        print(f"@ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            body = traced_pass(ops, args.seconds, modules)
        else:
            body = timed_pass(ops, args.seconds)

    failures = failures_of(golden) + body["failures"]
    attempted = len(golden) + len(body["records"]) + body.get("checks", 0)
    display = dict(body["display"])
    display["failed_fraction"] = (len(failures) / attempted, "ratio")
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": body["metrics"],
        "display": display,
        "env": environment(args.seed),
    }
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: gen, solve, reconstruct, resources.

Exit codes: 0 success, 1 usage or input error, 2 solve finished without
convergence or on a non-physical best state.  Every command that writes a
primary output also writes a run manifest next to it
(``<output>.manifest.json``) recording the argv, the package version and the
produced files, so a run can be re-issued verbatim.

Default output locations honor the SESVQE_OUTPUT_DIR environment variable;
explicit ``--out`` paths are used as given.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, circuits, measurement, resources, vqe
from .encoding import build_map
from .hamiltonian import (
    chain_instance,
    check_site_count,
    complex_ring_instance,
    ground_energy,
    is_real,
    load_hamiltonian,
    random_hermitian_instance,
    save_hamiltonian,
)

MANIFEST_TAG = "sesvqe-manifest/1"
SOLVE_REPORT_TAG = "sesvqe-solve-report/1"
RECONSTRUCTION_TAG = "sesvqe-reconstruction/3"
RESOURCES_TAG = "sesvqe-resources/1"


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _output_dir() -> Path:
    return Path(os.environ.get("SESVQE_OUTPUT_DIR", "."))


def _resolve_out(arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    return _output_dir() / default_name


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write_manifest(primary: Path, argv, outputs) -> Path:
    manifest_path = Path(str(primary) + ".manifest.json")
    doc = {
        "format": MANIFEST_TAG,
        "command": ["sesvqe", *argv],
        "created_utc": _utc_now(),
        "package_version": __version__,
        "outputs": [str(p) for p in outputs],
    }
    _write_json(manifest_path, doc)
    return manifest_path


def cmd_gen(args, argv) -> int:
    check_site_count(args.n_sites)
    vqe.check_count("seed", args.seed, 0)
    meta = {"family": args.family, "seed": args.seed}
    if args.family == "chain":
        h = chain_instance(args.n_sites, args.hopping, args.disorder, args.seed)
        meta.update(hopping=args.hopping, disorder=args.disorder)
    elif args.family == "random_hermitian":
        h = random_hermitian_instance(args.n_sites, args.scale, args.seed)
        meta.update(scale=args.scale)
    elif args.family == "complex_ring":
        h = complex_ring_instance(args.n_sites, args.hopping, args.seed)
        meta.update(hopping=args.hopping)
    else:
        raise UsageError(f"unknown family {args.family!r}")
    out = _resolve_out(args.out, "hamiltonian.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_hamiltonian(h, out, meta)
    manifest = _write_manifest(out, argv, [out])
    print(f"wrote {out} ({args.family}, {args.n_sites} sites)")
    print(f"ground energy {ground_energy(h):.12g}")
    print(f"manifest {manifest}")
    return 0


def _config_get(doc: dict, key: str, default=None, required: bool = False):
    if key in doc:
        return doc[key]
    if required:
        raise ConfigError(f"config key {key!r} is missing")
    return default


def _parse_optimizer(value) -> str:
    """A name, or an object holding only ``name``."""
    if isinstance(value, dict):
        if set(value) != {"name"}:
            raise ConfigError(f"config key 'optimizer': an object holds only 'name', got keys {sorted(value)}")
        value = value["name"]
    if not isinstance(value, str):
        raise ConfigError(f"config key 'optimizer': expected a name or {{\"name\": ...}}, got {value!r}")
    return value


def _parse_penalty(value) -> float | None:
    """The c_p energy of ``{"c_p": x}``; ``"default"`` and null give None, the default."""
    if value in (None, "default"):
        return None
    if isinstance(value, dict) and "c_p" in value:
        c_p = value["c_p"]
        if not is_real(c_p):
            raise ConfigError(f"config key 'penalty': c_p must be a real number, got {c_p!r}")
        return float(c_p)
    raise ConfigError(f"config key 'penalty': expected \"default\" or {{\"c_p\": value}}, got {value!r}")


# every key a solve configuration may hold: the VqeConfig fields, in order
SOLVE_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(vqe.VqeConfig))


def load_solve_config(path: Path, overrides) -> vqe.VqeConfig:
    """Read a solve configuration file; an override that is not None replaces its key.

    VqeConfig gets only the keys the file holds, so its field defaults fill the rest.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(doc) - set(SOLVE_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}; known: {', '.join(SOLVE_CONFIG_KEYS)}")
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    ham_value = _config_get(doc, "hamiltonian", required=True)
    if not isinstance(ham_value, str):
        raise ConfigError(f"config key 'hamiltonian': expected a file path string, got {ham_value!r}")
    ham_path = Path(ham_value)
    if not ham_path.is_absolute():
        ham_path = path.parent / ham_path
    doc["hamiltonian"] = load_hamiltonian(ham_path)
    if doc.get("shots") == "exact":
        doc["shots"] = None
    if doc.get("optimizer") is not None:
        doc["optimizer"] = _parse_optimizer(doc["optimizer"])
    else:  # null, like no key, keeps the default
        doc.pop("optimizer", None)
    if "penalty" in doc:
        doc["penalty"] = _parse_penalty(doc["penalty"])
    try:
        return vqe.VqeConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _write_trace_csv(path: Path, trace) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["evaluation", "energy", "best_so_far"])
        for idx, energy, best in trace:
            writer.writerow([idx, repr(float(energy)), repr(float(best))])


def cmd_solve(args, argv) -> int:
    overrides = {
        "seed": args.seed,
        "shots": args.shots,
        "max_evaluations": args.max_evaluations,
    }
    config = load_solve_config(Path(args.config), overrides)
    result = vqe.optimize(config)
    out = _resolve_out(args.out, "solve_report.json")
    report = {
        "format": SOLVE_REPORT_TAG,
        "config_path": str(args.config),
        "ansatz": config.ansatz,
        "protocol": config.protocol,
        "shots": config.shots,
        "optimizer": config.optimizer,
        "max_evaluations": config.max_evaluations,
        "seed": config.seed,
        "n_sites": config.hamiltonian.n_sites,
        "status": result.status,
        "best_energy": result.best_energy,
        "exact_ground": result.exact_ground,
        "relative_error": result.relative_error,
        "evaluations_used": result.evaluations_used,
        "restarts_used": result.restarts_used,
        "wall_time_s": result.wall_time_s,
        "best_params": [float(p) for p in result.best_params],
        "diagnostics": result.diagnostics,
    }
    _write_json(out, report)
    outputs = [out]
    if args.trace_csv:
        trace_path = Path(args.trace_csv)
        _write_trace_csv(trace_path, result.trace)
        outputs.append(trace_path)
    manifest = _write_manifest(out, argv, outputs)
    for warning in result.diagnostics["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"{result.status}: best {result.best_energy:.12g}"
        f" exact {result.exact_ground:.12g}"
        f" rel_err {result.relative_error:.3e}"
        f" evals {result.evaluations_used}"
    )
    print(f"report {out}")
    print(f"manifest {manifest}")
    return 0 if result.status == "converged" else 2


def _load_site_vector(args) -> tuple:
    """Site amplitudes plus a label describing where they came from."""
    if args.params:
        with open(args.params) as fh:
            doc = json.load(fh)
        ansatz = _config_get(doc, "ansatz", "one_hot_ses")
        pairs = np.asarray(_config_get(doc, "pairs", required=True), dtype=object)
        if not all(is_real(x) for x in pairs.flat):
            raise ConfigError("params key 'pairs': expected real numbers")
        n_sites = _config_get(doc, "n_sites", required=True)
        if isinstance(n_sites, bool) or not isinstance(n_sites, int) or n_sites < 1:
            raise ConfigError(f"params key 'n_sites': expected a positive integer, got {n_sites!r}")
        if pairs.shape != (2 * (n_sites - 1),):
            raise ConfigError(f"params key 'pairs': expected {2 * (n_sites - 1)} parameters"
                              f" (beta,gamma pairs), got shape {pairs.shape}")
        if ansatz not in ("one_hot_ses", "binary_ses"):
            raise ConfigError(f"params key 'ansatz': unknown value {ansatz!r}")
        # both registers hold the same site amplitudes (criterion 3)
        return circuits.ses_site_amplitudes(n_sites, pairs.astype(float)), f"params:{ansatz}"
    with open(args.amplitudes) as fh:
        doc = json.load(fh)
    raw = _config_get(doc, "amplitudes", required=True)
    if not isinstance(raw, list) or not all(
        isinstance(entry, list) and len(entry) == 2 and all(is_real(x) for x in entry)
        for entry in raw
    ):
        raise ConfigError("amplitudes must be a list of [re, im] pairs of real numbers")
    alpha = np.array([complex(re, im) for re, im in raw])
    if not np.all(np.isfinite(alpha)):
        raise ConfigError("amplitudes must be finite")
    norm = float(np.linalg.norm(alpha))
    if not abs(norm - 1.0) <= 1e-6:
        raise ConfigError(f"amplitudes are not normalized (norm {norm!r})")
    # within the file's tolerance, scaled to the unit norm that shot sampling checks to 1e-10
    return alpha / norm, "amplitudes"


def cmd_reconstruct(args, argv) -> int:
    vqe.check_count("seed", args.seed, 0)
    h = load_hamiltonian(args.hamiltonian)
    alpha, source_label = _load_site_vector(args)
    if alpha.size != h.n_sites:
        raise ConfigError(f"state covers {alpha.size} sites, Hamiltonian has {h.n_sites}")
    emap = build_map(h.n_sites, "shifted") if args.protocol == "binary" else None
    energy, diagnostics = measurement.estimate_energy(
        h,
        alpha,
        args.protocol,
        shots=args.shots,
        seed=args.seed,
        emap=emap,
        epsilon=args.epsilon,
    )
    exact_energy = h.energy(alpha)
    report = {
        "format": RECONSTRUCTION_TAG,
        "protocol": args.protocol,
        "source": source_label,
        "shots": args.shots,
        "seed": args.seed,
        "energy": energy,
        "exact_energy_of_input": exact_energy,
        "energy_error": energy - exact_energy,
        "diagnostics": diagnostics,
    }
    out = _resolve_out(args.out, "reconstruction.json")
    _write_json(out, report)
    manifest = _write_manifest(out, argv, [out])
    for warning in diagnostics["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"energy {energy:.12g} exact {exact_energy:.12g} delta {energy - exact_energy:+.3e}"
    )
    print(f"report {out}")
    print(f"manifest {manifest}")
    return 0


def cmd_resources(args, argv) -> int:
    table = resources.report_table(args.n_sites)
    header = f"{'strategy':<28}{'width':>8}{'depth':>10}{'settings':>10}{'volume':>14}"
    print(header)
    for row in table["rows"]:
        print(
            f"{row['strategy']:<28}{row['width']:>8}{row['depth']:>10}"
            f"{row['settings']:>10}{row['volume']:>14}"
        )
    print()
    for name, ratio in table["volume_ratios_vs_original"].items():
        print(f"volume ratio vs original ({name}): {ratio:.6g}")
    for name, ratio in table["constants_free_ratios"].items():
        bucket = resources.order_of_magnitude(ratio)
        print(f"constants-free ratio ({name}): {ratio:.5g} (10^{bucket} bucket)")
    if args.out:
        out = Path(args.out)
        _write_json(out, {"format": RESOURCES_TAG, **table})
        manifest = _write_manifest(out, argv, [out])
        print(f"report {out}")
        print(f"manifest {manifest}")
    return 0


def _shots_option(text: str):
    """``--shots``: an integer or "exact", as the config's ``shots`` key takes them."""
    if text == "exact":
        return text
    if text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"expects an integer or 'exact', got {text!r}")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = _Parser(prog="sesvqe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a Hamiltonian instance file")
    gen.add_argument("--family", required=True, choices=sorted(("chain", "random_hermitian", "complex_ring")))
    gen.add_argument("--n-sites", type=int, required=True)
    gen.add_argument("--hopping", type=float, default=1.0)
    gen.add_argument("--disorder", type=float, default=0.0)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run the variational solver from a config file")
    solve.add_argument("--config", required=True)
    solve.add_argument("--out", default=None)
    solve.add_argument("--trace-csv", default=None)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--shots", type=_shots_option, default=None)
    solve.add_argument("--max-evaluations", type=int, default=None)
    solve.set_defaults(func=cmd_solve)

    rec = sub.add_parser("reconstruct", help="estimate a state profile and its energy")
    rec.add_argument("--hamiltonian", required=True)
    rec.add_argument("--protocol", required=True, choices=("original", "binary"))
    source = rec.add_mutually_exclusive_group(required=True)
    source.add_argument("--params", default=None)
    source.add_argument("--amplitudes", default=None)
    rec.add_argument("--shots", type=int, default=None)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--epsilon", type=float, default=None)
    rec.add_argument("--out", default=None)
    rec.set_defaults(func=cmd_reconstruct)

    res = sub.add_parser("resources", help="print the volumetric comparison table")
    res.add_argument("--n-sites", type=int, required=True)
    res.add_argument("--out", default=None)
    res.set_defaults(func=cmd_resources)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

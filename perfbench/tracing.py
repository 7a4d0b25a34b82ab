"""Span-recording wrappers installed on sesvqe module attributes.

A span is recorded at each wrapped call: its name, layer, start, end, the span
that caused it, and a few counts read from its arguments.  Wrappers replace
the attribute on the module object, so calls that look the name up at call
time (``circuits.simulate(...)`` from another module, or a module-global name
inside the defining module) are seen.  ``measurement`` imports
``energy_from_profile`` and ``hypercube_edges`` by name and ``vqe`` imports
``ground_energy`` by name, so those are wrapped where they are looked up and
attributed to the layer that defines them.

Spans are kept in memory; ``layer_metrics`` reduces them when the run ends.
The run is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import statistics
import time

LAYERS = ("vqe", "measurement", "circuits", "statevector", "hamiltonian", "encoding", "cli")

# (module attribute holder, attribute, layer that defines it)
WRAPPED = (
    ("vqe", "optimize", "vqe"),
    ("vqe", "prepare", "vqe"),
    ("vqe", "evaluate_cost", "vqe"),
    ("vqe", "final_report", "vqe"),
    ("vqe", "ground_energy", "hamiltonian"),
    ("measurement", "estimate_energy", "measurement"),
    ("measurement", "estimate_setting", "measurement"),
    ("measurement", "reconstruct_profile", "measurement"),
    ("measurement", "energy_from_profile", "hamiltonian"),
    ("measurement", "hypercube_edges", "encoding"),
    ("statevector", "sample_bitstrings", "statevector"),
    ("circuits", "simulate", "circuits"),
    ("circuits", "build_ses_circuit", "circuits"),
    ("circuits", "build_binary_ses_circuit", "circuits"),
    ("circuits", "build_hardware_efficient_circuit", "circuits"),
    ("cli", "main", "cli"),
)

BUILDERS = (
    "circuits.build_ses_circuit",
    "circuits.build_binary_ses_circuit",
    "circuits.build_hardware_efficient_circuit",
)


def _count(name, args):
    """Work count a span carries, read from the wrapped call's arguments."""
    if name == "circuits.simulate":
        return len(args[0].gates)
    if name == "statevector.sample_bitstrings":
        return args[0].num_qubits
    if name == "measurement.estimate_energy":
        return args[0].n_sites
    return None


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "children_s", "outermost", "error", "count")

    def __init__(self, name, layer, parent, outermost, count):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.outermost = outermost
        self.count = count
        self.children_s = 0.0
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Installs wrappers on the given modules; records spans while ``active``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.active = False
        self._stack = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._originals = []

    def _wrap(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, parent, self._depth[layer] == 0, _count(name, args))
            self.spans.append(span)
            self._stack.append(span)
            self._depth[layer] += 1
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._depth[layer] -= 1
                self._stack.pop()
                if parent is not None:
                    parent.children_s += span.duration

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for module_name, attr, layer in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}", layer))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        return False


def _p50_us(spans) -> float:
    return statistics.median(s.duration for s in spans) * 1e6 if spans else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, attr="duration"):
        return sum(getattr(s, attr) for s in named(name))

    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.busy_s"] = (sum(s.duration for s in mine if s.outermost), "s")
        out[f"{layer}.self_s"] = (sum(s.self_s for s in mine), "s")
        out[f"{layer}.errors"] = (sum(s.error for s in mine), "count")

    evals = len(named("vqe.evaluate_cost"))
    solves = len(named("vqe.optimize"))
    estimates = len(named("measurement.estimate_energy"))
    simulates = named("circuits.simulate")
    samples = named("statevector.sample_bitstrings")
    gates = sum(s.count for s in simulates)
    # a sample's useful amplitudes are the sites of the estimate that drew it
    sites = 0
    for s in samples:
        owner = s.parent
        while owner is not None and owner.name != "measurement.estimate_energy":
            owner = owner.parent
        sites += owner.count if owner is not None else 0
    amplitudes = sum(2**s.count for s in samples)

    out["vqe.overhead_us_per_eval"] = (_ratio(total("vqe.optimize", "self_s") * 1e6, evals), "us")
    out["vqe.evals_per_solve"] = (_ratio(evals, solves), "count")
    out["vqe.prepare_ms"] = (_ratio(total("vqe.prepare") * 1e3, len(named("vqe.prepare"))), "ms")
    out["vqe.final_report_ms"] = (
        _ratio(total("vqe.final_report") * 1e3, len(named("vqe.final_report"))),
        "ms",
    )
    out["measurement.estimate_energy_us.p50"] = (_p50_us(named("measurement.estimate_energy")), "us")
    out["measurement.estimate_energy.self_share"] = (
        _ratio(total("measurement.estimate_energy", "self_s"), total("measurement.estimate_energy")),
        "ratio",
    )
    out["measurement.reconstruct_profile_us.p50"] = (_p50_us(named("measurement.reconstruct_profile")), "us")
    out["measurement.estimate_setting_us.p50"] = (_p50_us(named("measurement.estimate_setting")), "us")
    out["measurement.settings_per_estimate"] = (
        _ratio(len(named("measurement.estimate_setting")), estimates),
        "count",
    )
    out["circuits.simulate_us.p50"] = (_p50_us(simulates), "us")
    out["circuits.gates_per_simulate"] = (_ratio(gates, len(simulates)), "count")
    out["circuits.us_per_gate"] = (_ratio(total("circuits.simulate") * 1e6, gates), "us")
    out["circuits.build_us.p50"] = (_p50_us([s for b in BUILDERS for s in named(b)]), "us")
    out["statevector.sample_us.p50"] = (_p50_us(samples), "us")
    out["statevector.amplitudes_per_sample"] = (_ratio(amplitudes, len(samples)), "count")
    out["statevector.useful_amplitude_fraction"] = (_ratio(sites, amplitudes), "ratio")
    out["hamiltonian.energy_from_profile_us.p50"] = (_p50_us(named("hamiltonian.energy_from_profile")), "us")
    out["hamiltonian.ground_energy_ms"] = (
        _ratio(total("hamiltonian.ground_energy") * 1e3, len(named("hamiltonian.ground_energy"))),
        "ms",
    )
    out["encoding.hypercube_edges_calls_per_estimate"] = (
        _ratio(len(named("encoding.hypercube_edges")), estimates),
        "count",
    )
    out["cli.overhead_ms"] = (_ratio(total("cli.main", "self_s") * 1e3, len(named("cli.main"))), "ms")
    return out


def self_time_by_function(spans) -> dict:
    """Self seconds per wrapped function, for the traced run's summary."""
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.self_s
    return out

"""Circuit representation, the three ansatz families and their simulation.

Registers are little-endian: basis state ``|i>`` gives qubit ``k`` the bit
``(i >> k) & 1``, so qubit 0 is the least significant bit of an amplitude
index.  Gate vocabulary: X, RY, RZ, CNOT, MCX and A, the kinds the three
builders and ``decompose`` emit.  The A gate is the excitation-preserving
two-qubit rotation A(beta, gamma) built from three CNOTs and four single-qubit
rotations.  The packed builder's flag swap is three CNOTs and its codeword
write one CNOT from the flag per set bit, so a circuit holds only gates that
are both priced and simulated.  The dense gates act on one ascending run of
adjacent qubits: RY and RZ on one qubit, A on a pair ``(q, q + 1)``, the only
placement the builders use, so ``GateOp`` refuses an A gate anywhere else.

CNOT accounting treats MCX as a costed unit: one control = 1 CNOT, two
controls = 6 CNOTs, k >= 3 controls = (2k - 3) * 6 CNOTs using one clean
helper ancilla.  Its primitive realizations are standard library
constructions; simulation applies it as an exact permutation.

A circuit is a template: its width and its gates, with no angles in it.  The
parametric gates (RY and RZ one angle each, A two) take theirs from the flat
vector that ``simulate`` binds, in gate order, so one circuit serves every
parameter binding.  Simulation runs a circuit's compiled program
(``Circuit.program``), built once per circuit: each run of consecutive
permutation gates is fused into one gather index, and each run of RY/RZ gates
(a hardware-efficient layer's 2n rotations) into rotation-layer steps: per
qubit, its 2x2 matrices multiplied in gate order (``Program.factors``), and
the qubits joined by kron into one matrix per ``LAYER_WIDTH`` adjacent qubits.
Every A gate stays a step of its own.  A program's arrays are read-only, as
one template serves every solve of its register shape.  Every dense step,
fused or not, is one matrix product with the register viewed as
``(high, 2^m, 2^low)`` for its run of m qubits from ``low``, but for a step
over the whole register that acts on the untouched |0...0>: it takes its
matrix's first column.

Each run checks what it applies: every A matrix unitary to 1e-10, every
per-qubit layer factor unitary to 1e-11 (a kron of LAYER_WIDTH such factors
is then unitary to 8e-11), and the register's norm after every dense step to
1e-10.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import statevector as sv
from .encoding import EncodingMap, build_map

_PARAM_COUNTS = {"RY": 1, "RZ": 1, "A": 2}
_FIXED_ARITY = {"X": 1, "RY": 1, "RZ": 1, "CNOT": 2, "A": 2}
_PERMUTATIONS = frozenset(("X", "CNOT", "MCX"))
_ROTATIONS = frozenset(("RY", "RZ"))
_UNITARY_TOL = 1e-10
# a kron of w factors each within delta of unitary is within
# (1 + delta)^(2w) - 1 ~ 2 w delta; at w = LAYER_WIDTH = 4 this delta keeps a
# layer step's matrix within 8e-11, inside _UNITARY_TOL
_FACTOR_TOL = 1e-11
_NO_SLOTS = np.zeros(0, dtype=np.intp)
# the identities M^H M is held to: 2x2 layer factors and 4x4 A matrices
_IDENTITIES = {d: np.eye(d) for d in (2, 4)}
# widest kron-built step of a rotation layer: widths 2-4 time alike, 5 is
# slower from n = 6 on and 6 slower than the per-gate steps from n = 7 on
# (timeit sweep in BENCH_packed.json); 4 keeps registers up to 4 qubits at
# one step per layer
LAYER_WIDTH = 4


def _check_finite(values, what: str) -> None:
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:  # a third of np.all's time at 22 values
        raise ValueError(f"{what} must be finite, got {values!r}")


def _real_angles(params) -> np.ndarray:
    """``params`` as float angles; refused if complex, where a float cast would drop the imaginary part."""
    values = np.asarray(params)
    if values.dtype.kind == "c":
        raise ValueError(f"angles must be real, got dtype {values.dtype}")
    return values.astype(float, copy=False)


def _check_unitary(mats: np.ndarray, what: str, tol: float) -> None:
    """Refuse any matrix of a stack (..., d, d) whose M^H M is not the identity to ``tol``."""
    dev = np.max(np.abs(mats.conj().swapaxes(-1, -2) @ mats - _IDENTITIES[mats.shape[-1]]))
    if not dev <= tol:
        raise ValueError(f"{what} is not unitary (deviation {dev:.3e})")


@dataclass(frozen=True)
class GateOp:
    """One gate: kind and qubit tuple.

    A parametric gate holds no angles: RY and RZ take one from the vector
    ``simulate`` binds, A two (beta, gamma), at the slot its place in the gate
    order gives it.  Qubit order is semantic: CNOT/MCX list controls first and
    the target last; the A gate lists its adjacent pair ``(q, q + 1)``, the
    first qubit being the low bit of its matrix.
    """

    kind: str
    qubits: tuple

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        kind = self.kind
        if kind in _FIXED_ARITY:
            if len(self.qubits) != _FIXED_ARITY[kind]:
                raise ValueError(
                    f"{kind} expects {_FIXED_ARITY[kind]} qubit(s), got {self.qubits}"
                )
        elif kind == "MCX":
            if len(self.qubits) < 2:
                raise ValueError("MCX needs at least one control and a target")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {kind} gate: {self.qubits}")
        if kind == "A" and self.qubits[1] != self.qubits[0] + 1:
            raise ValueError(f"A acts on adjacent qubits (q, q + 1), got {self.qubits}")

    def cnot_cost(self) -> int:
        kind = self.kind
        if kind in ("X", "RY", "RZ"):
            return 0
        if kind == "A":
            return 3
        k = len(self.qubits) - 1  # CNOT and MCX controls
        if k == 1:
            return 1
        if k == 2:
            return 6
        return (2 * k - 3) * 6


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register width: a template, with no angles."""

    num_qubits: int
    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(
                        f"gate {g.kind} on qubit {q} exceeds width {self.num_qubits}"
                    )

    @cached_property
    def program(self) -> "Program":
        """The compiled form that ``simulate`` runs, built on first use."""
        return _compile(self)

    @property
    def cnot_count(self) -> int:
        return sum(g.cnot_cost() for g in self.gates)

    @property
    def depth(self) -> int:
        frontier = [0] * self.num_qubits
        depth = 0
        for g in self.gates:
            layer = 1 + max((frontier[q] for q in g.qubits), default=0)
            for q in g.qubits:
                frontier[q] = layer
            depth = max(depth, layer)
        return depth


@dataclass(frozen=True)
class Program:
    """A circuit compiled for repeated simulation.

    Each step is either a gather index ``g`` (the new amplitude ``i`` is the
    old amplitude ``g[i]``: one fused run of permutation gates) or a dense
    step ``(low, width, kind, index)`` on the qubits ``low .. low + width - 1``
    (``low`` is the least significant bit of its matrix), whose matrix is
    entry ``index`` of ``matrices(values)[kind]``.  Kind ``"layer"`` is one
    kron-built step of a rotation layer, all of width
    ``min(LAYER_WIDTH, num_qubits)``: ``layers[d, index, j]`` picks the d-th
    gate on its qubit ``low + j`` from the stack (identity, RY..., RZ...),
    identity padding a qubit with fewer gates; the step's matrix is the kron
    of its ``factors``.  ``matrices`` checks the A stack unitary to 1e-10 and
    the layer factors to 1e-11.  ``slots[kind]`` holds the offset of each
    parametric gate's first angle in the flat parameter vector, in gate
    order, for the kinds the circuit holds; the vector has ``n_params``
    entries.
    """

    num_qubits: int
    steps: tuple
    slots: dict
    n_params: int
    layers: np.ndarray

    def __post_init__(self):
        # a template's program serves every solve of its register shape
        for a in (*self.steps, *self.slots.values(), self.layers):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    def bind(self, params) -> np.ndarray:
        """The angles of one run: refused unless a real, finite 1-D vector of ``n_params``."""
        values = _real_angles(params)
        if values.shape != (self.n_params,):
            raise ValueError(
                f"circuit takes a flat vector of {self.n_params} parameters, got shape {values.shape}"
            )
        _check_finite(values, "circuit parameters")
        return values

    def factors(self, values: np.ndarray) -> np.ndarray:
        """Each layer step's per-qubit 2x2 products, a stack (steps, width, 2, 2),
        for a program with layer steps.

        Entry ``[index, j]`` is the product, in gate order, of the RY/RZ
        matrices on qubit ``low + j`` of layer step ``index`` (the identity
        for a qubit without one); the step's matrix is their kron.
        """
        gates = _rotation_gates(values, self.slots)
        prods = gates[self.layers[0]]
        for seq in self.layers[1:]:
            prods = gates[seq] @ prods
        return prods

    def matrices(self, values: np.ndarray) -> dict:
        """The stacks the steps apply, each checked unitary once.

        ``"A"`` holds one matrix per A gate, checked to 1e-10, and ``"layer"``
        one per rotation-layer step, the kron of its ``factors``, which are
        checked instead, to 1e-11.  A circuit without such steps has no entry
        for them.
        """
        slots = self.slots
        mats = {}
        if "A" in slots:
            mats["A"] = a_gate_matrix(values[slots["A"]], values[slots["A"] + 1])
            _check_unitary(mats["A"], "A gate matrix", _UNITARY_TOL)
        if self.layers.size:
            factors = self.factors(values)
            _check_unitary(factors, "rotation layer factor", _FACTOR_TOL)
            mats["layer"] = _kron(factors)
        return mats


def _step_name(kind: str) -> str:
    return "rotation layer" if kind == "layer" else f"{kind} gate"


def _rotation_gates(values: np.ndarray, slots: dict) -> np.ndarray:
    """The stack (identity, RY..., RZ...) of 2x2 gate matrices that
    ``Program.layers`` indexes, filled in place: RY(t) = [[c, -s], [s, c]]
    with c, s = cos(t / 2), sin(t / 2), and RZ(t) = diag(exp(-i t / 2),
    exp(i t / 2))."""
    ry = values[slots.get("RY", _NO_SLOTS)]
    rz = values[slots.get("RZ", _NO_SLOTS)]
    gates = np.zeros((1 + ry.size + rz.size, 2, 2), dtype=complex)
    gates[0, 0, 0] = gates[0, 1, 1] = 1.0
    y, z = gates[1 : 1 + ry.size], gates[1 + ry.size :]
    half = ry / 2.0
    c, s = np.cos(half), np.sin(half)
    y[:, 0, 0] = y[:, 1, 1] = c
    y[:, 0, 1] = -s
    y[:, 1, 0] = s
    phase = np.exp(-1j * rz / 2.0)
    z[:, 0, 0] = phase
    # exp(i t / 2) bit for bit (sine is odd), but for the sign of a zero
    # imaginary part at t = -0.0
    z[:, 1, 1] = phase.conj()
    return gates


def _kron(factors: np.ndarray) -> np.ndarray:
    """Layer-step matrices from their per-qubit factors (steps, width, 2, 2).

    The qubit ``low + j`` is bit ``j`` of the step's matrix, so higher qubits
    are the outer kron factors.
    """
    mats = factors[:, 0]
    for j in range(1, factors.shape[1]):
        dim = 2 * mats.shape[-1]
        mats = (factors[:, j, :, None, :, None] * mats[:, None, :, None, :]).reshape(-1, dim, dim)
    return mats


def _gather_index(gate: GateOp, idx: np.ndarray) -> np.ndarray:
    """Gather index of one X, CNOT or MCX gate over the basis indices ``idx``."""
    *controls, target = gate.qubits  # controls first, target last
    mask = sum(1 << c for c in controls)
    return np.where(idx & mask == mask, idx ^ (1 << target), idx)


def _compile(circuit: Circuit) -> Program:
    width = circuit.num_qubits
    if width > sv.MAX_SIM_WIDTH:
        raise ValueError(
            f"a {width}-qubit circuit is too wide to simulate; limit is {sv.MAX_SIM_WIDTH}"
        )
    idx = np.arange(2**width)
    layer_width = min(LAYER_WIDTH, width)
    steps, slots, layers = [], {}, []
    n_params = 0

    def slot(g: GateOp) -> int:
        """Give a parametric gate its next angles; return its entry in its kind's stack."""
        nonlocal n_params
        offsets = slots.setdefault(g.kind, [])
        offsets.append(n_params)
        n_params += _PARAM_COUNTS[g.kind]
        return len(offsets) - 1

    def family(g: GateOp) -> str:
        return "permutation" if g.kind in _PERMUTATIONS else "rotation" if g.kind in _ROTATIONS else g.kind

    for kind, group in itertools.groupby(circuit.gates, key=family):
        group = list(group)
        if kind == "permutation":
            gather = _gather_index(group[0], idx)
            for g in group[1:]:
                gather = gather[_gather_index(g, idx)]
            steps.append(gather)
        elif kind == "rotation":
            # qubit q joins the step from the multiple of layer_width below it,
            # the last step moved down to fit the register; each step lists
            # the gates on each of its qubits in gate order
            run = {}
            for g in group:
                q = g.qubits[0]
                low = min(q - q % layer_width, width - layer_width)
                run.setdefault(low, [[] for _ in range(layer_width)])[q - low].append((g.kind, slot(g)))
            for low in sorted(run):
                steps.append((low, layer_width, "layer", len(layers)))
                layers.append(run[low])
        else:
            steps.extend((g.qubits[0], len(g.qubits), g.kind, slot(g)) for g in group)
    # a layer entry indexes the factor stack (identity, RY..., RZ...)
    first = {"RY": 1, "RZ": 1 + len(slots.get("RY", ()))}
    depth = max((len(seq) for sequences in layers for seq in sequences), default=0)
    table = np.zeros((depth, len(layers), layer_width), dtype=np.intp)
    for i, sequences in enumerate(layers):
        for j, seq in enumerate(sequences):
            for d, (kind, entry) in enumerate(seq):
                table[d, i, j] = first[kind] + entry
    return Program(
        width,
        tuple(steps),
        {kind: np.array(s, dtype=np.intp) for kind, s in slots.items()},
        n_params,
        table,
    )


def gate_counts(circuit: Circuit) -> dict:
    """Width, greedy-layered depth and modeled CNOT count of a circuit."""
    return {
        "width": circuit.num_qubits,
        "depth": circuit.depth,
        "cnot_count": circuit.cnot_count,
    }


def a_gate_matrix(beta, gamma) -> np.ndarray:
    """Dense 4x4 excitation-preserving rotation, first listed qubit = low bit.

    Closed form of the decomposition CNOT; Rz^dag(gamma+pi) and
    Ry^dag(beta+pi/2) on the first qubit; reversed CNOT; Ry(beta+pi/2) and
    Rz(gamma+pi) on the first qubit; CNOT.  It fixes |00> and |11> and acts on
    (|01>, |10>) as [[cos b, e^{i g} sin b], [e^{-i g} sin b, -cos b]].
    Array arguments give a stack of shape (..., 4, 4).
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    c, s = np.cos(beta), np.sin(beta)
    phase = np.exp(1j * gamma)
    mat = np.zeros(np.broadcast_shapes(beta.shape, gamma.shape) + (4, 4), dtype=complex)
    mat[..., 0, 0] = mat[..., 3, 3] = 1.0
    mat[..., 1, 1] = c
    mat[..., 2, 2] = -c
    mat[..., 1, 2] = phase * s
    mat[..., 2, 1] = phase.conj() * s
    return mat


def build_ses_circuit(n_sites: int) -> Circuit:
    """One-hot single-excitation ansatz on an N-qubit register.

    X on qubit 0 creates the excitation; a chain of A gates on neighboring
    qubits (j, j+1), j = 0..N-2, then distributes it.  It binds N-1
    (beta, gamma) pairs, pair j's at 2j, 2j + 1.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    gates = [GateOp("X", (0,))]
    gates.extend(GateOp("A", (j, j + 1)) for j in range(n_sites - 1))
    return Circuit(n_sites, tuple(gates))


def binary_register_layout(emap: EncodingMap) -> dict:
    """Qubit roles of the packed ansatz register.

    Data bits sit on qubits 0..n-1, the two workspace ancillas above them, and
    one clean helper for the multi-controlled X when the data register has at
    least three qubits.
    """
    n = emap.num_qubits
    layout = {
        "data": tuple(range(n)),
        "flag_a": n,
        "flag_b": n + 1,
        "helper": n + 2 if n >= 3 else None,
    }
    layout["width"] = n + 3 if n >= 3 else n + 2
    return layout


def _prep_and_unflag(gates, emap, layout, site, flag):
    """Controlled write of a codeword followed by the matching unflag."""
    word = emap.codeword(site)
    for b in range(emap.num_qubits):
        if word >> b & 1:
            gates.append(GateOp("CNOT", (flag, b)))
    frame = [b for b in range(emap.num_qubits) if not (word >> b) & 1]
    for b in frame:
        gates.append(GateOp("X", (b,)))
    gates.append(GateOp("MCX", (*layout["data"], flag)))
    for b in frame:
        gates.append(GateOp("X", (b,)))


def build_binary_ses_circuit(n_sites: int, emap: EncodingMap | None = None) -> Circuit:
    """Packed-register equivalent of the one-hot ansatz.

    One module per site: an A gate on the two workspace ancillas splits off
    the amplitude for that site, three CNOTs swap the split branch onto the
    write flag, one CNOT from the flag per set bit writes the site's codeword
    into the data register, and a pattern-controlled MCX clears the flag.
    The final site receives the residual amplitude through a write/unflag
    pair without a new A gate.  Produces the same site amplitudes as
    build_ses_circuit bound to the same parameters.

    Codeword 0 is also the pattern of a data register not yet written, so
    an unflag for it would fire on the travelling branch too: a map that
    gives codeword 0 to any site but the last is refused.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    emap = emap or build_map(n_sites)
    if emap.n_sites != n_sites:
        raise ValueError(
            f"encoding map covers {emap.n_sites} sites, circuit wants {n_sites}"
        )
    if 0 in emap.codewords[:-1]:
        raise ValueError(
            f"codeword 0 marks an unwritten data register, so only the last site may "
            f"hold it; this map gives it to site {emap.codewords.index(0)} of {n_sites}"
        )
    layout = binary_register_layout(emap)
    a0, a1 = layout["flag_a"], layout["flag_b"]
    gates = [GateOp("X", (a0,))]
    for i in range(n_sites - 1):
        gates.append(GateOp("A", (a0, a1)))
        gates.extend(GateOp("CNOT", pair) for pair in ((a0, a1), (a1, a0), (a0, a1)))
        _prep_and_unflag(gates, emap, layout, i, a1)
    # terminal transfer: the residual branch still carries its flag on a0
    _prep_and_unflag(gates, emap, layout, n_sites - 1, a0)
    return Circuit(layout["width"], tuple(gates))


def build_hardware_efficient_circuit(num_qubits: int, layers: int) -> Circuit:
    """Layered RY/RZ rotations with a CNOT ring entangler.

    It binds 2 * num_qubits * layers angles, ordered per layer as all RY
    angles (qubit 0..n-1) then all RZ angles.
    """
    if num_qubits < 1 or layers < 0:
        raise ValueError("num_qubits must be >= 1 and layers >= 0")
    qubits = range(num_qubits)
    layer = [GateOp("RY", (q,)) for q in qubits] + [GateOp("RZ", (q,)) for q in qubits]
    if num_qubits > 1:
        layer += [GateOp("CNOT", (q, (q + 1) % num_qubits)) for q in qubits]
    return Circuit(num_qubits, tuple(layer * layers))


def decompose(circuit: Circuit) -> Circuit:
    """Expand each A gate into its three CNOTs and four single-qubit rotations.

    The A gate on ``(a, b)`` becomes CNOT(a, b), RZ(a), RY(a), CNOT(b, a),
    RY(a), RZ(a), CNOT(a, b).  Its two slots (beta, gamma) of the bound
    vector become those four rotations' slots, in that order, with the angles
    -(gamma + pi), -(beta + pi/2), beta + pi/2, gamma + pi; every other angle
    keeps its place in gate order.  Every other gate is left as it is.  MCX
    is retained as a costed unit; its CNOT total follows the documented model
    rather than an inline synthesis.
    """
    out = []
    for g in circuit.gates:
        if g.kind == "A":
            qa, qb = g.qubits
            out.append(GateOp("CNOT", (qa, qb)))
            out.append(GateOp("RZ", (qa,)))
            out.append(GateOp("RY", (qa,)))
            out.append(GateOp("CNOT", (qb, qa)))
            out.append(GateOp("RY", (qa,)))
            out.append(GateOp("RZ", (qa,)))
            out.append(GateOp("CNOT", (qa, qb)))
        else:
            out.append(g)
    return Circuit(circuit.num_qubits, tuple(out))


def simulate(circuit: Circuit, params) -> np.ndarray:
    """Amplitudes of the circuit's compiled program run from |0...0>.

    ``params`` binds a flat angle vector to the parametric gates (RY, RZ, A)
    in gate order, which is the order every ansatz builder documents, so a
    template circuit built once serves every evaluation; it is refused unless
    a finite 1-D vector of ``circuit.program.n_params`` angles, and it is the
    only place angles enter a run.  Every step runs the same kernel:
    a gather, or one GEMM of a dense matrix over its run of adjacent qubits
    (the matrix's first column when it spans the register still at |0...0>,
    the same numbers bit for bit).
    A run of RY/RZ gates on an n-qubit register (a hardware-efficient layer's
    2n rotations) is ``ceil(n / LAYER_WIDTH)`` such products, one when
    n <= LAYER_WIDTH, and rounds as its kron-built matrices do; every A gate
    keeps its own gate step.  Each A matrix is checked unitary to 1e-10 and
    each layer step's per-qubit factors to 1e-11 (``Program.matrices``), and
    the norm after every dense step to 1e-10.
    """
    program = circuit.program
    mats = program.matrices(program.bind(params))
    zero = np.zeros(2**program.num_qubits, dtype=complex)
    zero[0] = 1.0
    amps = zero  # every step makes a new array, so ``amps is zero`` until one runs
    for step in program.steps:
        if isinstance(step, np.ndarray):
            amps = amps[step]
            continue
        low, width, kind, index = step
        dim = 1 << width
        mat = mats[kind][index]
        if amps is zero and dim == amps.size:
            # a matrix over the whole register maps |0...0> to its first column;
            # adding 0.0 makes a -0.0 entry 0.0, as the product's sum does
            amps = mat[:, 0] + 0.0
        elif dim == amps.size:
            # the whole register is already the (dim, 1) operand below
            amps = (mat @ amps.reshape(dim, 1)).reshape(-1)
        else:
            # one transposing copy puts the gate's qubits on the rows of a
            # single GEMM operand; this layout fixes the rounding that the
            # pinned outputs and fixed-seed traces rely on
            stride = 1 << low
            blocks = amps.reshape(-1, dim, stride).transpose(1, 0, 2).reshape(dim, -1)
            out = mat @ blocks
            amps = out.reshape(dim, -1, stride).transpose(1, 0, 2).reshape(-1)
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= sv._NORM_TOL:
            qubits = tuple(range(low, low + width))
            raise ValueError(f"{_step_name(kind)} on {qubits} broke the norm: sum |amp|^2 = {norm!r}")
    return amps


def ses_site_amplitudes(n_sites: int, params) -> np.ndarray:
    """Closed-form site amplitudes of the one-hot ansatz.

    The A gate splits the traveling amplitude c as cos(beta)*c staying on the
    current site and exp(-i*gamma)*sin(beta)*c moving on, so the profile is a
    simple cascade, computed in Python complex numbers (cheaper than numpy's
    per-call cost at the widths the solver runs).  Verified against dense
    simulation in the test suite; used as the exact-mode fast path at widths
    where a dense register is wasteful.
    """
    arr = _real_angles(params)
    if arr.shape != (2 * (n_sites - 1),):
        raise ValueError(f"expected {2 * (n_sites - 1)} parameters (beta,gamma pairs), got shape {arr.shape}")
    _check_finite(arr, "ansatz parameters")
    angles = arr.tolist()
    alpha, carry = [], 1.0 + 0.0j
    for beta, gamma in zip(angles[::2], angles[1::2]):
        alpha.append(math.cos(beta) * carry)
        carry = cmath.exp(-1j * gamma) * math.sin(beta) * carry
    return np.array(alpha + [carry])


def binary_data_amplitudes(amplitudes: np.ndarray, emap: EncodingMap):
    """Read the data-register block of a packed-ansatz output register.

    Projects every non-data qubit onto 0 and returns (site amplitudes, leaked
    probability outside that block).  The data qubits are the low bits, so a
    site's amplitude sits at its codeword's index.  The builders guarantee
    the leak is at numerical-noise level.
    """
    alpha = amplitudes[np.asarray(emap.codewords)]
    leak = 1.0 - float(np.sum(np.abs(alpha) ** 2))
    return alpha, max(leak, 0.0)

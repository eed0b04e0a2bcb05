"""Lower quantum gates onto linear-optical element layers.

Encoding: each location qubit contributes one path-index bit (assignment
order fixes which bit, position 0 being most significant); at most one
qubit may ride on polarization instead. Gates are built from three
primitives, each acting only where its control qubits are 1:

  - flip (NOT on a target): rotators on the control paths when the target
    is the polarization qubit; a polarizing beam splitter per affected path
    pair when a control is, followed by -pi/2 V-filtered phase shifters that
    cancel the splitter's reflection phases; otherwise one crossing;
  - exchange (SWAP of two qubits): one crossing when every operand is a
    location qubit, otherwise three flips, the polarization qubit always
    the second operand so the stages run rotator, PBS, rotator;
  - phase: one layer of phase shifters on the paths where the location
    operands are 1, V-filtered when the polarization qubit is an operand.

CNOT, TOFFOLI and X on polarization are flips; SWAP and FREDKIN are
exchanges; CZ, and Z, S or PHASE on polarization, are phases. A 1-qubit
gate on a location qubit is one beam splitter plus phase shifters per path
pair that differs only in that qubit's bit, from the exact decomposition
U = D_out . BS(theta) . D_in; H or U2 on polarization is that gate on a
borrowed location qubit, exchanged with polarization before and after.

Every lowering above is exact (equal to the embedded gate unitary, global
phase included), so a compiled netlist matches its circuit to float
precision. Each stage is emitted as column layers (Column: one element kind
on a masked path array, like one column of a Reck or Clements mesh). Those
path arrays depend only on a gate's shape, the ints of its control mask and
target bit: each shape's are built once per compile_circuit or lower_gate
call and shared, read-only, by every gate of that shape, so a gate itself
adds only its angles (decompose_u2 works on Python scalars). Adjacent
rotator layers merge to their symmetric difference, trailing crossings can
become an output-port relabeling (unless relabel_terminal_crossings is
false), and the columns form one checked ElementTable (optics builds it and
owns the JSON format), pruned layer by layer for the entry modes of
input_support when it is given; lower_gate and prepare_* return element
views of the same columns. Each input is checked once, where it arrives: a
circuit's gates by QuantumCircuit, one lower_gate call's gate by
lower_gate, an input support by prune_dead_paths, and a preparation's
amplitudes and qubit by prepare_location_state (its qubit through
path_delta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .circuit import Gate, GateKind, QuantumCircuit, gate_text, one_qubit_matrix
from .optics import (
    BS,
    ELEMENT_KINDS,
    PBS,
    PERM,
    POL_CODE_BOTH,
    POL_V,
    PS,
    ROT,
    ElementTable,
    ModeSpace,
    OpticalElement,
    OpticalNetlist,
    _POL_FILTERS,
    _netlist,
    _permutations,
    _table,
)


class CompileError(ValueError):
    """Gate or assignment that cannot be lowered, or an empty pruning support."""


@dataclass(frozen=True)
class QubitAssignment:
    """Which qubit rides on which degree of freedom.

    location_order lists the location qubits by path-bit position, most
    significant bit first; pol_qubit, if set, is encoded in polarization.
    """

    n_qubits: int
    location_order: tuple[int, ...]
    pol_qubit: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "location_order", tuple(self.location_order))
        if type(self.n_qubits) is not int:  # a bool or float is refused, never truncated
            raise CompileError(f"qubit count {self.n_qubits!r} is not an int")
        self.mode_space()  # refuses too many path bits before any sequence over the qubits
        claimed = list(self.location_order)
        if self.pol_qubit is not None:
            claimed.append(self.pol_qubit)
        for qubit in claimed:
            if type(qubit) is not int:
                raise CompileError(f"qubit {qubit!r} is not an int")
        # The count first: a range over a huge n_qubits would not fit in memory.
        if len(claimed) != self.n_qubits or sorted(claimed) != list(range(self.n_qubits)):
            raise CompileError(
                "assignment must map every qubit exactly once "
                f"(got {claimed} for {self.n_qubits} qubit(s))"
            )

    @classmethod
    def default(cls, n_qubits: int, pol_qubit: int | None = None) -> QubitAssignment:
        ModeSpace(n_qubits - (pol_qubit is not None))  # too wide: refused before the tuple
        order = tuple(q for q in range(n_qubits) if q != pol_qubit)
        return cls(n_qubits, order, pol_qubit)

    @classmethod
    def for_circuit(cls, circuit: QuantumCircuit) -> QubitAssignment:
        return cls.default(circuit.n_qubits, circuit.pol_qubit)

    @property
    def n_loc(self) -> int:
        return len(self.location_order)

    @property
    def uses_pol(self) -> bool:
        return self.pol_qubit is not None

    def mode_space(self) -> ModeSpace:
        return ModeSpace(self.n_loc, self.uses_pol)

    def is_pol(self, qubit: int) -> bool:
        return qubit == self.pol_qubit

    def path_bit(self, qubit: int) -> int:
        try:
            return self.location_order.index(qubit)
        except ValueError:
            raise CompileError(f"qubit {qubit} is not a location qubit") from None

    def path_delta(self, qubit: int) -> int:
        return 1 << (self.n_loc - 1 - self.path_bit(qubit))


@dataclass(frozen=True)
class DeviceStats:
    beam_splitters: int
    polarizing_beam_splitters: int
    phase_shifters: int
    rotators: int
    crossings: int
    n_paths: int
    n_modes: int

    @property
    def splitting_elements(self) -> int:
        return self.beam_splitters + self.polarizing_beam_splitters


class U2Decomposition(NamedTuple):
    """Angles with diag(e^i.out_a, e^i.out_b) . BS(theta) . diag(e^i.in_a, e^i.in_b) = U."""

    phi_in_a: float
    phi_in_b: float
    theta: float
    phi_out_a: float
    phi_out_b: float


_ZERO_ANGLE = 1e-15
_DEGENERATE = 1e-12
_V = _POL_FILTERS.index(POL_V)  # the pol code of a V filter


def _wrap(angle: float) -> float:
    return math.remainder(angle, math.tau)


def decompose_u2(u: np.ndarray) -> U2Decomposition:
    """Exact beam-splitter-and-phases form of a 2x2 unitary.

    The reconstruction reproduces u including its global phase; theta lands
    in [0, pi/2] and the identity maps to all-zero angles. The leftover
    gauge freedom is fixed by phi_in_a = 0 whenever possible.
    """
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2):
        raise CompileError(f"expected a 2x2 matrix, got shape {m.shape}")
    rows = m.tolist()  # Python scalars: a 2x2 is cheaper by hand than by NumPy calls
    gram = [[x0 * y0.conjugate() + x1 * y1.conjugate() for y0, y1 in rows] for x0, x1 in rows]
    # Each entry of m m^H - I within the bound; NaN fails too.
    if not all(abs(gram[i][j] - (i == j)) <= 1e-10 for i in (0, 1) for j in (0, 1)):
        raise CompileError("matrix is not unitary")
    (a00, a01), (a10, a11) = rows
    cos_part = (abs(a00) + abs(a11)) / 2.0
    sin_part = (abs(a01) + abs(a10)) / 2.0
    # Below the bound the small pair is dropped (theta 0 or pi/2), phases and all.
    if sin_part < _DEGENERATE:
        return U2Decomposition(0.0, 0.0, 0.0, _wrap(cmath.phase(a00)), _wrap(cmath.phase(a11)))
    if cos_part < _DEGENERATE:
        out_a = _wrap(cmath.phase(a01) - math.pi / 2)
        out_b = _wrap(cmath.phase(a10) - math.pi / 2)
        return U2Decomposition(0.0, 0.0, math.pi / 2, out_a, out_b)
    theta = math.atan2(sin_part, cos_part)
    out_a = cmath.phase(a00)
    out_b = cmath.phase(a10) - math.pi / 2
    in_b = cmath.phase(a01) - math.pi / 2 - out_a
    return U2Decomposition(0.0, _wrap(in_b), theta, _wrap(out_a), _wrap(out_b))


def reconstruct_u2(dec: U2Decomposition) -> np.ndarray:
    """Multiply the decomposition back out (test helper and documentation)."""
    ct, st = math.cos(dec.theta), math.sin(dec.theta)
    splitter = np.array([[ct, 1j * st], [1j * st, ct]], dtype=complex)
    d_in = np.diag([cmath.exp(1j * dec.phi_in_a), cmath.exp(1j * dec.phi_in_b)])
    d_out = np.diag([cmath.exp(1j * dec.phi_out_a), cmath.exp(1j * dec.phi_out_b)])
    return d_out @ splitter @ d_in


class Column(NamedTuple):
    """One lowered layer, of one element kind and pol code: each row's path a;
    b (a pair's other path) and angle, shared or one per row; and a crossing's
    path_map (a crossing is one row, its a a placeholder)."""

    kind: int
    a: np.ndarray
    b: int | np.ndarray = 0
    angle: float | np.ndarray = 0.0
    pol: int = POL_CODE_BOTH
    path_map: np.ndarray | None = None


def _repeated(values: list, counts: np.ndarray, dtype) -> np.ndarray:
    """Each layer's value on its counts rows: the scalars by one repeat, then
    each array value written over its own layer's rows."""
    arrays = {i: value for i, value in enumerate(values) if isinstance(value, np.ndarray)}
    scalars = [0 if i in arrays else value for i, value in enumerate(values)]
    column = np.repeat(np.array(scalars, dtype), counts)
    starts = (np.cumsum(counts) - counts).tolist()
    for i, value in arrays.items():
        column[starts[i] : starts[i] + len(value)] = value
    return column


def _column_table(layers: Sequence[Column], n_paths: int) -> ElementTable:
    """The element table of column layers in order."""
    counts = np.array([len(layer.a) for layer in layers], dtype=np.int64)
    kind = np.repeat(np.array([layer.kind for layer in layers], np.int8), counts)
    pol = np.repeat(np.array([layer.pol for layer in layers], np.int8), counts)
    a = np.concatenate([np.zeros(0, np.int64), *(layer.a for layer in layers)])
    b = _repeated([layer.b for layer in layers], counts, np.int64)
    angle = _repeated([layer.angle for layer in layers], counts, np.float64)
    maps = [layer.path_map for layer in layers if layer.kind == PERM]
    return _table(kind, a, b, angle, pol, counts, _permutations(maps, n_paths, "crossing map"))


def _element_layers(layers: Sequence[Column], space: ModeSpace) -> list[list[OpticalElement]]:
    """Column layers as element objects, the library's form of a lowering."""
    return [list(layer) for layer in _netlist(space, _column_table(layers, space.n_paths)).layers]


def _pair_arrays(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p0, p1 and the two interleaved (p0[0], p1[0], p0[1], ...)."""
    return p0, p1, np.column_stack((p0, p1)).ravel()


def _u2_assembly(
    dec: U2Decomposition, p0: np.ndarray, p1: np.ndarray, pairs: np.ndarray
) -> list[Column]:
    """Phase-in, splitter, phase-out layers realizing dec on each (p0, p1)
    path pair (pairs holds them interleaved); the pairs must be disjoint, and
    the angles of dec are all scalars or all one per pair. A zero angle's rows
    are dropped: for a scalar, its whole side or column."""

    def rows(kind: int, a: np.ndarray, angle, b=0) -> list[Column]:
        if isinstance(angle, np.ndarray):
            keep = np.abs(angle) >= _ZERO_ANGLE
            a, angle = a[keep], angle[keep]
            b = b[keep] if isinstance(b, np.ndarray) else b
        elif abs(angle) < _ZERO_ANGLE:
            return []
        return [Column(kind, a, b, angle)] if len(a) else []

    def shifters(phi_a, phi_b) -> list[Column]:
        scalar = not isinstance(phi_a, np.ndarray)
        if scalar and min(abs(phi_a), abs(phi_b)) < _ZERO_ANGLE:
            return rows(PS, p0, phi_a) + rows(PS, p1, phi_b)  # at most one side is left
        angle = np.empty(len(pairs))
        angle[0::2], angle[1::2] = phi_a, phi_b
        if not scalar:
            return rows(PS, pairs, angle)
        angle.flags.writeable = False  # like the shared path arrays: a gate's repeats share it
        return [Column(PS, pairs, angle=angle)]

    return (shifters(dec.phi_in_a, dec.phi_in_b) + rows(BS, p0, dec.theta, p1)
            + shifters(dec.phi_out_a, dec.phi_out_b))


class _Shapes:
    """The path arrays of gate shapes under one assignment, each built on
    first use and then shared, read-only, by every gate of its shape. A shape
    is keyed by the ints control mask and target bit, so a gate's own work is
    only its angles. compile_circuit and lower_gate each make one per call
    and drop it: no memo outlives a call."""

    def __init__(self, assignment: QubitAssignment):
        self.assignment = assignment
        self._paths = np.arange(1 << assignment.n_loc, dtype=np.int64)
        self._built: dict[tuple, tuple[np.ndarray, ...]] = {}

    def _shared(self, key: tuple, build) -> tuple[np.ndarray, ...]:
        arrays = self._built.get(key)
        if arrays is None:
            arrays = self._built[key] = build(self._paths)
            for array in arrays:
                array.flags.writeable = False
        return arrays

    def mask(self, qubits: Sequence[int]) -> int:
        """The path bits of the location qubits among qubits (the polarization
        qubit has none; callers condition on it). Distinct operands, distinct bits."""
        assignment = self.assignment
        return sum(assignment.path_delta(q) for q in qubits if not assignment.is_pol(q))

    def control_paths(self, mask: int) -> np.ndarray:
        """The paths with every bit of mask 1."""
        return self._shared(("control", mask), lambda paths: (paths[paths & mask == mask],))[0]

    def pairs(self, mask: int, delta: int, flip: int = 0) -> tuple[np.ndarray, ...]:
        """Each path with the mask bits 1 and the delta bit 0, its partner (the
        path XOR delta | flip), and the two interleaved."""

        def build(paths):
            p0 = paths[paths & (mask | delta) == mask]
            return _pair_arrays(p0, p0 ^ (delta | flip))

        return self._shared(("pairs", mask, delta, flip), build)

    def crossing(self, mask: int, delta: int, flip: int = 0) -> Column:
        """One crossing, exchanging each pair of pairs(mask, delta, flip)."""

        def build(paths):
            p0, p1, _ = self.pairs(mask, delta, flip)
            path_map = paths.copy()
            path_map[p0], path_map[p1] = p1, p0
            return np.zeros(1, np.int64), path_map  # a placeholder a; the table writes its own

        row, path_map = self._shared(("crossing", mask, delta, flip), build)
        return Column(PERM, row, path_map=path_map)


def _flip(shapes: _Shapes, target: int, controls: Sequence[int]) -> list[Column]:
    """NOT on target where every control is 1: rotators on the control paths
    when the target is the polarization qubit, a PBS stage when a control is,
    and otherwise one crossing."""
    assignment, mask = shapes.assignment, shapes.mask(controls)
    if assignment.is_pol(target):
        return [Column(ROT, shapes.control_paths(mask))]
    delta = assignment.path_delta(target)
    if assignment.pol_qubit in controls:
        # V-conditioned path-bit flip: a PBS reflects V with phase i, so a
        # -pi/2 V-filtered shifter on each touched path restores an exact CNOT.
        p0, p1, pairs = shapes.pairs(mask, delta)
        return [Column(PBS, p0, p1), Column(PS, pairs, angle=-math.pi / 2, pol=_V)]
    return [shapes.crossing(mask, delta)]  # never the identity: a flip always moves a path


def _exchange(shapes: _Shapes, a: int, b: int, controls: Sequence[int]) -> list[Column]:
    """SWAP of a and b where every control is 1: one crossing on location
    qubits, else three flips. A swapped polarization qubit is always b, so
    the stages run rotator, PBS, rotator."""
    assignment = shapes.assignment
    if assignment.pol_qubit not in (a, b, *controls):
        da, db = assignment.path_delta(a), assignment.path_delta(b)
        # Each path with a's bit 1 and b's bit 0 trades places with its a-0, b-1 partner.
        return [shapes.crossing(shapes.mask(controls) | da, db, da)]
    if assignment.is_pol(a):
        a, b = b, a
    outer = _flip(shapes, b, (*controls, a))
    return outer + _flip(shapes, a, (*controls, b)) + outer


def _phase(shapes: _Shapes, qubits: Sequence[int], phi: float) -> list[Column]:
    """e^(i.phi) where every operand is 1: shifters on the paths where the
    location operands are 1, V-filtered when the polarization qubit is one."""
    if abs(_wrap(phi)) < _ZERO_ANGLE:
        return []
    pol = _V if shapes.assignment.pol_qubit in qubits else POL_CODE_BOTH
    return [Column(PS, shapes.control_paths(shapes.mask(qubits)), angle=phi, pol=pol)]


def _lower_1q_location(matrix: np.ndarray, qubit: int, shapes: _Shapes) -> list[Column]:
    pairs = shapes.pairs(0, shapes.assignment.path_delta(qubit))
    return _u2_assembly(decompose_u2(matrix), *pairs)


_PHASE_ANGLES = {GateKind.Z: math.pi, GateKind.S: math.pi / 2, GateKind.CZ: math.pi}


def _lower_columns(gate: Gate, shapes: _Shapes) -> list[Column]:
    """Column layers realizing one gate exactly (no global-phase slack)."""
    kind, qs, assignment = gate.kind, gate.qubits, shapes.assignment
    on_pol = kind.n_qubits == 1 and assignment.is_pol(qs[0])
    if kind in (GateKind.CNOT, GateKind.TOFFOLI) or (on_pol and kind is GateKind.X):
        return _flip(shapes, qs[-1], qs[:-1])
    if kind in (GateKind.SWAP, GateKind.FREDKIN):
        return _exchange(shapes, qs[-2], qs[-1], qs[:-2])
    if kind is GateKind.CZ or (on_pol and kind in (GateKind.Z, GateKind.S, GateKind.PHASE)):
        phi = gate.params[0] if kind is GateKind.PHASE else _PHASE_ANGLES[kind]
        return _phase(shapes, qs, phi)
    if not on_pol:
        return _lower_1q_location(one_qubit_matrix(gate), qs[0], shapes)
    # Mixing gates (H, general U2) need a path pair to interfere on, so the
    # polarization qubit is exchanged onto a borrowed location qubit and back.
    if assignment.n_loc == 0:
        raise CompileError(
            f"cannot lower {kind.value} on the polarization qubit without a location qubit"
        )
    borrow = assignment.location_order[-1]
    swap = _exchange(shapes, borrow, qs[0], ())
    return swap + _lower_1q_location(one_qubit_matrix(gate), borrow, shapes) + swap


def lower_gate(gate: Gate, assignment: QubitAssignment) -> list[list[OpticalElement]]:
    """Layers realizing one gate exactly (no global-phase slack), as element
    views of the column layers compile_circuit lowers it to."""
    gate.validate_for(assignment.n_qubits)
    return _element_layers(_lower_columns(gate, _Shapes(assignment)), assignment.mode_space())


def _cancel_adjacent_rotators(
    layers: list[Column], notes: list[str]
) -> tuple[list[Column], list[str]]:
    # Two adjacent rotator layers compose to rotators on the symmetric
    # difference of their path sets (a double flip is the identity). Kept
    # layers never hold two adjacent rotator layers, so one pass suffices.
    kept, kept_notes = [], []
    for layer, note in zip(layers, notes):
        if layer.kind == ROT and kept and kept[-1].kind == ROT:
            layer = Column(ROT, np.setxor1d(kept.pop().a, layer.a, assume_unique=True))
            previous = kept_notes.pop()
            note = previous if previous == note else f"{previous} + {note}"
        if len(layer.a):
            kept.append(layer)
            kept_notes.append(note)
    return kept, kept_notes


def _extract_terminal_relabel(
    layers: list[Column], notes: list[str], space: ModeSpace
) -> tuple[int, ...] | None:
    # Trailing crossing layers leave the lists, composed into one relabeling.
    relabel = identity = np.arange(space.n_paths)
    while layers and layers[-1].kind == PERM:
        relabel = relabel[layers.pop().path_map]
        notes.pop()
    return None if np.array_equal(relabel, identity) else tuple(relabel.tolist())


def compile_circuit(
    circuit: QuantumCircuit,
    assignment: QubitAssignment | None = None,
    *,
    input_support: Iterable[int] | None = None,
    relabel_terminal_crossings: bool = True,
) -> OpticalNetlist:
    """Lower a whole circuit to an optical netlist, gates in circuit order:
    column layers, concatenated into one table that the netlist checks. Each
    Gate object is lowered once per call, and its repeats share the columns
    (parse_circuit shares one Gate per distinct line); each gate shape's path
    arrays are built once per call, and gates of one shape differ only in
    their angles. Trailing crossings become an output relabeling unless
    relabel_terminal_crossings is false, and given an input_support the
    netlist is pruned for those entry modes (prune_dead_paths)."""
    if assignment is None:
        assignment = QubitAssignment.for_circuit(circuit)
    if assignment.n_qubits != circuit.n_qubits:
        raise CompileError(
            f"assignment covers {assignment.n_qubits} qubit(s), circuit has {circuit.n_qubits}"
        )
    space, shapes = assignment.mode_space(), _Shapes(assignment)
    layers: list[Column] = []
    notes: list[str] = []
    by_gate: dict[int, tuple[list[Column], str]] = {}  # by id: a repeated line shares its Gate
    for index, gate in enumerate(circuit.gates):
        if (entry := by_gate.get(id(gate))) is None:  # its repeats share these read-only columns
            entry = by_gate[id(gate)] = _lower_columns(gate, shapes), gate_text(gate)
        columns, text = entry
        layers += columns
        notes += [f"g{index}: {text}"] * len(columns)
    layers, notes = _cancel_adjacent_rotators(layers, notes)
    relabel = (_extract_terminal_relabel(layers, notes, space)
               if relabel_terminal_crossings else None)
    netlist = _netlist(space, _column_table(layers, space.n_paths), notes, relabel)
    if input_support is not None:
        netlist = prune_dead_paths(netlist, input_support)
    return netlist


def prune_dead_paths(netlist: OpticalNetlist, input_support: Iterable[int]) -> OpticalNetlist:
    """Drop elements that can never see amplitude from the given input modes.

    Liveness is one mask of possibly-nonzero modes, updated layer by layer
    over the table's footprints: a layer keeps each element whose footprint
    meets a live mode, then marks those footprints live (layers are disjoint,
    so a kept element cannot make a layer-mate look live), and emptied
    layers are dropped. Once every mode is live, each later element is kept
    iff it occupies a mode. Propagation through the pruned netlist matches
    the original for any input supported on input_support.
    """
    support = set(input_support)
    if not support:
        raise CompileError("pruning needs a nonempty input support")
    for mode in support:
        netlist.space._check_mode(mode)
    live = np.zeros(netlist.space.dim, bool)
    live[list(support)] = True
    layers, rows, modes = netlist.footprints()
    bounds = np.searchsorted(layers, np.arange(netlist.n_layers + 1)).tolist()
    keep = np.zeros(netlist.n_elements, bool)
    for lo, hi in zip(bounds, bounds[1:]):
        if live.all():
            keep[rows[lo:]] = True
            break
        row, mode = rows[lo:hi], modes[lo:hi]
        keep[row[live[mode]]] = True
        live[mode[keep[row]]] = True
    return netlist.subset(keep)


def device_stats(netlist: OpticalNetlist) -> DeviceStats:
    """Exact element counts from one count over the kind column."""
    counts = np.bincount(netlist.table.kind, minlength=len(ELEMENT_KINDS)).tolist()
    return DeviceStats(
        beam_splitters=counts[BS],
        polarizing_beam_splitters=counts[PBS],
        phase_shifters=counts[PS],
        rotators=counts[ROT],
        crossings=counts[PERM],
        n_paths=netlist.space.n_paths,
        n_modes=netlist.space.dim,
    )


def _column_completion(a: complex, b: complex) -> np.ndarray:
    # Any unitary whose first column is (a, b); the identity comes back for
    # (1, 0) so no hardware is emitted when nothing needs preparing.
    if b == 0:
        return np.array([[a, 0.0], [0.0, a.conjugate()]], dtype=complex)
    return np.array([[a, b.conjugate()], [b, -a.conjugate()]], dtype=complex)


def prepare_location_state(
    a: complex, b: complex, qubit: int, assignment: QubitAssignment
) -> list[list[OpticalElement]]:
    """Layers sending the photon from the all-zeros path into amplitudes
    (a, b) across the path pair of one location qubit."""
    if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-10:  # NaN fails too
        raise CompileError("preparation amplitudes must be normalized")
    dec = decompose_u2(_column_completion(complex(a), complex(b)))
    pair = _pair_arrays(np.zeros(1, np.int64), np.array([assignment.path_delta(qubit)]))
    return _element_layers(_u2_assembly(dec, *pair), assignment.mode_space())


def prepare_path_state(amplitudes: Sequence[complex], space: ModeSpace) -> list[list[OpticalElement]]:
    """Binary splitting cascade taking the photon from path 0 to an
    arbitrary path superposition; a full cascade over n bits uses 2^n - 1
    splitters."""
    target = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if target.shape != (space.n_paths,):
        raise CompileError(f"expected {space.n_paths} path amplitudes, got {target.shape[0]}")
    if not abs(np.linalg.norm(target) - 1.0) <= 1e-10:  # NaN fails too
        raise CompileError("path amplitudes must be normalized")
    layers: list[Column] = []
    for level in range(space.n_loc):
        seg = space.n_paths >> level
        half = seg >> 1
        parts = []
        for base in range(0, space.n_paths, seg):
            total = float(np.linalg.norm(target[base : base + seg]))
            if total < 1e-15:
                continue
            if half == 1:
                first, second = target[base] / total, target[base + 1] / total
            else:
                first = float(np.linalg.norm(target[base : base + half])) / total
                second = float(np.linalg.norm(target[base + half : base + seg])) / total
            parts.append((base, *decompose_u2(_column_completion(first, second))))
        p0, *angles = np.array(parts).reshape(-1, 6).T
        p0 = p0.astype(np.int64)
        layers += _u2_assembly(U2Decomposition(*angles), *_pair_arrays(p0, p0 + half))
    return _element_layers(layers, space)

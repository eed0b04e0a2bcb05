"""Lower quantum gates onto linear-optical element layers.

Encoding: each location qubit contributes one path-index bit (assignment
order fixes which bit, position 0 being most significant); at most one
qubit may ride on polarization instead. A gate therefore becomes:

  - a 1-qubit gate on a location qubit: one beam splitter plus phase
    shifters per path pair that differs only in that qubit's bit, from the
    exact decomposition U = D_out . BS(theta) . D_in;
  - a 1-qubit gate on the polarization qubit: per-path polarization
    elements when the matrix is a flip or a phase, otherwise the gate is
    conjugated onto a borrowed location qubit by an exact location/pol swap;
  - CNOT from location onto polarization: a rotator on every path where the
    control bit is 1;
  - CNOT from polarization onto a location bit: a polarizing beam splitter
    per affected path pair, followed by -pi/2 V-filtered phase shifters
    that cancel the splitter's reflection phases, making the stage exact;
  - gates that only permute or phase paths (CNOT/CZ/SWAP/TOFFOLI/FREDKIN on
    location qubits): one crossing or one layer of pi phase shifters
    restricted to the control-satisfying paths;
  - TOFFOLI/FREDKIN with a polarization operand: the constructions above
    restricted to paths where the remaining location controls are 1.

Every lowering above is exact (equal to the embedded gate unitary, global
phase included), so a compiled netlist matches its circuit to float
precision. Two cleanups run afterwards: adjacent identical rotators from
consecutive CNOTs cancel in pairs, and trailing crossings can be turned
into an output-port relabeling.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .circuit import Gate, GateKind, QuantumCircuit, gate_text, one_qubit_matrix
from .optics import (
    BS,
    ELEMENT_KINDS,
    PBS,
    PERM,
    POL_BOTH,
    POL_V,
    PS,
    ROT,
    BeamSplitter,
    Crossing,
    ModeSpace,
    NetlistFormatError,
    OpticalElement,
    OpticalNetlist,
    PhaseShifter,
    PolarizingBeamSplitter,
    Rotator,
    SpaceTooLargeError,
    _POL_FILTERS,
    netlist_from_docs,
)


class CompileError(ValueError):
    """Gate, assignment, or option combination that cannot be lowered."""


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
        claimed = list(self.location_order)
        if self.pol_qubit is not None:
            claimed.append(self.pol_qubit)
        if type(self.n_qubits) is not int:  # a bool or float is refused, never truncated
            raise CompileError(f"qubit count {self.n_qubits!r} is not an int")
        for qubit in claimed:
            if type(qubit) is not int:
                raise CompileError(f"qubit {qubit!r} is not an int")
        if sorted(claimed) != list(range(self.n_qubits)):
            raise CompileError(
                "assignment must map every qubit exactly once "
                f"(got {claimed} for {self.n_qubits} qubit(s))"
            )

    @classmethod
    def default(cls, n_qubits: int, pol_qubit: int | None = None) -> QubitAssignment:
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

    def path_bit_value(self, path: int, qubit: int) -> int:
        return (path >> (self.n_loc - 1 - self.path_bit(qubit))) & 1


@dataclass(frozen=True)
class CompileOptions:
    prune: bool = False
    input_support: frozenset[int] | None = None
    relabel_terminal_crossings: bool = True

    def __post_init__(self):
        if self.input_support is not None:
            object.__setattr__(self, "input_support", frozenset(self.input_support))
            for mode in self.input_support:
                if type(mode) is not int:
                    raise CompileError(f"input mode {mode!r} is not an int")
        if self.prune and not self.input_support:
            raise CompileError("pruning needs a nonempty input support")


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
    if np.max(np.abs(m @ m.conj().T - np.eye(2))) > 1e-10:
        raise CompileError("matrix is not unitary")
    a00, a01, a10, a11 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    cos_part = (abs(a00) + abs(a11)) / 2.0
    sin_part = (abs(a01) + abs(a10)) / 2.0
    theta = math.atan2(sin_part, cos_part)
    if sin_part < _DEGENERATE:
        return U2Decomposition(0.0, 0.0, theta, _wrap(cmath.phase(a00)), _wrap(cmath.phase(a11)))
    if cos_part < _DEGENERATE:
        out_a = _wrap(cmath.phase(a01) - math.pi / 2)
        out_b = _wrap(cmath.phase(a10) - math.pi / 2)
        return U2Decomposition(0.0, 0.0, theta, out_a, out_b)
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


def _zero_angle(angle: float) -> bool:
    return abs(angle) < _ZERO_ANGLE


def _u2_assembly(
    parts: Iterable[tuple[U2Decomposition, int, int]]
) -> list[list[OpticalElement]]:
    """Phase-in, splitter, phase-out layers realizing each (dec, p0, p1) on
    its path pair; the pairs must be disjoint."""
    pre: list[OpticalElement] = []
    mid: list[OpticalElement] = []
    post: list[OpticalElement] = []
    for dec, p0, p1 in parts:
        pre += [PhaseShifter(p, phi) for p, phi in ((p0, dec.phi_in_a), (p1, dec.phi_in_b))
                if not _zero_angle(phi)]
        if not _zero_angle(dec.theta):
            mid.append(BeamSplitter(p0, p1, dec.theta))
        post += [PhaseShifter(p, phi) for p, phi in ((p0, dec.phi_out_a), (p1, dec.phi_out_b))
                 if not _zero_angle(phi)]
    return [layer for layer in (pre, mid, post) if layer]


def _control_mask(assignment: QubitAssignment, controls: Sequence[int]) -> int:
    """Path bits that must all be 1 for the controls to be satisfied."""
    mask = 0
    for control in controls:
        mask |= assignment.path_delta(control)
    return mask


def _control_paths(assignment: QubitAssignment, controls: Sequence[int]) -> list[int]:
    mask = _control_mask(assignment, controls)
    return [p for p in range(1 << assignment.n_loc) if p & mask == mask]


def _bit_pairs(
    assignment: QubitAssignment, target: int, controls: Sequence[int]
) -> list[tuple[int, int]]:
    # Target bit 0 and every control bit 1, in one test.
    delta = assignment.path_delta(target)
    mask = _control_mask(assignment, controls)
    need = mask | delta
    return [(p, p | delta) for p in range(1 << assignment.n_loc) if p & need == mask]


def _rotator_stage(
    assignment: QubitAssignment, controls: Sequence[int]
) -> list[list[OpticalElement]]:
    # Polarization flip on every path satisfying the location controls.
    return [[Rotator(p) for p in _control_paths(assignment, controls)]]


def _pbs_stage(
    assignment: QubitAssignment, target: int, controls: Sequence[int]
) -> list[list[OpticalElement]]:
    # V-conditioned path-bit flip: a PBS reflects V with phase i, so a
    # -pi/2 V-filtered shifter on each touched path restores an exact CNOT.
    pairs = _bit_pairs(assignment, target, controls)
    splitters: list[OpticalElement] = [PolarizingBeamSplitter(p0, p1) for p0, p1 in pairs]
    fixups: list[OpticalElement] = [
        PhaseShifter(p, -math.pi / 2, POL_V) for pair in pairs for p in pair
    ]
    return [splitters, fixups]


def _phase_stage(
    assignment: QubitAssignment, controls: Sequence[int], phi: float, pol_filter: str
) -> list[list[OpticalElement]]:
    if _zero_angle(_wrap(phi)):
        return []
    layer: list[OpticalElement] = [
        PhaseShifter(p, phi, pol_filter) for p in _control_paths(assignment, controls)
    ]
    return [layer]


def _crossing_stage(assignment: QubitAssignment, path_map: Sequence[int]) -> list[list[OpticalElement]]:
    path_map = tuple(path_map)
    if path_map == tuple(range(len(path_map))):
        return []
    return [[Crossing(path_map)]]


def _flip_map(assignment: QubitAssignment, target: int, controls: Sequence[int]) -> tuple[int, ...]:
    delta = assignment.path_delta(target)
    mask = _control_mask(assignment, controls)
    return tuple(p ^ delta if p & mask == mask else p for p in range(1 << assignment.n_loc))


def _exchange_map(
    assignment: QubitAssignment, a: int, b: int, controls: Sequence[int]
) -> tuple[int, ...]:
    da, db = assignment.path_delta(a), assignment.path_delta(b)
    mask = _control_mask(assignment, controls)
    return tuple(
        p ^ da ^ db if p & mask == mask and bool(p & da) != bool(p & db) else p
        for p in range(1 << assignment.n_loc)
    )


def _swap_loc_pol_stage(
    assignment: QubitAssignment, loc: int, controls: Sequence[int]
) -> list[list[OpticalElement]]:
    # SWAP(loc, pol) = CX(loc->pol) CX(pol->loc) CX(loc->pol), all exact.
    flip_pol = _rotator_stage(assignment, (*controls, loc))
    flip_loc = _pbs_stage(assignment, loc, controls)
    return flip_pol + flip_loc + flip_pol


def _lower_1q_location(matrix: np.ndarray, qubit: int, assignment: QubitAssignment):
    dec = decompose_u2(matrix)
    return _u2_assembly((dec, p0, p1) for p0, p1 in _bit_pairs(assignment, qubit, ()))


def _lower_1q_pol(gate: Gate, assignment: QubitAssignment) -> list[list[OpticalElement]]:
    kind = gate.kind
    if kind is GateKind.X:
        return _rotator_stage(assignment, ())
    if kind is GateKind.Z:
        return _phase_stage(assignment, (), math.pi, POL_V)
    if kind is GateKind.S:
        return _phase_stage(assignment, (), math.pi / 2, POL_V)
    if kind is GateKind.PHASE:
        return _phase_stage(assignment, (), gate.params[0], POL_V)
    # Mixing gates (H, general U2) need a path pair to interfere on, so the
    # polarization qubit is swapped onto a borrowed location qubit first.
    if assignment.n_loc == 0:
        raise CompileError(
            f"cannot lower {kind.value} on the polarization qubit without a location qubit"
        )
    borrow = assignment.location_order[-1]
    swap_stage = _swap_loc_pol_stage(assignment, borrow, ())
    return swap_stage + _lower_1q_location(one_qubit_matrix(gate), borrow, assignment) + swap_stage


def lower_gate(gate: Gate, assignment: QubitAssignment) -> list[list[OpticalElement]]:
    """Layers realizing one gate exactly (no global-phase slack)."""
    kind, qs = gate.kind, gate.qubits
    gate.validate_for(assignment.n_qubits)
    if kind.n_qubits == 1:
        if assignment.is_pol(qs[0]):
            return _lower_1q_pol(gate, assignment)
        return _lower_1q_location(one_qubit_matrix(gate), qs[0], assignment)
    if kind is GateKind.CNOT:
        control, target = qs
        if assignment.is_pol(target):
            return _rotator_stage(assignment, (control,))
        if assignment.is_pol(control):
            return _pbs_stage(assignment, target, ())
        return _crossing_stage(assignment, _flip_map(assignment, target, (control,)))
    if kind is GateKind.CZ:
        locs = tuple(q for q in qs if not assignment.is_pol(q))
        pol_filter = POL_BOTH if len(locs) == 2 else POL_V
        return _phase_stage(assignment, locs, math.pi, pol_filter)
    if kind is GateKind.SWAP:
        a, b = qs
        if assignment.is_pol(a) or assignment.is_pol(b):
            loc = b if assignment.is_pol(a) else a
            return _swap_loc_pol_stage(assignment, loc, ())
        return _crossing_stage(assignment, _exchange_map(assignment, a, b, ()))
    if kind is GateKind.TOFFOLI:
        c1, c2, target = qs
        if assignment.is_pol(target):
            return _rotator_stage(assignment, (c1, c2))
        if assignment.is_pol(c1) or assignment.is_pol(c2):
            other = c2 if assignment.is_pol(c1) else c1
            return _pbs_stage(assignment, target, (other,))
        return _crossing_stage(assignment, _flip_map(assignment, target, (c1, c2)))
    if kind is GateKind.FREDKIN:
        control, a, b = qs
        if assignment.is_pol(control):
            return (
                _pbs_stage(assignment, b, (a,))
                + _pbs_stage(assignment, a, (b,))
                + _pbs_stage(assignment, b, (a,))
            )
        if assignment.is_pol(a) or assignment.is_pol(b):
            loc = b if assignment.is_pol(a) else a
            return _swap_loc_pol_stage(assignment, loc, (control,))
        return _crossing_stage(assignment, _exchange_map(assignment, a, b, (control,)))
    raise CompileError(f"no lowering for gate kind {kind.value}")


def _cancel_adjacent_rotators(
    layers: list[list[OpticalElement]], notes: list[str]
) -> tuple[list[list[OpticalElement]], list[str]]:
    # Two adjacent all-rotator layers compose to rotators on the symmetric
    # difference of their path sets (a double flip is the identity).
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(layers):
            first, second = layers[i], layers[i + 1]
            both_rotators = (
                first
                and second
                and all(isinstance(e, Rotator) for e in first)
                and all(isinstance(e, Rotator) for e in second)
            )
            if not both_rotators:
                i += 1
                continue
            surviving = sorted(
                {e.path for e in first} ^ {e.path for e in second}  # type: ignore[union-attr]
            )
            note = notes[i] if notes[i] == notes[i + 1] else f"{notes[i]} + {notes[i + 1]}"
            if surviving:
                layers[i : i + 2] = [[Rotator(p) for p in surviving]]
                notes[i : i + 2] = [note]
            else:
                del layers[i : i + 2]
                del notes[i : i + 2]
            changed = True
    return layers, notes


def _extract_terminal_relabel(
    layers: list[list[OpticalElement]], notes: list[str], space: ModeSpace
) -> tuple[list[list[OpticalElement]], list[str], tuple[int, ...] | None]:
    identity = tuple(range(space.n_paths))
    relabel = list(identity)
    found = False
    while layers and layers[-1] and all(isinstance(e, Crossing) for e in layers[-1]):
        layer_map = list(identity)
        for element in layers[-1]:
            for src, dst in enumerate(element.path_map):  # type: ignore[union-attr]
                if src != dst:
                    layer_map[src] = dst
        relabel = [relabel[layer_map[p]] for p in range(space.n_paths)]
        del layers[-1]
        del notes[-1]
        found = True
    if not found or tuple(relabel) == identity:
        return layers, notes, None
    return layers, notes, tuple(relabel)


def compile_circuit(
    circuit: QuantumCircuit,
    assignment: QubitAssignment | None = None,
    options: CompileOptions | None = None,
) -> OpticalNetlist:
    """Lower a whole circuit to an optical netlist, gates in circuit order."""
    if assignment is None:
        assignment = QubitAssignment.for_circuit(circuit)
    if options is None:
        options = CompileOptions()
    if assignment.n_qubits != circuit.n_qubits:
        raise CompileError(
            f"assignment covers {assignment.n_qubits} qubit(s), circuit has {circuit.n_qubits}"
        )
    space = assignment.mode_space()
    layers: list[list[OpticalElement]] = []
    notes: list[str] = []
    for index, gate in enumerate(circuit.gates):
        gate_layers = lower_gate(gate, assignment)
        layers.extend(gate_layers)
        notes.extend([f"g{index}: {gate_text(gate)}"] * len(gate_layers))
    layers, notes = _cancel_adjacent_rotators(layers, notes)
    relabel: tuple[int, ...] | None = None
    if options.relabel_terminal_crossings:
        layers, notes, relabel = _extract_terminal_relabel(layers, notes, space)
    netlist = OpticalNetlist(space, layers, notes, relabel)
    if options.prune:
        assert options.input_support is not None
        netlist = prune_dead_paths(netlist, options.input_support)
    return netlist


def prune_dead_paths(netlist: OpticalNetlist, input_support: Iterable[int]) -> OpticalNetlist:
    """Drop elements that can never see amplitude from the given input modes.

    Liveness is tracked as a set of possibly-nonzero modes, element by
    element in netlist order over the table's footprints; a kept element
    marks its whole footprint live, and emptied layers are dropped.
    Propagation through the pruned netlist matches the original for any
    input supported on input_support.
    """
    space = netlist.space
    live = set(input_support)
    if not live:
        raise CompileError("pruning needs a nonempty input support")
    for mode in live:
        space._check_mode(mode)
    _, rows, modes = netlist.footprints()
    bounds = np.searchsorted(rows, np.arange(netlist.n_elements + 1)).tolist()
    modes = modes.tolist()
    keep = np.zeros(netlist.n_elements, bool)
    for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        # Layers are disjoint: a kept element cannot make a layer-mate look live.
        touched = modes[lo:hi]
        if not live.isdisjoint(touched):
            keep[row] = True
            live.update(touched)
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
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-10:
        raise CompileError("preparation amplitudes must be normalized")
    if assignment.is_pol(qubit):
        raise CompileError("preparation targets a location qubit")
    dec = decompose_u2(_column_completion(complex(a), complex(b)))
    return _u2_assembly([(dec, 0, assignment.path_delta(qubit))])


def prepare_path_state(amplitudes: Sequence[complex], space: ModeSpace) -> list[list[OpticalElement]]:
    """Binary splitting cascade taking the photon from path 0 to an
    arbitrary path superposition; a full cascade over n bits uses 2^n - 1
    splitters."""
    target = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if target.shape != (space.n_paths,):
        raise CompileError(f"expected {space.n_paths} path amplitudes, got {target.shape[0]}")
    if abs(np.linalg.norm(target) - 1.0) > 1e-10:
        raise CompileError("path amplitudes must be normalized")
    layers: list[list[OpticalElement]] = []
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
            parts.append((decompose_u2(_column_completion(first, second)), base, base + half))
        layers.extend(_u2_assembly(parts))
    return layers


def _doc_typed(value, kind: type, what: str):
    """A decoded JSON value of exactly this type: a bool is no int."""
    if type(value) is not kind:
        raise NetlistFormatError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


_NEWLINE_INDENT = tuple("\n" + "  " * depth for depth in range(6))


def _json_list(items: Iterable[str], depth: int) -> str:
    """Encoded items as the list json.dumps(indent=2) writes at this depth."""
    inner = _NEWLINE_INDENT[depth + 1]
    body = ("," + inner).join(items)
    return f"[{inner}{body}{_NEWLINE_INDENT[depth]}]" if body else "[]"


def _element_template(tag: str, *fields: str) -> str:
    """The %-template of an element doc inside a layer, fields in to_doc order."""
    return f'{{\n        "type": "{tag}",\n        ' + ",\n        ".join(fields) + "\n      }"


_PATHS_FIELD = '"paths": [\n          %d,\n          %d\n        ]'
_BS_TEXT = _element_template(BeamSplitter.tag, _PATHS_FIELD, '"theta": %r')
_PS_TEXT = _element_template(PhaseShifter.tag, '"path": %d', '"pol": %s', '"phi": %r')
_ROT_TEXT = _element_template(Rotator.tag, '"path": %d')
_PBS_TEXT = _element_template(PolarizingBeamSplitter.tag, _PATHS_FIELD)
_PERM_TEXT = _element_template(Crossing.tag, '"map": %s')
_POL_TEXT = tuple(map(_json_string, _POL_FILTERS))
_TEXT_BLOCK = 1 << 12


def _element_texts(netlist: OpticalNetlist) -> Iterator[str]:
    """Each element's document text, in netlist order, from the table columns
    (a block of rows at a time, so that no whole-netlist list is held)."""
    table = netlist.table
    maps = [_json_list(map(int.__repr__, path_map.tolist()), 4) for path_map in table.maps]
    for start in range(0, netlist.n_elements, _TEXT_BLOCK):
        block = (column[start:start + _TEXT_BLOCK].tolist() for column in table[:5])
        yield from (
            _BS_TEXT % (a, b, angle) if kind == BS
            else _PS_TEXT % (a, _POL_TEXT[pol], angle) if kind == PS
            else _ROT_TEXT % a if kind == ROT
            else _PBS_TEXT % (a, b) if kind == PBS
            else _PERM_TEXT % maps[a]
            for kind, a, b, angle, pol in zip(*block)
        )


def netlist_to_json(netlist: OpticalNetlist) -> str:
    """Serialize a netlist; floats keep full precision (exact round-trip).

    The text is byte for byte json.dumps(doc, indent=2) + "\n" of {version,
    n_loc, uses_pol, layers: [[element.to_doc()]], meta: {source_gates,
    output_relabel?}} over the views of netlist.layers, the tests' reference.
    It is written here because with an indent json.dumps runs its pure-Python
    encoder (two thirds of compile time at 12 qubits): one %-template per
    kind, filled from the table rows, checked ints by %d and finite floats by
    %r (float.__repr__, as json writes them), with no element object.
    """
    texts = _element_texts(netlist)
    counts = np.diff(netlist.table.offsets).tolist()
    layers = _json_list((_json_list(islice(texts, count), 2) for count in counts), 1)
    meta = '"source_gates": ' + _json_list(map(_json_string, netlist.source_gates), 2)
    if netlist.output_relabel is not None:
        meta += ',\n    "output_relabel": ' + _json_list(map(int.__repr__, netlist.output_relabel), 2)
    return (
        f'{{\n  "version": 1,\n  "n_loc": {netlist.space.n_loc:d},\n'
        f'  "uses_pol": {"true" if netlist.space.uses_pol else "false"},\n  "layers": {layers},\n'
        f'  "meta": {{\n    {meta}\n  }}\n}}\n'
    )


def netlist_from_json(text: str) -> OpticalNetlist:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistFormatError(f"invalid netlist JSON: {exc}") from None
    try:
        version, n_loc, uses_pol = doc["version"], doc["n_loc"], doc["uses_pol"]
        if type(version) is not int or version != 1:
            raise NetlistFormatError(f"unsupported netlist version {version!r}")
        if type(n_loc) is not int or n_loc < 0:
            raise NetlistFormatError(f"n_loc must be a non-negative integer, got {n_loc!r}")
        if type(uses_pol) is not bool:
            raise NetlistFormatError(f"uses_pol must be true or false, got {uses_pol!r}")
        space = ModeSpace(n_loc, uses_pol)
        meta = doc.get("meta", {})
        notes = tuple(_doc_typed(s, str, "source gate") for s in meta.get("source_gates", ()))
        return netlist_from_docs(space, doc["layers"], notes, meta.get("output_relabel"))
    except (NetlistFormatError, SpaceTooLargeError):
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise NetlistFormatError(f"invalid netlist document: {exc}") from None

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonc.circuit import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    S_GATE,
    cnot,
    cz,
    fredkin,
    h,
    parse_circuit,
    phase,
    swap,
    toffoli,
    u2,
    x,
    z,
)
from photonc.compiler import (
    _DEGENERATE,
    CompileError,
    QubitAssignment,
    U2Decomposition,
    compile_circuit,
    decompose_u2,
    device_stats,
    lower_gate,
    prepare_location_state,
    prepare_path_state,
    prune_dead_paths,
    reconstruct_u2,
)
from photonc.equivalence import basis_bridge, global_phase_distance
from photonc.optics import (
    BeamSplitter,
    Crossing,
    ModeAmplitudes,
    ModeSpace,
    NetlistError,
    NetlistFormatError,
    OpticalNetlist,
    PhaseShifter,
    PolarizingBeamSplitter,
    Rotator,
    SpaceTooLargeError,
    netlist_from_json,
    netlist_to_json,
    netlist_unitary,
    propagate,
)
from photonc.statevec import circuit_unitary
from photonc import compiler
from photonc.circuit import Gate, GateKind, QuantumCircuit, gate_text, gate_unitary
from conftest import haar_u2, random_assignment, random_circuit, random_gate
from test_kernel import reference_footprint

TELEPORT = (
    "qubits 3\npol 1\nh 0\nh 2\ncnot 0 1\ncnot 2 1\nh 0\ncnot 1 2\nh 2\ncnot 0 2\n"
)


def layers_unitary(layers, space):
    return netlist_unitary(OpticalNetlist(space, tuple(tuple(l) for l in layers)))


def embedded(gate, assignment):
    bridge = basis_bridge(assignment)
    return bridge @ gate_unitary(gate, assignment.n_qubits) @ bridge.T


class TestQubitAssignment:
    def test_default_all_paths(self):
        asg = QubitAssignment.default(3)
        assert asg.location_order == (0, 1, 2)
        assert asg.pol_qubit is None
        assert not asg.uses_pol
        assert asg.mode_space() == ModeSpace(3)

    def test_default_with_pol(self):
        asg = QubitAssignment.default(3, pol_qubit=1)
        assert asg.location_order == (0, 2)
        assert asg.mode_space() == ModeSpace(2, uses_pol=True)

    def test_for_circuit_reads_pol_directive(self):
        circ = parse_circuit(TELEPORT)
        asg = QubitAssignment.for_circuit(circ)
        assert asg.pol_qubit == 1
        assert asg.location_order == (0, 2)

    def test_path_geometry(self):
        asg = QubitAssignment(3, (2, 0), 1)
        assert asg.path_bit(2) == 0
        assert asg.path_delta(2) == 2
        assert asg.path_delta(0) == 1
        assert asg.is_pol(1)

    def test_path_bit_of_pol_qubit_raises(self):
        asg = QubitAssignment.default(2, pol_qubit=0)
        with pytest.raises(CompileError):
            asg.path_bit(0)

    def test_rejects_incomplete_cover(self):
        with pytest.raises(CompileError):
            QubitAssignment(3, (0, 1))
        with pytest.raises(CompileError):
            QubitAssignment(2, (0, 0), 1)
        with pytest.raises(CompileError):
            QubitAssignment(2, (0, 1), 1)

    @pytest.mark.parametrize("build", [
        lambda: QubitAssignment.default(10**12), lambda: QubitAssignment.default(10**12, 5),
        lambda: QubitAssignment(21, tuple(range(21))),
    ], ids=["default", "default-pol", "21-bits"])
    def test_too_many_path_bits_are_refused_before_any_qubit_list(self, build):
        with pytest.raises(SpaceTooLargeError, match=r"path bits give 2\^\d+ "):
            build()

    def test_short_cover_of_a_huge_count_is_refused_at_once(self):
        with pytest.raises(CompileError, match="every qubit exactly once"):
            QubitAssignment(10**12, (0,))

    @pytest.mark.parametrize("n_qubits, order, pol", [
        (2, (0.9, 1), None), (2, (1.0, 0), None), (2, (True, 0), None),
        (2, (0,), 1.0), (2.0, (0, 1), None),
    ])
    def test_qubits_are_ints_never_truncated(self, n_qubits, order, pol):
        # (0.9, 1) used to become (0, 1).
        with pytest.raises(CompileError, match="not an int"):
            QubitAssignment(n_qubits, order, pol)


class TestDecomposeU2:
    def test_haar_round_trips(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            u = haar_u2(rng)
            dec = decompose_u2(u)
            assert np.max(np.abs(reconstruct_u2(dec) - u)) < 1e-10
            assert 0.0 <= dec.theta <= math.pi / 2 + 1e-12
            assert dec.phi_in_a == 0.0

    def test_identity_all_zero(self):
        assert decompose_u2(np.eye(2)) == U2Decomposition(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_hadamard_canonical(self):
        dec = decompose_u2(HADAMARD)
        assert dec.phi_in_a == 0.0
        assert dec.phi_in_b == pytest.approx(-math.pi / 2)
        assert dec.theta == pytest.approx(math.pi / 4)
        assert dec.phi_out_a == 0.0
        assert dec.phi_out_b == pytest.approx(-math.pi / 2)

    def test_diagonal_branch(self):
        u = np.diag([np.exp(0.4j), np.exp(-1.1j)])
        dec = decompose_u2(u)
        assert dec.theta == 0.0
        assert dec.phi_out_a == pytest.approx(0.4)
        assert dec.phi_out_b == pytest.approx(-1.1)
        assert np.max(np.abs(reconstruct_u2(dec) - u)) < 1e-12

    def test_antidiagonal_branch(self):
        dec = decompose_u2(PAULI_X)
        assert dec.theta == pytest.approx(math.pi / 2)
        assert dec.phi_in_b == 0.0
        assert np.max(np.abs(reconstruct_u2(dec) - PAULI_X)) < 1e-12

    def test_specials_exact(self):
        for m in (HADAMARD, PAULI_X, PAULI_Z, S_GATE, 1j * np.eye(2)):
            dec = decompose_u2(m)
            assert np.max(np.abs(reconstruct_u2(dec) - m)) < 1e-12

    @given(
        part=st.sampled_from(["sin", "cos"]),
        side=st.sampled_from([-1, 1]),
        offset=st.floats(1e-4, 0.5),
        phases=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_at_the_degenerate_bound(self, part, side, offset, phases):
        # sin_part or cos_part just below (side -1) or above (+1) the bound
        # where decompose_u2 switches to its diagonal or antidiagonal branch.
        small = _DEGENERATE * (1 + side * offset)
        large = math.sqrt(1 - small * small)
        c, s = (large, small) if part == "sin" else (small, large)
        in_a, in_b, out_a, out_b = np.exp(1j * np.array(phases))
        u = np.diag([out_a, out_b]) @ np.array([[c, 1j * s], [1j * s, c]]) @ np.diag([in_a, in_b])
        measured = {"sin": abs(u[0, 1]) + abs(u[1, 0]), "cos": abs(u[0, 0]) + abs(u[1, 1])}
        assert (measured[part] / 2 < _DEGENERATE) == (side < 0)
        dec = decompose_u2(u)
        assert np.max(np.abs(reconstruct_u2(dec) - u)) < 1e-12
        assert 0.0 <= dec.theta <= math.pi / 2

    def test_rejects_non_unitary(self):
        with pytest.raises(CompileError):
            decompose_u2(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("offset", [0.5e-10, 2e-10])
    def test_unitarity_bound(self, offset):
        # max |m m^H - I| is offset: on the diagonal (a row's norm), then off it
        # (two rows' overlap). The bound is 1e-10.
        long_row = np.diag([math.sqrt(1 + offset), 1.0]) @ HADAMARD
        skewed = np.array([[1.0, 0.0], [offset, 1.0]])
        for m in (long_row, skewed):
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) == pytest.approx(offset, rel=1e-3)
            if offset < 1e-10:
                assert all(map(math.isfinite, decompose_u2(m)))
            else:
                with pytest.raises(CompileError, match="not unitary"):
                    decompose_u2(m)

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_a_non_finite_entry_is_not_unitary(self, entry):
        for row, col in itertools.product((0, 1), repeat=2):
            m = np.eye(2, dtype=complex)
            m[row, col] = entry
            with pytest.raises(CompileError, match="not unitary"):
                decompose_u2(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(CompileError):
            decompose_u2(np.eye(3))


class TestLowerGate:
    def test_every_kind_every_layout_exact(self):
        # Every ordered operand tuple, under every pol placement and both
        # location orders: each lowering branch on every slot layout.
        rng = np.random.default_rng(67)
        for n in (1, 2, 3, 4):
            pols = [None] + (list(range(n)) if n >= 2 else [])
            for pol in pols:
                order = tuple(q for q in range(n) if q != pol)
                for o in dict.fromkeys((order, order[::-1])):
                    asg = QubitAssignment(n, o, pol)
                    for kind in GateKind:
                        for qubits in itertools.permutations(range(n), kind.n_qubits):
                            params = tuple(
                                float(v) for v in rng.uniform(-np.pi, np.pi, size=kind.n_params)
                            )
                            gate = Gate(kind, qubits, params)
                            u_net = layers_unitary(lower_gate(gate, asg), asg.mode_space())
                            err = np.max(np.abs(u_net - embedded(gate, asg)))
                            assert err < 1e-12, (gate, asg, err)

    def test_h_on_location_is_three_layers(self):
        asg = QubitAssignment.default(1)
        layers = lower_gate(h(0), asg)
        assert len(layers) == 3
        assert isinstance(layers[1][0], BeamSplitter)
        assert all(isinstance(e, PhaseShifter) for e in layers[0] + layers[2])

    def test_1q_gate_replicates_over_pairs(self):
        asg = QubitAssignment.default(3)
        layers = lower_gate(h(1), asg)
        splitters = [e for e in layers[1] if isinstance(e, BeamSplitter)]
        assert sorted((e.path_a, e.path_b) for e in splitters) == [
            (0, 2),
            (1, 3),
            (4, 6),
            (5, 7),
        ]

    def test_cnot_onto_pol_is_rotator_layer(self):
        asg = QubitAssignment.default(2, pol_qubit=1)
        layers = lower_gate(cnot(0, 1), asg)
        assert len(layers) == 1
        assert [type(e) for e in layers[0]] == [Rotator]
        assert layers[0][0].path == 1

    def test_cnot_from_pol_is_pbs_plus_fixup(self):
        asg = QubitAssignment.default(2, pol_qubit=1)
        layers = lower_gate(cnot(1, 0), asg)
        assert len(layers) == 2
        assert [type(e) for e in layers[0]] == [PolarizingBeamSplitter]
        fixups = layers[1]
        assert all(isinstance(e, PhaseShifter) and e.pol_filter == "V" for e in fixups)
        assert all(e.phi == pytest.approx(-math.pi / 2) for e in fixups)

    def test_location_cnot_is_single_crossing(self):
        asg = QubitAssignment.default(2)
        layers = lower_gate(cnot(0, 1), asg)
        assert len(layers) == 1
        assert isinstance(layers[0][0], Crossing)
        assert layers[0][0].path_map == (0, 1, 3, 2)

    def test_location_swap_crossing(self):
        asg = QubitAssignment.default(2)
        layers = lower_gate(swap(0, 1), asg)
        assert layers[0][0].path_map == (0, 2, 1, 3)

    def test_cz_location_pair_has_single_pi_shifter(self):
        asg = QubitAssignment.default(2)
        layers = lower_gate(cz(0, 1), asg)
        assert len(layers) == 1
        (shifter,) = layers[0]
        assert isinstance(shifter, PhaseShifter)
        assert shifter.path == 3 and shifter.phi == pytest.approx(math.pi)

    def test_cz_with_pol_operand_filters_v(self):
        asg = QubitAssignment.default(2, pol_qubit=1)
        layers = lower_gate(cz(0, 1), asg)
        (shifter,) = layers[0]
        assert shifter.pol_filter == "V"
        assert shifter.path == 1

    def test_phase_on_pol(self):
        asg = QubitAssignment.default(2, pol_qubit=1)
        layers = lower_gate(phase(1, 0.7), asg)
        assert all(e.pol_filter == "V" and e.phi == pytest.approx(0.7) for e in layers[0])
        assert len(layers[0]) == 2

    def test_full_turn_phase_on_pol_vanishes(self):
        asg = QubitAssignment.default(2, pol_qubit=1)
        assert lower_gate(phase(1, 2 * math.pi), asg) == []

    def test_x_on_pol_rotates_every_path(self):
        asg = QubitAssignment.default(3, pol_qubit=2)
        layers = lower_gate(x(2), asg)
        assert sorted(e.path for e in layers[0]) == [0, 1, 2, 3]

    def test_h_on_pol_uses_borrowed_location(self):
        asg = QubitAssignment.default(2, pol_qubit=1)
        layers = lower_gate(h(1), asg)
        # swap on, three H layers, swap off; each swap is rot/pbs+fix/rot
        assert len(layers) == 11
        u = layers_unitary(layers, asg.mode_space())
        assert np.max(np.abs(u - embedded(h(1), asg))) < 1e-12

    def test_h_on_pol_without_location_raises(self):
        asg = QubitAssignment(1, (), 0)
        with pytest.raises(CompileError, match="location"):
            lower_gate(h(0), asg)
        with pytest.raises(CompileError):
            lower_gate(u2(0, 0.3, 0.1, 0.2, 0.0), asg)

    def test_z_on_pol_without_location_fine(self):
        asg = QubitAssignment(1, (), 0)
        layers = lower_gate(z(0), asg)
        u = layers_unitary(layers, asg.mode_space())
        assert np.max(np.abs(u - np.diag([1, -1]))) < 1e-15

    def test_toffoli_onto_pol(self):
        asg = QubitAssignment.default(3, pol_qubit=2)
        layers = lower_gate(toffoli(0, 1, 2), asg)
        assert len(layers) == 1
        assert [e.path for e in layers[0]] == [3]

    def test_toffoli_pol_control_restricts_pbs(self):
        asg = QubitAssignment.default(3, pol_qubit=0)
        layers = lower_gate(toffoli(0, 1, 2), asg)
        (pbs,) = layers[0]
        assert isinstance(pbs, PolarizingBeamSplitter)
        assert (pbs.path_a, pbs.path_b) == (2, 3)

    def test_fredkin_location_crossing(self):
        asg = QubitAssignment.default(3)
        layers = lower_gate(fredkin(0, 1, 2), asg)
        assert layers[0][0].path_map == (0, 1, 2, 3, 4, 6, 5, 7)

    def test_validates_gate_range(self):
        asg = QubitAssignment.default(2)
        with pytest.raises(Exception):
            lower_gate(cnot(0, 5), asg)


class TestCompileCircuit:
    def test_random_circuits_match_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            asg = random_assignment(rng, n)
            circ = random_circuit(rng, n, int(rng.integers(0, 11)))
            net = compile_circuit(circ, asg)
            bridge = basis_bridge(asg)
            reference = bridge @ circuit_unitary(circ) @ bridge.T
            report = global_phase_distance(reference, netlist_unitary(net))
            assert report.distance < 1e-10, (circ, asg)

    def test_assignment_defaults_to_circuit(self):
        circ = parse_circuit("qubits 2\npol 1\nh 0\n")
        net = compile_circuit(circ)
        assert net.space.uses_pol

    def test_assignment_size_mismatch(self):
        circ = parse_circuit("qubits 2\nh 0\n")
        with pytest.raises(CompileError):
            compile_circuit(circ, QubitAssignment.default(3))

    def test_source_gates_annotate_layers(self):
        circ = parse_circuit("qubits 2\ncnot 0 1\nh 0\n")
        net = compile_circuit(circ)
        assert net.source_gates[0] == "g0: cnot 0 1"
        assert net.source_gates[-1] == "g1: h 0"
        assert len(net.source_gates) == len(net.layers)

    def test_rotator_pairs_cancel_completely(self):
        circ = parse_circuit("qubits 2\npol 1\ncnot 0 1\ncnot 0 1\n")
        net = compile_circuit(circ, QubitAssignment.default(2, pol_qubit=1))
        assert net.layers == ()

    def test_rotator_cancellation_keeps_difference(self):
        # cnot 0->pol then x on pol: rotators on path 1 then both paths,
        # leaving a single rotator on path 0.
        circ = parse_circuit("qubits 2\npol 1\ncnot 0 1\nx 1\n")
        net = compile_circuit(circ, QubitAssignment.default(2, pol_qubit=1))
        assert len(net.layers) == 1
        (rot,) = net.layers[0]
        assert isinstance(rot, Rotator) and rot.path == 0
        bridge = basis_bridge(QubitAssignment.default(2, pol_qubit=1))
        reference = bridge @ circuit_unitary(circ) @ bridge.T
        assert global_phase_distance(reference, netlist_unitary(net)).passed


@st.composite
def rotator_rich_circuits(draw):
    """A polarized circuit where most gates lower to one rotator layer (cnot
    loc->pol, x pol, toffoli loc,loc->pol), among gates that split runs of
    them or end in rotators (cnot pol->loc, z pol, h loc, h pol, swap
    loc/pol), and its assignment."""
    n = draw(st.integers(2, 4))
    pol = draw(st.integers(0, n - 1))
    order = tuple(draw(st.permutations([q for q in range(n) if q != pol])))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        a, b = draw(st.permutations(order))[:2] if len(order) > 1 else (order[0], None)
        candidates = [cnot(a, pol), cnot(a, pol), x(pol), x(pol), cnot(pol, a), z(pol), h(a),
                      h(pol), swap(a, pol)]
        if b is not None:
            candidates += [toffoli(a, b, pol)] * 2
        gates.append(draw(st.sampled_from(candidates)))
    return QuantumCircuit(n, tuple(gates)), QubitAssignment(n, order, pol)


@given(rotator_rich_circuits())
@settings(max_examples=200, deadline=None)
def test_rotator_cancellation_keeps_layers_disjoint_and_unitary(case):
    circuit, asg = case
    net = compile_circuit(circuit, asg)
    for layer in net.layers:
        modes = [mode for element in layer for mode in reference_footprint(element, net.space)]
        assert len(modes) == len(set(modes))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiler, "_cancel_adjacent_rotators", lambda layers, notes: (layers, notes))
        uncancelled = compile_circuit(circuit, asg)
    assert net.n_layers <= uncancelled.n_layers
    assert np.max(np.abs(netlist_unitary(net) - netlist_unitary(uncancelled))) < 1e-12


REPEAT_ANGLES = (0.0, -0.0, math.pi, -math.pi / 2, 0.25)


@st.composite
def repetitive_circuits(draw):
    """A circuit over a pool of a few gates, most of them repeated, with
    phase and u2 angles among 0.0 and -0.0; an assignment; and options."""
    n = draw(st.integers(1, 4))
    pol = draw(st.none() | st.integers(0, n - 1)) if n >= 2 else None
    order = tuple(draw(st.permutations([q for q in range(n) if q != pol])))
    kinds = [kind for kind in GateKind if kind.n_qubits <= n]
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(n)))[:kind.n_qubits]
        pool.append(Gate(kind, qubits, draw(st.lists(st.sampled_from(REPEAT_ANGLES),
                                                     min_size=kind.n_params,
                                                     max_size=kind.n_params))))
    gates = draw(st.lists(st.sampled_from(pool), max_size=16))
    options = {"input_support": draw(st.sampled_from([None, frozenset({0})])),
               "relabel_terminal_crossings": draw(st.booleans())}
    return QuantumCircuit(n, tuple(gates)), QubitAssignment(n, order, pol), options


def compiled_gate_by_gate(circuit, assignment, input_support, relabel_terminal_crossings):
    """compile_circuit's netlist with every gate lowered on its own, each with
    a fresh memo of path arrays."""
    layers, notes = [], []
    for index, gate in enumerate(circuit.gates):
        gate_layers = compiler._lower_columns(gate, compiler._Shapes(assignment))
        layers += gate_layers
        notes += [f"g{index}: {gate_text(gate)}"] * len(gate_layers)
    layers, notes = compiler._cancel_adjacent_rotators(layers, notes)
    space = assignment.mode_space()
    relabel = (compiler._extract_terminal_relabel(layers, notes, space)
               if relabel_terminal_crossings else None)
    net = compiler._netlist(space, compiler._column_table(layers, space.n_paths), notes, relabel)
    return net if input_support is None else prune_dead_paths(net, input_support)


@given(repetitive_circuits())
@settings(max_examples=300, deadline=None)
def test_repeated_gates_compile_as_if_lowered_alone(case):
    circuit, asg, options = case
    try:
        reference = compiled_gate_by_gate(circuit, asg, **options)
    except CompileError:  # h or u2 on the polarization qubit with no location qubit
        with pytest.raises(CompileError):
            compile_circuit(circuit, asg, **options)
        return
    net = compile_circuit(circuit, asg, **options)
    assert net == reference
    assert netlist_to_json(net) == netlist_to_json(reference)  # angle bits: -0.0 is not 0.0


def test_each_distinct_gate_text_lowers_once_per_call(monkeypatch):
    circ = parse_circuit("qubits 3\npol 2\nh 0\ncnot 0 1\nh 0\nphase 1 0.0\nphase 1 -0.0\n"
                         "cnot 0 1\nh 0\ncnot 0 2\nx 2\ncnot 0 2\n")
    distinct = ["h 0", "cnot 0 1", "phase 1 0.0", "phase 1 -0.0", "cnot 0 2", "x 2"]
    # Two assignments of different widths, compiled in alternation: a memo kept
    # from an earlier call would hand over its arrays, or stale ones.
    assignments = [QubitAssignment.for_circuit(circ), QubitAssignment(3, (2, 0, 1))]
    references = [compiled_gate_by_gate(circ, asg, None, True) for asg in assignments]
    calls = []  # per compile_circuit call: the _Shapes memos seen, and (text, columns) lowered
    lower = compiler._lower_columns

    def recording(gate, shapes):
        calls[-1][0].add(shapes)
        calls[-1][1].append((gate_text(gate), lower(gate, shapes)))
        return calls[-1][1][-1][1]

    monkeypatch.setattr(compiler, "_lower_columns", recording)
    for asg, reference in zip(assignments * 2, references * 2):
        calls.append((set(), []))
        net = compile_circuit(circ, asg)
        assert net == reference
        assert netlist_to_json(net) == netlist_to_json(reference)
    assert [[text for text, _ in lowered] for _, lowered in calls] == [distinct] * 4
    memos = [memo for seen, _ in calls for memo in seen]
    assert len(memos) == len(set(map(id, memos))) == len(calls)  # one memo per call
    per_call = [[array for _, columns in lowered for column in columns for array in column
                 if isinstance(array, np.ndarray)]
                + [array for arrays in next(iter(seen))._built.values() for array in arrays]
                for seen, lowered in calls]
    assert all(per_call)
    assert not any(array.flags.writeable for arrays in per_call for array in arrays)
    owners = {}
    for call, arrays in enumerate(per_call):
        for array in arrays:  # each object is held by calls, so its id is not reused
            assert owners.setdefault(id(array), call) == call, "an array outlived its call"


def test_separate_equal_gates_each_lower_with_their_own_text():
    # Equal but separate Gate objects, as a Python-built circuit holds them.
    # 0.0 == -0.0, so a memo keyed by Gate equality would give the second u2
    # the first one's columns and note.
    gates = (h(0), h(0), phase(1, 0.0), phase(1, -0.0),
             u2(0, 0.5, 0.0, 0.25, 0.0), u2(0, 0.5, -0.0, 0.25, 0.0))
    circ = QuantumCircuit(2, gates)
    assert len(set(map(id, circ.gates))) == len(gates) and gates[0] == gates[1]
    asg = QubitAssignment.for_circuit(circ)
    net = compile_circuit(circ, asg)
    reference = compiled_gate_by_gate(circ, asg, None, True)
    assert net == reference
    assert netlist_to_json(net) == netlist_to_json(reference)
    for note in net.source_gates:
        index, text = note.split(": ")
        assert text == gate_text(gates[int(index[1:])])
    assert {note.split(":")[0] for note in net.source_gates} == {"g0", "g1", "g4", "g5"}


class TestTerminalRelabel:
    def test_trailing_crossing_becomes_relabel(self):
        circ = parse_circuit("qubits 2\nh 0\ncnot 0 1\n")
        net = compile_circuit(circ)
        assert net.output_relabel == (0, 1, 3, 2)
        assert device_stats(net).crossings == 0

    def test_no_relabel_option_keeps_crossing(self):
        circ = parse_circuit("qubits 2\nh 0\ncnot 0 1\n")
        net = compile_circuit(circ, relabel_terminal_crossings=False)
        assert net.output_relabel is None
        assert device_stats(net).crossings == 1

    def test_both_forms_equivalent(self):
        circ = parse_circuit("qubits 2\nh 0\ncnot 0 1\nswap 0 1\n")
        a = compile_circuit(circ)
        b = compile_circuit(circ, relabel_terminal_crossings=False)
        assert np.max(np.abs(netlist_unitary(a) - netlist_unitary(b))) < 1e-15

    def test_consecutive_crossings_compose(self):
        circ = parse_circuit("qubits 2\ncnot 0 1\nswap 0 1\n")
        net = compile_circuit(circ)
        assert net.layers == ()
        # cnot maps (0,1,3,2); swap then maps (0,2,1,3): composite sends
        # path 1 -> 2, path 2 -> 3... checked against the dense unitary.
        reference = basis_bridge(QubitAssignment.default(2))
        ref_u = reference @ circuit_unitary(circ) @ reference.T
        assert np.max(np.abs(netlist_unitary(net) - ref_u)) < 1e-15

    def test_identity_composition_drops_relabel(self):
        circ = parse_circuit("qubits 2\nswap 0 1\nswap 0 1\n")
        net = compile_circuit(circ)
        assert net.layers == ()
        assert net.output_relabel is None


class TestTeleportNetlist:
    def setup_method(self):
        self.circuit = parse_circuit(TELEPORT)
        self.assignment = QubitAssignment.for_circuit(self.circuit)
        self.netlist = compile_circuit(self.circuit, self.assignment)

    def test_unpruned_stats(self):
        stats = device_stats(self.netlist)
        assert stats.beam_splitters == 8
        assert stats.polarizing_beam_splitters == 2
        assert stats.splitting_elements == 10
        assert stats.phase_shifters == 20
        assert stats.rotators == 2
        assert stats.crossings == 0
        assert stats.n_paths == 4
        assert stats.n_modes == 8

    def test_rotators_land_on_middle_paths(self):
        paths = sorted(e.path for e in self.netlist.elements() if isinstance(e, Rotator))
        assert paths == [1, 2]

    def test_output_relabel(self):
        assert self.netlist.output_relabel == (0, 1, 3, 2)

    def test_matches_oracle_exactly(self):
        bridge = basis_bridge(self.assignment)
        reference = bridge @ circuit_unitary(self.circuit) @ bridge.T
        report = global_phase_distance(reference, netlist_unitary(self.netlist))
        assert report.distance < 1e-12

    def test_closed_form(self):
        a, b = 0.6, 0.8j
        vec = np.zeros(8, dtype=complex)
        vec[0], vec[4] = a, b
        out = propagate(self.netlist, ModeAmplitudes(self.netlist.space, vec)).amplitudes
        expected = 0.5 * np.array([a, a, b, b, a, a, b, b])
        assert np.max(np.abs(out - expected)) < 1e-12


class TestPrune:
    def setup_method(self):
        self.circuit = parse_circuit(TELEPORT)
        self.assignment = QubitAssignment.for_circuit(self.circuit)
        self.netlist = compile_circuit(self.circuit, self.assignment)
        self.pruned = prune_dead_paths(self.netlist, [0])

    def test_teleport_splitting_drops_to_nine(self):
        stats = device_stats(self.pruned)
        assert stats.splitting_elements == 9
        assert stats.beam_splitters == 7
        assert stats.polarizing_beam_splitters == 2

    def test_six_elements_removed(self):
        assert self.netlist.n_elements - self.pruned.n_elements == 6
        assert device_stats(self.pruned).phase_shifters == 15

    def test_supported_input_unchanged(self):
        space = self.netlist.space
        vin = ModeAmplitudes.basis(space, 0)
        full = propagate(self.netlist, vin).amplitudes
        pruned = propagate(self.pruned, vin).amplitudes
        assert np.max(np.abs(full - pruned)) < 1e-12

    def test_random_circuits_safe_on_support(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            asg = random_assignment(rng, n)
            circ = random_circuit(rng, n, int(rng.integers(1, 9)))
            net = compile_circuit(circ, asg)
            space = net.space
            mode = int(rng.integers(space.dim))
            pruned = prune_dead_paths(net, [mode])
            vin = ModeAmplitudes.basis(space, mode)
            full = propagate(net, vin).amplitudes
            cut = propagate(pruned, vin).amplitudes
            assert np.max(np.abs(full - cut)) < 1e-12

    def test_full_support_removes_nothing(self):
        full = prune_dead_paths(self.netlist, range(8))
        assert full.n_elements == self.netlist.n_elements

    def test_empty_support_rejected(self):
        with pytest.raises(CompileError):
            prune_dead_paths(self.netlist, [])

    def test_bad_mode_rejected(self):
        with pytest.raises(Exception):
            prune_dead_paths(self.netlist, [99])

    @pytest.mark.parametrize("mode", [1.9, 1.0, True])
    def test_modes_are_ints_never_truncated(self, mode):
        # [1.9] used to prune for mode 1.
        with pytest.raises(NetlistError, match="not an int"):
            prune_dead_paths(self.netlist, [mode])
        with pytest.raises(NetlistError, match="not an int"):
            compile_circuit(self.circuit, self.assignment, input_support={mode})

    def test_compile_option_prunes(self):
        net = compile_circuit(self.circuit, self.assignment, input_support={0})
        assert net == self.pruned

    def test_prune_option_requires_support(self):
        with pytest.raises(CompileError, match="nonempty input support"):
            compile_circuit(self.circuit, self.assignment, input_support=frozenset())

    def test_empty_layers_dropped(self):
        assert all(layer for layer in self.pruned.layers)
        assert len(self.pruned.source_gates) == len(self.pruned.layers)


class TestPrepareLocationState:
    def test_identity_input_emits_nothing(self):
        asg = QubitAssignment.default(2)
        assert prepare_location_state(1.0, 0.0, 0, asg) == []

    def test_balanced_split_is_hadamard_assembly(self):
        asg = QubitAssignment.default(1)
        layers = prepare_location_state(1 / math.sqrt(2), 1 / math.sqrt(2), 0, asg)
        u = layers_unitary(layers, asg.mode_space())
        assert np.max(np.abs(u - HADAMARD)) < 1e-12

    def test_random_amplitudes_exact_column(self):
        rng = np.random.default_rng(79)
        asg = QubitAssignment(3, (0, 2), 1)
        space = asg.mode_space()
        for _ in range(20):
            vec = rng.normal(size=2) + 1j * rng.normal(size=2)
            vec /= np.linalg.norm(vec)
            layers = prepare_location_state(vec[0], vec[1], 2, asg)
            col = layers_unitary(layers, space)[:, 0]
            expected = np.zeros(space.dim, dtype=complex)
            expected[0] = vec[0]
            expected[2 * asg.path_delta(2)] = vec[1]
            assert np.max(np.abs(col - expected)) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(CompileError):
            prepare_location_state(1.0, 1.0, 0, QubitAssignment.default(1))

    def test_rejects_pol_target(self):
        with pytest.raises(CompileError):
            prepare_location_state(1.0, 0.0, 1, QubitAssignment.default(2, pol_qubit=1))


class TestPreparePathState:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_cascade_splitter_count(self, n):
        rng = np.random.default_rng(83 + n)
        space = ModeSpace(n)
        amps = rng.normal(size=space.n_paths) + 1j * rng.normal(size=space.n_paths)
        amps /= np.linalg.norm(amps)
        layers = prepare_path_state(amps, space)
        splitters = sum(isinstance(e, BeamSplitter) for layer in layers for e in layer)
        assert splitters == 2**n - 1
        col = layers_unitary(layers, space)[:, 0]
        assert np.max(np.abs(col - amps)) < 1e-12

    def test_sparse_subtrees_skip_hardware(self):
        space = ModeSpace(3)
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[1] = 1 / math.sqrt(2), 1j / math.sqrt(2)
        layers = prepare_path_state(amps, space)
        splitters = sum(isinstance(e, BeamSplitter) for layer in layers for e in layer)
        assert splitters == 1

    def test_right_leaning_state_routes_through(self):
        space = ModeSpace(3)
        amps = np.zeros(8, dtype=complex)
        amps[6], amps[7] = 0.6, 0.8j
        layers = prepare_path_state(amps, space)
        splitters = sum(isinstance(e, BeamSplitter) for layer in layers for e in layer)
        assert splitters == 3
        col = layers_unitary(layers, space)[:, 0]
        assert np.max(np.abs(col - amps)) < 1e-12

    def test_polarized_space_uses_paths_only(self):
        space = ModeSpace(2, uses_pol=True)
        amps = np.full(4, 0.5)
        layers = prepare_path_state(amps, space)
        col = layers_unitary(layers, space)[:, 0]
        expected = np.zeros(8, dtype=complex)
        expected[[0, 2, 4, 6]] = 0.5
        assert np.max(np.abs(col - expected)) < 1e-12

    def test_rejects_wrong_length(self):
        with pytest.raises(CompileError):
            prepare_path_state([1.0, 0.0], ModeSpace(2))

    def test_rejects_unnormalized(self):
        with pytest.raises(CompileError):
            prepare_path_state([1.0, 1.0], ModeSpace(1))


HEAD = '{"version": 1, "n_loc": 1, "uses_pol": true, "layers": '


class TestNetlistJson:
    def make(self):
        circ = parse_circuit(TELEPORT)
        return compile_circuit(circ, QubitAssignment.for_circuit(circ))

    def test_round_trip_equality(self):
        net = self.make()
        assert netlist_from_json(netlist_to_json(net)) == net

    def test_round_trip_bitwise_unitary(self):
        net = self.make()
        back = netlist_from_json(netlist_to_json(net))
        assert np.array_equal(netlist_unitary(back), netlist_unitary(net))

    def test_relabel_persists(self):
        net = self.make()
        doc = json.loads(netlist_to_json(net))
        assert doc["meta"]["output_relabel"] == [0, 1, 3, 2]
        assert doc["version"] == 1
        assert doc["uses_pol"] is True
        assert doc["n_loc"] == 2

    def test_source_gates_persist(self):
        net = self.make()
        back = netlist_from_json(netlist_to_json(net))
        assert back.source_gates == net.source_gates

    def test_every_element_type_round_trips(self):
        space = ModeSpace(2, uses_pol=True)
        net = OpticalNetlist(
            space,
            (
                (BeamSplitter(0, 1, 0.3), Crossing((0, 1, 3, 2))),
                (PhaseShifter(0, -0.25, "V"), Rotator(1), PolarizingBeamSplitter(2, 3)),
            ),
        )
        assert netlist_from_json(netlist_to_json(net)) == net

    def test_library_built_netlist_round_trips(self):
        # Int and NumPy angles are written as json writes them and load as
        # equal floats; a bool angle never gets this far (refused at build).
        space = ModeSpace(1, uses_pol=True)
        net = OpticalNetlist(space, (
            (BeamSplitter(0, 1, 1),),
            (PhaseShifter(0, np.float64(-0.5), "H"), PhaseShifter(1, 0)),
        ))
        assert netlist_from_json(netlist_to_json(net)) == net
        with pytest.raises(NetlistError, match="finite number"):
            OpticalNetlist(space, ((BeamSplitter(0, 1, True),),))

    @pytest.mark.parametrize(
        "text",
        [
            "{nope",
            '{"version": 2}',
            '{"version": 1, "n_loc": 1, "uses_pol": false}',
            '{"version": 1, "n_loc": 1, "uses_pol": false, "layers": [[{"type": "??"}]]}',
            '{"version": 1, "n_loc": 1, "uses_pol": false, "layers": [[{"type": "bs"}]]}',
            '{"version": 1, "n_loc": 1, "uses_pol": false, "layers": [[1]]}',
            # element fields are typed, never coerced
            f'{HEAD}[[{{"type": "ps", "path": 1.0, "pol": "both", "phi": 0.5}}]]}}',
            f'{HEAD}[[{{"type": "ps", "path": true, "pol": "both", "phi": 0.5}}]]}}',
            f'{HEAD}[[{{"type": "ps", "path": 0, "pol": 1, "phi": 0.5}}]]}}',
            f'{HEAD}[[{{"type": "ps", "path": 0, "pol": "both", "phi": true}}]]}}',
            f'{HEAD}[[{{"type": "ps", "path": 0, "pol": "both", "phi": NaN}}]]}}',
            f'{HEAD}[[{{"type": "ps", "path": 0, "pol": "both", "phi": "0.5"}}]]}}',
            f'{HEAD}[[{{"type": "ps", "path": 0, "pol": "both", "phi": 1{"0" * 400}}}]]}}',
            f'{HEAD}[[{{"type": "bs", "paths": [0, 1.0], "theta": 0.5}}]]}}',
            f'{HEAD}[[{{"type": "bs", "paths": [0, 1], "theta": Infinity}}]]}}',
            f'{HEAD}[[{{"type": "bs", "paths": [0, 1], "theta": false}}]]}}',
            f'{HEAD}[[{{"type": "bs", "paths": [0, 1, 1], "theta": 0.5}}]]}}',
            f'{HEAD}[[{{"type": "pbs", "paths": [0]}}]]}}',
            f'{HEAD}[[{{"type": "pbs", "paths": [false, 1]}}]]}}',
            f'{HEAD}[[{{"type": "rot", "path": 0.5}}]]}}',
            f'{HEAD}[[{{"type": "perm", "map": [1, 0.0]}}]]}}',
            f'{HEAD}[[{{"type": "perm", "map": [true, 0]}}]]}}',
            f'{HEAD}[[{{"type": "perm", "map": "10"}}]]}}',
            # so are the meta annotations
            f'{HEAD}[], "meta": {{"output_relabel": [1.0, 0]}}}}',
            f'{HEAD}[], "meta": {{"output_relabel": [1, false]}}}}',
            f'{HEAD}[[{{"type": "rot", "path": 0}}]], "meta": {{"source_gates": [3]}}}}',
            f'{HEAD}[], "meta": []}}',
        ],
    )
    def test_bad_documents_rejected(self, text):
        with pytest.raises(NetlistFormatError):
            netlist_from_json(text)

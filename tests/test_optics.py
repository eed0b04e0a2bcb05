import json
import math

import numpy as np
import pytest

from photonc import optics
from photonc.circuit import HADAMARD, PAULI_X, parse_circuit
from photonc.compiler import compile_circuit, prune_dead_paths
from photonc.optics import (
    BS,
    MAX_PATH_BITS,
    PERM,
    POL_BOTH,
    POL_H,
    POL_V,
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
    element_modes,
    element_unitary,
    netlist_from_json,
    netlist_to_json,
    netlist_unitary,
    propagate,
)


def random_elements(rng, space):
    """One legal element of each applicable kind on a random footprint."""
    out = []
    if space.n_paths >= 2:
        a, b = (int(p) for p in rng.choice(space.n_paths, size=2, replace=False))
        out.append(BeamSplitter(a, b, float(rng.uniform(0, np.pi / 2))))
        if space.uses_pol:
            out.append(PolarizingBeamSplitter(a, b))
        out.append(Crossing(tuple(int(p) for p in rng.permutation(space.n_paths))))
    path = int(rng.integers(space.n_paths))
    pol = POL_BOTH if not space.uses_pol else (POL_H, POL_V, POL_BOTH)[int(rng.integers(3))]
    out.append(PhaseShifter(path, float(rng.uniform(-np.pi, np.pi)), pol))
    if space.uses_pol:
        out.append(Rotator(path))
    return out


class TestModeSpace:
    def test_plain_space(self):
        space = ModeSpace(2)
        assert space.n_paths == 4
        assert space.dim == 4
        assert space.mode_of("10") == 2
        assert space.mode_label(2) == "10"

    def test_polarized_space(self):
        space = ModeSpace(2, uses_pol=True)
        assert space.n_paths == 4
        assert space.dim == 8
        assert space.mode_of("10", POL_V) == 5
        assert space.mode_label(5) == "10,V"

    def test_pol_only_space(self):
        space = ModeSpace(0, uses_pol=True)
        assert space.n_paths == 1
        assert space.dim == 2
        assert space.mode_of("", POL_H) == 0

    @pytest.mark.parametrize("n_loc", [0, 1, 3])
    @pytest.mark.parametrize("uses_pol", [False, True])
    def test_mode_labels_in_one_pass(self, n_loc, uses_pol):
        space = ModeSpace(n_loc, uses_pol)
        assert optics._mode_labels(space) == [space.mode_label(m) for m in range(space.dim)]

    def test_mode_of_bit_sequence(self):
        space = ModeSpace(3)
        assert space.mode_of([1, 0, 1]) == 5

    def test_pol_required_iff_polarized(self):
        with pytest.raises(NetlistError):
            ModeSpace(1, uses_pol=True).mode_of("0")
        with pytest.raises(NetlistError):
            ModeSpace(1).mode_of("0", POL_H)

    def test_bad_bits(self):
        with pytest.raises(NetlistError):
            ModeSpace(2).mode_of("1")
        with pytest.raises(NetlistError):
            ModeSpace(2).mode_of("102")

    @pytest.mark.parametrize("bits", [
        [1.9, 0], [1.0, 0], [True, False], [1, True], [np.int64(1), 0], [10], [2, 0], "1x", "x1",
        5, None, 1.5,
    ], ids=repr)
    def test_mode_of_refuses_non_bits(self, bits):
        # [1.9, 0] and [True, False] were mode 2, [10] was too, "1x" raised a
        # bare ValueError from int("x"), and 5, None and 1.5 a bare TypeError.
        with pytest.raises(NetlistError, match="do not fit"):
            ModeSpace(2).mode_of(bits)


    @pytest.mark.parametrize("n_loc, uses_pol", [
        (2.0, False), (True, False), ("2", False), (2, "no"), (2, 1), (2, None),
    ])
    def test_header_types_refused(self, n_loc, uses_pol):
        # ModeSpace(2, "no") was a polarized space and ModeSpace(2.0) failed
        # later with a TypeError.
        with pytest.raises(NetlistError, match="is not a"):
            ModeSpace(n_loc, uses_pol)

    @pytest.mark.parametrize("mode", [1.5, 1.0, True, np.int64(1)])
    def test_modes_are_ints_never_truncated(self, mode):
        with pytest.raises(NetlistError, match="not an int"):
            ModeAmplitudes.basis(ModeSpace(1), mode)
        with pytest.raises(NetlistError, match="not an int"):
            ModeSpace(1).mode_label(mode)

    def test_negative_count_refused(self):
        with pytest.raises(NetlistError, match="negative location qubit count"):
            ModeSpace(-1)

    def test_size_cap(self):
        # Builds no array: a ModeSpace holds only its two header fields.
        assert MAX_PATH_BITS >= 14
        assert ModeSpace(MAX_PATH_BITS, uses_pol=True).n_paths == 1 << MAX_PATH_BITS
        with pytest.raises(SpaceTooLargeError, match=f"2\\^{MAX_PATH_BITS + 1} = "):
            ModeSpace(MAX_PATH_BITS + 1)
        assert issubclass(SpaceTooLargeError, NetlistError)


class TestElementUnitaries:
    def test_beam_splitter_convention(self):
        u = element_unitary(BeamSplitter(0, 1, 0.3), ModeSpace(1))
        c, s = math.cos(0.3), math.sin(0.3)
        assert np.max(np.abs(u - np.array([[c, 1j * s], [1j * s, c]]))) < 1e-15

    def test_balanced_splitter_squares_to_ix(self):
        u = element_unitary(BeamSplitter(0, 1, math.pi / 4), ModeSpace(1))
        assert np.max(np.abs(u @ u - 1j * PAULI_X)) < 1e-12

    def test_hadamard_assembly(self):
        # -pi/2 shifters on the second path around a balanced splitter give
        # the exact real Hadamard, global phase included.
        space = ModeSpace(1)
        shifter = element_unitary(PhaseShifter(1, -math.pi / 2), space)
        splitter = element_unitary(BeamSplitter(0, 1, math.pi / 4), space)
        assert np.max(np.abs(shifter @ splitter @ shifter - HADAMARD)) < 1e-12

    def test_beam_splitter_spans_both_pols(self):
        space = ModeSpace(1, uses_pol=True)
        u = element_unitary(BeamSplitter(0, 1, 0.3), space)
        c, s = math.cos(0.3), math.sin(0.3)
        assert u[0, 2] == pytest.approx(1j * s)
        assert u[1, 3] == pytest.approx(1j * s)
        assert u[0, 1] == 0.0

    def test_pbs_action(self):
        space = ModeSpace(1, uses_pol=True)
        u = element_unitary(PolarizingBeamSplitter(0, 1), space)
        assert u[0, 0] == 1.0 and u[2, 2] == 1.0
        assert u[3, 1] == 1j and u[1, 3] == 1j
        assert u[1, 1] == 0.0

    def test_rotator_flips_pol(self):
        space = ModeSpace(1, uses_pol=True)
        u = element_unitary(Rotator(1), space)
        assert u[2, 3] == 1.0 and u[3, 2] == 1.0
        assert u[0, 0] == 1.0

    def test_phase_filters(self):
        space = ModeSpace(1, uses_pol=True)
        u_v = element_unitary(PhaseShifter(0, math.pi / 2, POL_V), space)
        assert u_v[0, 0] == 1.0
        assert u_v[1, 1] == pytest.approx(1j)
        u_h = element_unitary(PhaseShifter(0, math.pi, POL_H), space)
        assert u_h[0, 0] == pytest.approx(-1.0)
        assert u_h[1, 1] == 1.0

    def test_crossing_moves_both_pols(self):
        space = ModeSpace(1, uses_pol=True)
        u = element_unitary(Crossing((1, 0)), space)
        assert u[2, 0] == 1.0 and u[3, 1] == 1.0

    def test_all_elements_unitary(self):
        rng = np.random.default_rng(53)
        for uses_pol in (False, True):
            space = ModeSpace(2, uses_pol)
            for element in random_elements(rng, space):
                u = element_unitary(element, space)
                assert np.max(np.abs(u @ u.conj().T - np.eye(space.dim))) < 1e-12


class TestElementValidation:
    def test_same_path_splitter(self):
        with pytest.raises(NetlistError):
            element_unitary(BeamSplitter(1, 1), ModeSpace(1))

    def test_pol_elements_need_pol_space(self):
        with pytest.raises(NetlistError):
            element_unitary(Rotator(0), ModeSpace(1))
        with pytest.raises(NetlistError):
            element_unitary(PolarizingBeamSplitter(0, 1), ModeSpace(1))
        with pytest.raises(NetlistError):
            element_unitary(PhaseShifter(0, 0.1, POL_V), ModeSpace(1))

    def test_bad_crossing_map(self):
        with pytest.raises(NetlistError):
            element_unitary(Crossing((0, 0)), ModeSpace(1))
        with pytest.raises(NetlistError):
            element_unitary(Crossing((0,)), ModeSpace(1))

    def test_bad_pol_filter(self):
        with pytest.raises(NetlistError):
            element_unitary(PhaseShifter(0, 0.1, "X"), ModeSpace(1, True))

    @pytest.mark.parametrize("element", [
        BeamSplitter(0, 1.0), BeamSplitter(True, 0), PolarizingBeamSplitter(0.0, 1),
        PhaseShifter(1.0, 0.1), Rotator(False), Crossing((1.9, 0)), Crossing((True, False)),
    ])
    def test_paths_are_ints_never_truncated(self, element):
        with pytest.raises(NetlistError, match="not an int"):
            element_unitary(element, ModeSpace(1, uses_pol=True))

    @pytest.mark.parametrize("element", [
        BeamSplitter(0, 1, True), BeamSplitter(0, 1, False), PhaseShifter(0, True),
    ])
    def test_bool_angles_refused(self, element):
        # json would write the angle as true, which the loader refuses.
        with pytest.raises(NetlistError, match="finite number"):
            element_unitary(element, ModeSpace(1))
        with pytest.raises(NetlistError, match="finite number"):
            OpticalNetlist(ModeSpace(1), ((element,),))

    def test_crossing_keeps_its_map(self):
        assert Crossing([1.9, 0]).path_map == (1.9, 0)

    def test_path_out_of_range(self):
        with pytest.raises(NetlistError):
            element_unitary(BeamSplitter(0, 5), ModeSpace(1))


class TestElementModes:
    def test_footprints(self):
        space = ModeSpace(2, uses_pol=True)
        assert element_modes(BeamSplitter(0, 2), space) == frozenset({0, 1, 4, 5})
        assert element_modes(PolarizingBeamSplitter(1, 3), space) == frozenset({2, 3, 6, 7})
        assert element_modes(Rotator(1), space) == frozenset({2, 3})
        assert element_modes(PhaseShifter(1, 0.5, POL_V), space) == frozenset({3})
        assert element_modes(PhaseShifter(1, 0.5, POL_H), space) == frozenset({2})
        assert element_modes(PhaseShifter(1, 0.5), space) == frozenset({2, 3})

    def test_crossing_counts_moved_paths_only(self):
        space = ModeSpace(2, uses_pol=True)
        assert element_modes(Crossing((0, 1, 3, 2)), space) == frozenset({4, 5, 6, 7})

    def test_plain_space_footprints(self):
        space = ModeSpace(2)
        assert element_modes(BeamSplitter(0, 2), space) == frozenset({0, 2})
        assert element_modes(PhaseShifter(3, 0.5), space) == frozenset({3})


SWAP_01 = (1, 0, 2, 3)


@pytest.mark.parametrize("bad_map", [
    (1, 0, 2), (1, 0, 2, 3, 4), (), (1, 1, 2, 3), (1, 0, 2, 4), (-1, 0, 2, 3),
], ids=["short", "long", "empty", "repeated-entry", "out-of-range", "negative"])
@pytest.mark.parametrize("first", [True, False], ids=["bad-first", "bad-last"])
def test_bad_crossing_map_among_good_ones(bad_map, first):
    # Good maps around the bad one, so a check that stacks every map before
    # testing their lengths would fail on the stack, not on the map.
    space = ModeSpace(2)
    layers = [[Crossing(SWAP_01)], [Crossing(bad_map)], [Crossing((3, 2, 1, 0))]]
    layers = layers[1:] if first else layers
    with pytest.raises(NetlistError) as built:
        OpticalNetlist(space, layers)
    assert type(built.value) is NetlistError
    assert str(built.value) == "crossing map must permute all path indices"
    doc = {"version": 1, "n_loc": 2, "uses_pol": False,
           "layers": [[element.to_doc() for element in layer] for layer in layers]}
    with pytest.raises(NetlistFormatError) as loaded:
        netlist_from_json(json.dumps(doc))
    assert str(loaded.value) == f"invalid netlist document: {built.value}"


def test_identity_crossing_shares_a_layer_with_a_real_one():
    space = ModeSpace(2, uses_pol=True)
    layers = [[Crossing((0, 1, 2, 3)), Crossing((0, 1, 3, 2))], [Crossing((0, 1, 2, 3))],
              [BeamSplitter(2, 3, 0.3), Crossing(SWAP_01), Crossing((0, 1, 2, 3))]]
    net = OpticalNetlist(space, layers)
    assert netlist_from_json(netlist_to_json(net)) == net
    layer, row, mode = net.footprints()
    assert (layer.tolist(), row.tolist(), mode.tolist()) == (
        [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2], [1, 1, 1, 1, 3, 3, 3, 3, 4, 4, 4, 4],
        [4, 5, 6, 7, 4, 5, 6, 7, 0, 1, 2, 3])
    expected = np.eye(space.dim, dtype=complex)
    for layer_elements in layers:
        for element in layer_elements:
            expected = element_unitary(element, space) @ expected
    assert np.allclose(netlist_unitary(net), expected, atol=1e-15)


@pytest.mark.parametrize("source", ["constructed", "loaded", "compiled", "pruned"])
def test_crossing_maps_are_one_read_only_array_in_crossing_order(source):
    maps = [(1, 0, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    net = OpticalNetlist(ModeSpace(2), [[Crossing(maps[0])], [Crossing(maps[1])],
                                        [BeamSplitter(0, 1, 0.3)], [Crossing(maps[2])]])
    if source == "loaded":
        net = netlist_from_json(netlist_to_json(net))
    elif source == "compiled":  # cnot 1 0, swap 0 1 and cnot 0 1 on paths q0 q1
        circuit = parse_circuit("qubits 2\ncnot 1 0\nh 0\nswap 0 1\ncnot 0 1\n")
        net = compile_circuit(circuit, relabel_terminal_crossings=False)
        maps = [(0, 3, 2, 1), (0, 2, 1, 3), (0, 1, 3, 2)]
    elif source == "pruned":  # from path 0, the middle crossing moves only dark paths
        net = prune_dead_paths(net, {0})
        del maps[1]
    table = net.table
    assert table.maps.dtype == np.int64 and table.maps.shape == (len(maps), 4)
    assert not table.maps.flags.writeable
    assert table.maps.tolist() == [list(m) for m in maps]
    assert table.a[table.kind == PERM].tolist() == list(range(len(maps)))
    assert [e.path_map for e in net.elements() if isinstance(e, Crossing)] == maps


def test_element_subclass_packs_as_its_kind():
    class Tagged(BeamSplitter):
        pass

    net = OpticalNetlist(ModeSpace(1), [[Tagged(0, 1, 0.3)]])
    assert net.table.kind.tolist() == [BS]
    assert net == OpticalNetlist(ModeSpace(1), [[BeamSplitter(0, 1, 0.3)]])
    assert net.layers == ((BeamSplitter(0, 1, 0.3),),)
    for stranger in (None, {"type": "bs", "paths": [0, 1], "theta": 0.3}):
        with pytest.raises(NetlistError, match="unknown element"):
            OpticalNetlist(ModeSpace(1), [[stranger]])


class TestNetlist:
    def test_layer_disjointness_enforced(self):
        space = ModeSpace(2)
        with pytest.raises(NetlistError, match="disjoint"):
            OpticalNetlist(space, ((BeamSplitter(0, 1), BeamSplitter(1, 2)),))

    def test_non_element_in_layer(self):
        with pytest.raises(NetlistError, match="unknown element"):
            OpticalNetlist(ModeSpace(1), ((BeamSplitter(0, 1),), ("bs",)))
        with pytest.raises(NetlistError, match="unknown element"):
            element_unitary(object(), ModeSpace(1))

    def test_source_gate_length_mismatch(self):
        space = ModeSpace(1)
        with pytest.raises(NetlistError):
            OpticalNetlist(space, ((BeamSplitter(0, 1),),), ("a", "b"))

    @pytest.mark.parametrize("notes", [(1,), (None,), (b"g0",)])
    def test_source_gates_are_strs(self, notes):
        # (1,) used to be accepted, and netlist_to_json then raised a TypeError.
        with pytest.raises(NetlistError, match="source gate .* is not a str"):
            OpticalNetlist(ModeSpace(1), [[BeamSplitter(0, 1)]], notes)

    def test_bad_relabel(self):
        space = ModeSpace(1)
        with pytest.raises(NetlistError):
            OpticalNetlist(space, (), output_relabel=(0, 0))

    @pytest.mark.parametrize("relabel", [(1.7, 0), (1.0, 0.0), (True, False)])
    def test_relabel_entries_are_ints(self, relabel):
        with pytest.raises(NetlistError, match="not an int"):
            OpticalNetlist(ModeSpace(1), (), output_relabel=relabel)

    def test_counts(self):
        space = ModeSpace(1)
        net = OpticalNetlist(space, ((BeamSplitter(0, 1),), (PhaseShifter(0, 0.5),)))
        assert net.n_elements == 2
        assert len(list(net.elements())) == 2
        assert net.source_gates == ("", "")

    def test_propagate_matches_unitary(self):
        rng = np.random.default_rng(59)
        for uses_pol in (False, True):
            space = ModeSpace(2, uses_pol)
            for _ in range(20):
                layers = []
                for element in random_elements(rng, space):
                    layers.append((element,))
                net = OpticalNetlist(space, tuple(layers))
                vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
                vec /= np.linalg.norm(vec)
                streamed = propagate(net, ModeAmplitudes(space, vec)).amplitudes
                dense = netlist_unitary(net) @ vec
                assert np.max(np.abs(streamed - dense)) < 1e-12

    def test_output_relabel_applies_last(self):
        space = ModeSpace(1)
        net = OpticalNetlist(space, (), output_relabel=(1, 0))
        out = propagate(net, ModeAmplitudes.basis(space, 0))
        assert out.amplitudes[1] == 1.0
        assert netlist_unitary(net)[1, 0] == 1.0

    def test_relabel_moves_pol_pairs(self):
        space = ModeSpace(1, uses_pol=True)
        net = OpticalNetlist(space, (), output_relabel=(1, 0))
        vec = np.array([0.6, 0.8j, 0, 0], dtype=complex)
        out = propagate(net, ModeAmplitudes(space, vec)).amplitudes
        assert out[2] == 0.6 and out[3] == 0.8j

    def test_space_mismatch(self):
        net = OpticalNetlist(ModeSpace(1), ())
        with pytest.raises(NetlistError):
            propagate(net, ModeAmplitudes.basis(ModeSpace(2), 0))


class TestModeAmplitudes:
    def test_length_check(self):
        with pytest.raises(NetlistError):
            ModeAmplitudes(ModeSpace(2), np.zeros(3))

    def test_unnormalized_allowed(self):
        amps = ModeAmplitudes(ModeSpace(1), np.array([2.0, 0.0]))
        assert amps.probabilities().sum() == pytest.approx(4.0)

    def test_probabilities(self):
        amps = ModeAmplitudes(ModeSpace(1), np.array([0.6, 0.8j]))
        assert np.allclose(amps.probabilities(), [0.36, 0.64])

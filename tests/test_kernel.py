"""Properties of the layer kernel behind propagate, netlist_unitary and
element_unitary, of the per-kind element classes, and of the netlist JSON
writer against json.dumps, on random layered netlists."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonc.compiler import device_stats, netlist_from_json, netlist_to_json
from photonc.optics import (
    POL_BOTH,
    POL_H,
    POL_V,
    BeamSplitter,
    Crossing,
    ModeAmplitudes,
    ModeSpace,
    OpticalNetlist,
    PhaseShifter,
    PolarizingBeamSplitter,
    Rotator,
    element_unitary,
    netlist_unitary,
    propagate,
)

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def layers_on(draw, space):
    """Layers of several elements on disjoint paths, every kind the space allows."""
    kinds = ["bs", "ps", "cross"] + (["rot", "pbs"] if space.uses_pol else [])
    layers = []
    for _ in range(draw(st.integers(0, 5))):
        free = list(draw(st.permutations(range(space.n_paths))))
        layer = []
        while free and draw(st.booleans()):
            kind = draw(st.sampled_from(kinds))
            if kind in ("bs", "pbs", "cross") and len(free) < 2:
                kind = "ps"
            if kind == "bs":
                layer.append(BeamSplitter(free.pop(), free.pop(), draw(ANGLES)))
            elif kind == "pbs":
                layer.append(PolarizingBeamSplitter(free.pop(), free.pop()))
            elif kind == "rot":
                layer.append(Rotator(free.pop()))
            elif kind == "ps":
                pols = (POL_H, POL_V, POL_BOTH) if space.uses_pol else (POL_BOTH,)
                layer.append(PhaseShifter(free.pop(), draw(ANGLES), draw(st.sampled_from(pols))))
            else:
                moved = [free.pop() for _ in range(draw(st.integers(2, len(free))))]
                path_map = list(range(space.n_paths))
                for src, dst in zip(moved, draw(st.permutations(moved))):
                    path_map[src] = dst
                layer.append(Crossing(tuple(path_map)))
        layers.append(tuple(layer))
    return tuple(layers)


@st.composite
def netlists(draw):
    space = ModeSpace(draw(st.integers(1, 3)), draw(st.booleans()))
    relabel = draw(st.none() | st.permutations(range(space.n_paths)))
    return OpticalNetlist(space, draw(layers_on(space)), output_relabel=relabel)


def element_product(net):
    u = np.eye(net.space.dim, dtype=complex)
    for element in net.elements():
        u = element_unitary(element, net.space) @ u
    if net.output_relabel is not None:
        u = element_unitary(Crossing(net.output_relabel), net.space) @ u
    return u


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_unitary_is_ordered_element_product(net):
    assert np.max(np.abs(netlist_unitary(net) - element_product(net))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(netlists(), st.integers(0, 2**32 - 1))
def test_propagate_matches_unitary(net, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=net.space.dim) + 1j * rng.normal(size=net.space.dim)
    out = propagate(net, ModeAmplitudes(net.space, vec)).amplitudes
    assert np.max(np.abs(out - netlist_unitary(net) @ vec)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_unitary_is_unitary(net):
    u = netlist_unitary(net)
    assert np.max(np.abs(u @ u.conj().T - np.eye(net.space.dim))) < 1e-12


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_json_round_trip_is_equal(net):
    assert netlist_from_json(netlist_to_json(net)) == net


def stdlib_json(net):
    """The netlist document through json.dumps, as netlist_to_json once wrote
    it: the reference its own writer must match byte for byte."""
    meta = {"source_gates": list(net.source_gates)}
    if net.output_relabel is not None:
        meta["output_relabel"] = list(net.output_relabel)
    doc = {
        "version": 1,
        "n_loc": net.space.n_loc,
        "uses_pol": net.space.uses_pol,
        "layers": [[e.to_doc() for e in layer] for layer in net.layers],
        "meta": meta,
    }
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(netlists(), st.lists(st.text(), min_size=5, max_size=5))
def test_json_matches_stdlib_encoder(net, notes):
    notes = tuple(notes[: len(net.layers)])
    net = OpticalNetlist(net.space, net.layers, notes, net.output_relabel)
    assert netlist_to_json(net) == stdlib_json(net)


@pytest.mark.parametrize("net", [
    OpticalNetlist(ModeSpace(0), ()),
    OpticalNetlist(ModeSpace(2, True), ((), (Rotator(1),), ()), ("", "g1: x 1", "")),
    OpticalNetlist(ModeSpace(2), ((BeamSplitter(0, 3, 0.5),),), output_relabel=(2, 0, 3, 1)),
    OpticalNetlist(ModeSpace(1), ((PhaseShifter(0, 0.5),),), ("g0: φ ✕ \"é\"\t\U0001f600",)),
    OpticalNetlist(ModeSpace(1), ((PhaseShifter(0, 2),), (BeamSplitter(0, 1, 0),))),
    OpticalNetlist(ModeSpace(1, True), ((PhaseShifter(1, np.float64(-0.25), POL_V),),
                                        (BeamSplitter(0, 1, np.float64(1e-300)),))),
], ids=["no-layers", "empty-layers", "relabel", "non-ascii-note", "int-angle", "numpy-angle"])
def test_json_matches_stdlib_encoder_on_edge_cases(net):
    assert netlist_to_json(net) == stdlib_json(net)


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_kernel_rows_stay_in_footprint(net):
    # What makes the in-place layer update safe: an element reads and
    # writes only its own modes, and the modes of a layer are disjoint.
    w = 2 if net.space.uses_pol else 1
    for element in net.elements():
        footprint = element.modes(net.space)
        for target, source0, _, source1, _ in element.rows(w):
            assert {target, source0, source1} <= footprint


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_stats_count_every_element(net):
    stats = device_stats(net)
    counted = (stats.beam_splitters + stats.polarizing_beam_splitters + stats.phase_shifters
               + stats.rotators + stats.crossings)
    assert counted == net.n_elements


def test_mixed_polarized_layer_against_hand_matrix():
    # paths 0..7, modes path*2 + pol: rotator on path 0, PBS on paths 1 and 2,
    # splitter on paths 3 and 5; paths 4, 6 and 7 pass untouched.
    space = ModeSpace(3, uses_pol=True)
    theta = 0.3
    c, s = math.cos(theta), 1j * math.sin(theta)
    expected = np.zeros((16, 16), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1.0
    expected[2, 2] = expected[4, 4] = 1.0
    expected[3, 5] = expected[5, 3] = 1j
    for a, b in ((6, 10), (7, 11)):
        expected[a, a] = expected[b, b] = c
        expected[a, b] = expected[b, a] = s
    for m in (8, 9, 12, 13, 14, 15):
        expected[m, m] = 1.0
    layer = (Rotator(0), PolarizingBeamSplitter(1, 2), BeamSplitter(3, 5, theta))
    net = OpticalNetlist(space, (layer,))
    assert np.max(np.abs(netlist_unitary(net) - expected)) < 1e-15
    vec = np.arange(16) + 1j * np.arange(16)[::-1]
    assert np.max(np.abs(propagate(net, ModeAmplitudes(space, vec)).amplitudes - expected @ vec)) < 1e-13

"""Properties of the layer kernel behind propagate, netlist_unitary and
element_unitary (at every cut into layer blocks), of the element table and
its element views, of pruning, and of the netlist JSON writer against
json.dumps, on random layered netlists; of the loader's layout reader,
across its chunk edges, from a file's bytes against its text, and behind
its write-back, which refuses a table the reader misread; and of
element and layer validation, by the constructor and by the JSON loader,
against a brute-force reference, on layers that may be invalid."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonc import optics
from photonc.cli import main
from photonc.compiler import QubitAssignment, compile_circuit, device_stats, prune_dead_paths
from photonc.optics import (
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
    element_modes,
    element_unitary,
    netlist_from_json,
    netlist_to_json,
    netlist_unitary,
    propagate,
)

from conftest import random_circuit

GOLDEN = Path(__file__).parent / "golden"
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


@settings(max_examples=200, deadline=None)
@given(netlists(), st.lists(st.text(), min_size=5, max_size=5))
def test_writer_text_reads_as_its_document(net, notes):
    # The writer's own text is read as a number stream; with a trailing
    # space it is no longer the writer's, so it is read as a JSON document.
    notes = tuple(notes[: len(net.layers)])
    net = OpticalNetlist(net.space, net.layers, notes, net.output_relabel)
    text = netlist_to_json(net)
    assert optics._read_written(text + " ") is None
    read = optics._read_written(text)
    assert read == netlist_from_json(text + " ") == net
    assert [column.dtype for column in read.table] == [column.dtype for column in net.table]
    assert netlist_to_json(read) == text


@pytest.mark.parametrize("net", [
    OpticalNetlist(ModeSpace(20), ((BeamSplitter(0, 1048575, 0.5), PhaseShifter(1048574, 1.0)),
                                   (PhaseShifter(1048575, 2.0),))),
    OpticalNetlist(ModeSpace(2, True), (
        (BeamSplitter(0, 1, -2.2250738585072014e-308), BeamSplitter(2, 3, 2.2250738585072014e-308)),
        (PhaseShifter(0, -2.2250738585072014e-308, POL_H), PhaseShifter(1, 2.2250738585072014e-308),
         PhaseShifter(2, -0.0, POL_V), PhaseShifter(3, 0.0)),
        (BeamSplitter(0, 3, 5e-324), BeamSplitter(1, 2, 1e16)),
        (PhaseShifter(0, 5e-324), PhaseShifter(1, 1e16, POL_V), PhaseShifter(2, -0.0)))),
], ids=["widest-path", "angle-texts"])
def test_layout_reader_reads_number_texts_at_their_limits(net):
    # The longest path text, and angle texts of 24 characters (one sign
    # apart), a subnormal, an exponent with "+" and a signed zero, each at
    # the splitter's and at the shifter's place: read by the layout reader
    # exactly as the document reader reads them, bit for bit.
    text = netlist_to_json(net)
    read, document = optics._read_written(text), netlist_from_json(text + " ")
    assert read is not None and read == document == net
    assert np.array_equal(read.table.angle.view(np.int64), document.table.angle.view(np.int64))


@pytest.mark.parametrize("old, new", [
    ('"theta": 0.5', '"theta": NaN'),
    ('"theta": 0.5', '"theta": true'),
    ("          1\n", "          1.0\n"),
    ("          1\n", "          0\n"),
    ("          1\n", "          2\n"),
    ('"n_loc": 1', '"n_loc": 40'),
    ('"type": "bs"', '"type": "pbs"'),
    ('      ""', "      3"),
    ("          1\n", "          01\n"),
    ("          1\n", "          0_1\n"),
    ("          1\n", "          +1\n"),
    ("          1\n", "          10000001\n"),
    ('"paths"', '"pathz"'),
    ("\n      {", "\n       {"),
], ids=["nan-angle", "bool-angle", "float-path", "same-paths", "path-range", "too-wide",
        "unpolarized-pbs", "int-note", "leading-zero", "underscore", "plus-sign", "8-digit-path",
        "key-typo", "indent"])
def test_edited_writer_text_fails_as_its_document(old, new):
    # An edit that the layout reader misreads or refuses leaves the text to
    # the document reader: the same error (or, for a valid edit such as a
    # changed indent, the same netlist) as the text read as a document.
    def outcome(text):
        try:
            return netlist_from_json(text)
        except ValueError as exc:
            return type(exc), str(exc)

    text = netlist_to_json(OpticalNetlist(ModeSpace(1), ((BeamSplitter(0, 1, 0.5),),)))
    assert old in text
    text = text.replace(old, new)
    streamed = outcome(text)
    assert streamed == outcome(text + " ")
    assert isinstance(streamed, OpticalNetlist) == (old == "\n      {")  # the one valid edit


def test_crossing_map_longer_than_the_text_is_left_to_the_document_reader(tmp_path, capsys):
    # At n_loc 12 a crossing's map needs 4096 lines, more than the text has:
    # the layout reader refuses it, and the document reader says why.
    text = netlist_to_json(OpticalNetlist(ModeSpace(2), ((Crossing((1, 0, 2, 3)),),)))
    text = text.replace('"n_loc": 2', '"n_loc": 12')
    assert optics._read_written(text) is None
    path = tmp_path / "wide.json"
    path.write_text(text, encoding="utf-8")
    assert main(["stats", str(path)]) == 2
    assert "crossing map must permute all path indices" in capsys.readouterr().err


@pytest.fixture(scope="module")
def wide_text():
    """The JSON of a compiled 12-qubit, 44-gate circuit with a pol qubit."""
    circuit = random_circuit(np.random.default_rng(149), 12, 44)
    return netlist_to_json(compile_circuit(circuit, QubitAssignment.default(12, 6)))


def test_layout_reader_reads_a_compiled_wide_circuit(wide_text):
    # 86,537 elements must take the layout reader, not fall back to the
    # document reader.
    read = optics._read_written(wide_text)
    assert read is not None and read.n_elements == 86537
    assert read == netlist_from_json(wide_text + " ")


def test_layout_load_peaks_under_twice_the_file(wide_text, tmp_path):
    # The file's bytes are the only copy of the text: the newline scan
    # runs a chunk at a time, line ends overwrite line starts, the index
    # columns are int32 and int8, and the write-back is compared block by
    # block. This load peaks at about 1.94 times; a read_text() and its
    # ASCII encoding peaked at about 3.46 times, int64 index columns at 2.47.
    path = tmp_path / "wide.json"
    path.write_text(wide_text, encoding="ascii")
    tracemalloc.start()
    try:
        net = netlist_from_json(path.read_bytes())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n_elements == 86537
    assert peak < 2 * len(wide_text), peak / len(wide_text)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_layout_reader_reads_across_chunk_edges(monkeypatch, chunk):
    # The newline scan and the angle sort each run a chunk at a time.
    circuit = random_circuit(np.random.default_rng(7), 3, 12)
    text = netlist_to_json(compile_circuit(circuit, QubitAssignment.default(3, 1)))
    data = text.encode("ascii")
    lo = optics._WRITTEN_HEAD.match(data).end()  # where the scan starts
    newlines = np.flatnonzero(np.frombuffer(data, np.uint8)[lo:] == ord("\n")) % chunk
    assert 0 in newlines and chunk - 1 in newlines  # one opens a chunk, one closes a chunk
    monkeypatch.setattr(optics, "_SCAN_CHUNK", chunk)
    monkeypatch.setattr(optics, "_FLOAT_BLOCK", chunk)
    read = optics._read_written(data)
    assert read is not None and read == netlist_from_json(text + " ")
    # Each edit keeps the length and reads as the same table (a tab in a
    # path's indent, a space for the last newline), so only the write-back,
    # compared a chunk at a time, can refuse it.
    at = data.index(b"\n          ") + 9
    for edited in (data[:at] + b"\t" + data[at + 1:], data[:-1] + b" "):
        assert optics._read_written(edited) is None


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.compile.json")), ids=lambda path: path.name)
def test_golden_netlist_loads_the_same_from_bytes_as_from_str(path):
    data = path.read_bytes()
    assert optics._read_written(data) is not None
    assert netlist_from_json(data) == netlist_from_json(path.read_text(encoding="utf-8"))


def test_utf8_note_loads_the_same_from_bytes_as_from_str():
    # The writer escapes a note's "é"; written raw, the text is valid UTF-8
    # JSON that is not ASCII, so both reads take the document reader.
    net = OpticalNetlist(ModeSpace(1), ((BeamSplitter(0, 1, 0.5),),), ("g0: é",))
    text = netlist_to_json(net).replace("\\u00e9", "é")
    assert "é" in text
    assert netlist_from_json(text.encode("utf-8")) == netlist_from_json(text) == net


def test_crlf_text_loads_as_a_text_mode_read(tmp_path):
    # A file's bytes load as its text-mode read does, newlines translated,
    # so a document error names the same line, column and character.
    text = netlist_to_json(OpticalNetlist(ModeSpace(1), ((BeamSplitter(0, 1, 0.5),),)))
    path = tmp_path / "crlf.json"
    path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    assert netlist_from_json(path.read_bytes()) == netlist_from_json(text)
    text = text.replace('"theta": 0.5', '"theta": .5')  # not JSON: the document reader's error
    path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    errors = []
    for source in (path.read_bytes(), path.read_text(encoding="utf-8")):
        with pytest.raises(NetlistFormatError) as exc:
            netlist_from_json(source)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[0].endswith("line 13 column 18 (char 175)")


SWAP_01 = Crossing((1, 0, 2, 3))


@pytest.mark.parametrize("net", [
    OpticalNetlist(ModeSpace(1, True), ((PhaseShifter(0, 0.0), PhaseShifter(1, -0.0, POL_H)),
                                        (BeamSplitter(0, 1, -0.0),), (PhaseShifter(1, 0.0),))),
    OpticalNetlist(ModeSpace(2), ((PhaseShifter(0, 5e-324), BeamSplitter(1, 2, 1e16)),
                                  (PhaseShifter(3, -5e-324), PhaseShifter(1, 1e16)))),
    OpticalNetlist(ModeSpace(2), ((SWAP_01,), (BeamSplitter(0, 1, 0.5),), (SWAP_01,),
                                  (Crossing((0, 1, 3, 2)),)), output_relabel=(1, 0, 2, 3)),
    OpticalNetlist(ModeSpace(2, True), ((), (), (PhaseShifter(2, 1.0, POL_V), Rotator(3)), (),
                                        (), (PolarizingBeamSplitter(0, 3),), (), ())),
    OpticalNetlist(ModeSpace(2), ((SWAP_01,), (Crossing((3, 2, 1, 0)),), (SWAP_01,))),
    OpticalNetlist(ModeSpace(1), ((), ())),
    OpticalNetlist(ModeSpace(3, True), (
        (BeamSplitter(0, 1, 0.5), PhaseShifter(2, 0.5, POL_H), PhaseShifter(3, 0.5, POL_V),
         PhaseShifter(4, 0.5)),
        (PhaseShifter(0, 0.0), Rotator(1), PolarizingBeamSplitter(2, 3),
         Crossing((0, 1, 2, 3, 5, 4, 6, 7)), PhaseShifter(6, -0.0)))),
], ids=["signed-zero-angles", "extreme-angles", "repeated-crossing-map",
        "empty-layer-runs", "crossings-only", "only-empty-layers", "shared-tails"])
def test_json_writer_edge_cases_match_stdlib_encoder(net):
    assert netlist_to_json(net) == stdlib_json(net)


@pytest.mark.parametrize("name, misread", [
    ("_CODES", optics._byte_codes(f'"{kind.tag}"' for kind in optics.ELEMENT_KINDS)),
    ("_WINDOW_HASH", np.zeros(3, np.uint64)),
], ids=["pols-read-as-H", "angles-share-one-hash"])
def test_write_back_refuses_a_misread_table(monkeypatch, name, misread):
    # A byte lookup that knows no pol filter, or a hash that gives every
    # angle text one key, reads the writer's text as another valid table.
    # Only the write-back tells, and the document reader loads the text.
    net = OpticalNetlist(ModeSpace(2, True), ((PhaseShifter(0, 0.5, POL_V), PhaseShifter(1, 0.25)),
                                              (BeamSplitter(0, 1, 1.0),)))
    data = netlist_to_json(net).encode("ascii")
    monkeypatch.setattr(optics, name, misread)
    head, end = optics._WRITTEN_HEAD.match(data), data.rfind(optics._WRITTEN_META)
    table = optics._layout_table(np.frombuffer(data, np.uint8), head.end(), end, net.space.n_paths)
    assert not all(map(np.array_equal, table, net.table))
    assert optics._read_written(data) is None
    assert netlist_from_json(data) == net


def test_json_matches_stdlib_encoder_across_row_blocks():
    """Two layers of one row block each, so the second starts and ends on a
    block edge, an empty layer, then a part of a block."""
    block = optics._JSON_BLOCK
    space = ModeSpace(block.bit_length(), True)  # 2 * block paths
    layers = (
        [PhaseShifter(p, p / 7, (POL_H, POL_V, POL_BOTH)[p % 3]) for p in range(block)],
        [BeamSplitter(p, p + 1, -p / 3) for p in range(0, block, 2)]
        + [Rotator(p) for p in range(block, 3 * block // 2)],
        [],
        [PolarizingBeamSplitter(2, 5), Crossing((1, 0, *range(2, space.n_paths)))],
    )
    net = OpticalNetlist(space, layers)
    assert len(net.layers[1]) == block
    assert netlist_to_json(net) == stdlib_json(net)


def test_json_matches_stdlib_encoder_past_a_16_bit_vocabulary():
    """More distinct paths and angles than a 16-bit grid cell can index."""
    count = 1 << 16
    net = OpticalNetlist(ModeSpace(17), ([PhaseShifter(p, p / 7) for p in range(count)],))
    same = netlist_to_json(net) == stdlib_json(net)  # no diff of two 11 MB texts on failure
    assert same


@settings(max_examples=100, deadline=None)
@given(netlists(), st.sampled_from([1, 2, optics._KERNEL_BLOCK]))
def test_kernel_rows_stay_in_footprint(net, block):
    # What makes the in-place layer update safe: an element reads and
    # writes only its own modes, and the modes of a layer are disjoint.
    # Each element's move, scale and mix rows name only its footprint, each
    # mode it changes is a target at most once per class, and every mode it
    # changes (all of its footprint but a PBS's H modes) is a target.
    space, elements = net.space, list(net.elements())
    footprints = [set(reference_footprint(e, space)) for e in elements]
    targets = [[] for _ in elements]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optics, "_KERNEL_BLOCK", block)
        for first, table in optics._layer_blocks(net.table):
            for ends, (t, *columns) in optics._row_classes(table, space):
                rows = first + np.repeat(np.arange(len(table.kind)), np.diff(ends))
                reads = [column.tolist() for column in columns if column.dtype == np.int64]
                for i, row in enumerate(rows.tolist()):
                    assert {t[i], *(read[i] for read in reads)} <= footprints[row]
                for row in set(rows.tolist()):
                    mine = t[rows == row].tolist()
                    assert len(mine) == len(set(mine))
                    targets[row] += mine
    for element, footprint, changed in zip(elements, footprints, targets):
        if isinstance(element, PolarizingBeamSplitter):
            footprint = {mode for mode in footprint if mode % 2}  # its H modes pass
        assert set(changed) == footprint


def reference_stream(net, x):
    """x through the netlist as the optics module docstring documents each
    layer: one gather x[t] <- c0 * x[s0] + c1 * x[s1] per mode t an element
    changes, by its element's matrix, with each coefficient on the left and
    no term whose coefficient is 0; a move of coefficient 1 is a copy. The
    coefficients are computed as NumPy arrays, as the kernel computes them."""
    space = net.space
    w = 2 if space.uses_pol else 1

    def column(c):
        return np.asarray(c, dtype=complex)[:, None] if x.ndim == 2 else np.asarray(c, dtype=complex)

    for layer in net.layers:
        copies, singles, pairs = [], [], []  # (t, s), (t, s, angle or "i"), (t, p, theta)
        for e in layer:
            if isinstance(e, BeamSplitter):
                for k in range(w):
                    ta, tb = e.path_a * w + k, e.path_b * w + k
                    pairs += [(ta, tb, e.theta), (tb, ta, e.theta)]
            elif isinstance(e, PhaseShifter):
                ks = {POL_H: [0], POL_V: [1], POL_BOTH: list(range(w))}[e.pol_filter]
                singles += [(e.path * w + k, e.path * w + k, e.phi) for k in ks]
            elif isinstance(e, Rotator):
                copies += [(e.path * 2, e.path * 2 + 1), (e.path * 2 + 1, e.path * 2)]
            elif isinstance(e, PolarizingBeamSplitter):
                va, vb = e.path_a * 2 + 1, e.path_b * 2 + 1
                singles += [(va, vb, "i"), (vb, va, "i")]
            else:
                copies += [(q * w + k, p * w + k) for p, q in enumerate(e.path_map) if p != q
                           for k in range(w)]
        new = x.copy()
        for t, s in copies:
            new[t] = x[s]
        if singles:
            t, s, angles = zip(*singles)
            phi = np.array([0.0 if a == "i" else a for a in angles])
            c = np.where([a == "i" for a in angles], 1j, np.cos(phi) + 1j * np.sin(phi))
            new[list(t)] = column(c) * x[list(s)]
        if pairs:
            t, p, theta = map(list, zip(*pairs))
            new[t] = column(np.cos(theta)) * x[t] + column(1j * np.sin(theta)) * x[p]
        x = new
    if net.output_relabel is not None:
        relabeled = np.empty_like(x)
        relabeled[[q * w + k for q in net.output_relabel for k in range(w)]] = x
        x = relabeled
    return x


@settings(max_examples=200, deadline=None)
@given(netlists(), st.integers(0, 2**32 - 1))
def test_kernel_is_bit_equal_to_the_documented_gather(net, seed):
    # Only shifters and splitters do arithmetic in the kernel; moves rewrite
    # its mode map. Each amplitude must still take the documented products
    # in their order, so every bit matches (a zero's sign aside), at every
    # cut into layer blocks.
    rng = np.random.default_rng(seed)
    dim = net.space.dim
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    expected = [reference_stream(net, np.eye(dim, dtype=complex)), reference_stream(net, vec),
                reference_stream(net, block)]
    for size in (1, 2, 3, optics._KERNEL_BLOCK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optics, "_KERNEL_BLOCK", size)
            got = [netlist_unitary(net), propagate(net, ModeAmplitudes(net.space, vec)).amplitudes,
                   optics._stream(block.copy(), net)]
        for want, have in zip(expected, got):
            assert np.array_equal(have, want)


@settings(max_examples=100, deadline=None)
@given(netlists(), st.integers(0, 2**32 - 1))
def test_layer_blocks_stream_bit_equal_to_one_block(net, seed):
    # A block of 1, 2 or 3 rows cuts the netlist at every layer it can;
    # per-layer arithmetic and row order are the same, so every bit is.
    rng = np.random.default_rng(seed)
    dim = net.space.dim
    vec = ModeAmplitudes(net.space, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    (first, table), = optics._layer_blocks(net.table)
    assert first == 0 and table is net.table
    unitary, out = netlist_unitary(net).tobytes(), propagate(net, vec).amplitudes.tobytes()
    for block in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optics, "_KERNEL_BLOCK", block)
            assert netlist_unitary(net).tobytes() == unitary
            assert propagate(net, vec).amplitudes.tobytes() == out


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_constructor_repacks_its_element_views(net):
    assert OpticalNetlist(net.space, net.layers, net.source_gates, net.output_relabel) == net


@settings(max_examples=200, deadline=None)
@given(netlists(), st.data())
def test_pruning_keeps_every_input_on_its_support(net, data):
    # A random vector on a random set of modes, not one basis mode: pruning
    # must keep every element that any of them can reach.
    dim = net.space.dim
    support = sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = np.zeros(dim, dtype=complex)
    vec[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    full = propagate(net, ModeAmplitudes(net.space, vec)).amplitudes
    pruned = propagate(prune_dead_paths(net, support), ModeAmplitudes(net.space, vec)).amplitudes
    assert np.max(np.abs(full - pruned)) < 1e-12


@settings(max_examples=500, deadline=None)
@given(netlists(), st.data())
def test_pruning_matches_the_plain_element_loop(net, data):
    # Pruning stops its loop once every mode is live; it must keep what the
    # plain loop over every element keeps. The last layer's identity
    # crossing occupies no mode, so it is dropped even once all are live.
    space = net.space
    layers = (*net.layers, (Crossing(tuple(range(space.n_paths))),))
    net = OpticalNetlist(space, layers, tuple(map(str, range(len(layers)))), net.output_relabel)
    every_mode = set(range(space.dim))
    some_modes = st.sets(st.sampled_from(sorted(every_mode)), min_size=1)
    support = data.draw(st.just(every_mode) | some_modes)
    live, kept = set(support), []
    for layer, note in zip(net.layers, net.source_gates):
        alive = []
        for element in layer:
            footprint = reference_footprint(element, space)
            if not live.isdisjoint(footprint):
                alive.append(element)
                live.update(footprint)
        if alive:
            kept.append((tuple(alive), note))
    pruned = prune_dead_paths(net, support)
    assert pruned.layers == tuple(layer for layer, _ in kept)
    assert pruned.source_gates == tuple(note for _, note in kept)
    # subset skips the checks and the map sort: its table must be the one the
    # checked constructor builds, crossings renumbered, and read-only.
    assert pruned == OpticalNetlist(space, pruned.layers, pruned.source_gates, pruned.output_relabel)
    assert not any(array.flags.writeable for array in pruned.table)


@settings(max_examples=100, deadline=None)
@given(netlists())
def test_stats_count_every_element(net):
    stats = device_stats(net)
    counted = (stats.beam_splitters + stats.polarizing_beam_splitters + stats.phase_shifters
               + stats.rotators + stats.crossings)
    assert counted == net.n_elements


def reference_footprint(element, space):
    """The modes an element occupies by the conventions of the optics module
    docstring, or None where it does not fit the space: mode path*2 + pol
    (H = 0) on a polarized space, else path; an H/V filter takes one mode and
    a crossing only the paths it moves."""
    def is_path(p):
        return type(p) is int and 0 <= p < 2 ** space.n_loc

    def is_angle(a):
        return type(a) is not bool and math.isfinite(a)

    def both(*paths):
        pols = (0, 1) if space.uses_pol else (0,)
        return [p * len(pols) + k for p in paths for k in pols]

    needs_pol = isinstance(element, (Rotator, PolarizingBeamSplitter)) or (
        isinstance(element, PhaseShifter) and element.pol_filter in (POL_H, POL_V))
    if needs_pol and not space.uses_pol:
        return None
    if isinstance(element, (BeamSplitter, PolarizingBeamSplitter)):
        a, b = element.path_a, element.path_b
        if not (is_path(a) and is_path(b)) or a == b:
            return None
        if isinstance(element, BeamSplitter) and not is_angle(element.theta):
            return None
        return both(a, b)
    if isinstance(element, PhaseShifter):
        if not is_path(element.path) or not is_angle(element.phi):
            return None
        if element.pol_filter == POL_BOTH:
            return both(element.path)
        if element.pol_filter not in (POL_H, POL_V):
            return None
        return [element.path * 2 + (element.pol_filter == POL_V)]
    if isinstance(element, Rotator):
        return both(element.path) if is_path(element.path) else None
    path_map = element.path_map
    if not all(type(p) is int for p in path_map) or sorted(path_map) != list(range(2 ** space.n_loc)):
        return None
    return both(*(p for p, q in enumerate(path_map) if p != q))


@st.composite
def loose_layers(draw, space):
    """Layers that may break any rule: overlapping elements, paths out of
    range or not ints, angles not finite or bools, bad crossing maps, and
    polarization elements on an unpolarized space. Most draws keep the rules,
    so valid layers of several elements are common too."""
    n_paths = space.n_paths
    bad_paths = st.sampled_from([-1, n_paths, 0.0, 1.0, True, False, np.int64(0)])
    bad_angles = st.sampled_from([True, False, math.nan, math.inf])

    def rarely():
        return draw(st.integers(0, 11)) == 0

    def angle():
        return draw(bad_angles) if rarely() else draw(ANGLES | st.integers(-3, 3))

    def crossing_map(free):
        moved = [free.pop() for _ in range(draw(st.integers(0, len(free))))]
        path_map = list(range(n_paths))
        for src, dst in zip(moved, draw(st.permutations(moved))):
            path_map[src] = dst
        if rarely():  # may overlap another element
            a, b = draw(st.integers(0, n_paths - 1)), draw(st.integers(0, n_paths - 1))
            path_map[a], path_map[b] = path_map[b], path_map[a]
        if rarely():
            path_map[draw(st.integers(0, n_paths - 1))] = draw(bad_paths | st.integers(0, n_paths - 1))
        if rarely():
            path_map = path_map[1:] if draw(st.booleans()) else path_map + [n_paths]
        return tuple(path_map)

    layers = []
    for _ in range(draw(st.integers(0, 4))):
        free = list(draw(st.permutations(range(n_paths))))

        def path():
            if rarely():
                return draw(bad_paths)
            if rarely() or not free:  # may overlap another element
                return draw(st.integers(0, n_paths - 1))
            return free.pop()

        kinds = ["bs", "ps", "cross"]
        if space.uses_pol or draw(st.integers(0, 3)) == 0:
            kinds += ["rot", "pbs", "ps-filtered"]
        layer = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(kinds))
            if kind == "bs":
                layer.append(BeamSplitter(path(), path(), angle()))
            elif kind == "ps":
                layer.append(PhaseShifter(path(), angle(), "X" if rarely() else POL_BOTH))
            elif kind == "ps-filtered":
                layer.append(PhaseShifter(path(), angle(), draw(st.sampled_from([POL_H, POL_V]))))
            elif kind == "rot":
                layer.append(Rotator(path()))
            elif kind == "pbs":
                layer.append(PolarizingBeamSplitter(path(), path()))
            else:
                layer.append(Crossing(crossing_map(free)))
        layers.append(tuple(layer))
    return tuple(layers)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_validation_matches_brute_force_reference(data):
    space = ModeSpace(data.draw(st.integers(0, 3)), data.draw(st.booleans()))
    layers = data.draw(loose_layers(space))
    footprints = [[reference_footprint(e, space) for e in layer] for layer in layers]
    for layer, prints in zip(layers, footprints):
        for element, modes in zip(layer, prints):
            if modes is None:
                with pytest.raises(NetlistError):
                    element_modes(element, space)
            else:
                assert element_modes(element, space) == frozenset(modes)
    valid = all(
        modes is not None for prints in footprints for modes in prints
    ) and not any(
        set(a) & set(b) for prints in footprints
        for i, a in enumerate(prints) for b in prints[i + 1:]
    )
    if valid:
        assert OpticalNetlist(space, layers).layers == layers
    else:
        with pytest.raises(NetlistError):
            OpticalNetlist(space, layers)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loader_validation_matches_brute_force_reference(data):
    # The same loose layers as JSON text, so NaN, bools and float paths
    # reach the loader, which decodes them without element objects.
    space = ModeSpace(data.draw(st.integers(0, 3)), data.draw(st.booleans()))
    layers = data.draw(loose_layers(space))
    doc = {"version": 1, "n_loc": space.n_loc, "uses_pol": space.uses_pol,
           "layers": [[e.to_doc() for e in layer] for layer in layers]}
    try:
        text = json.dumps(doc)
    except TypeError:  # a NumPy int, which JSON cannot hold
        assume(False)
    footprints = [[reference_footprint(e, space) for e in layer] for layer in layers]
    valid = all(
        modes is not None for prints in footprints for modes in prints
    ) and not any(
        set(a) & set(b) for prints in footprints
        for i, a in enumerate(prints) for b in prints[i + 1:]
    )
    if valid:
        assert netlist_from_json(text) == OpticalNetlist(space, layers)
    else:
        with pytest.raises(NetlistFormatError):
            netlist_from_json(text)


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

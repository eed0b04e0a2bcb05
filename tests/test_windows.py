"""The writer a block of rows at a time, and the loader a window of whole
elements at a time: every cut gives the same text and the same table as one
block or one window does, from a str, from bytes and from a file."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import photonc
from photonc import optics
from photonc.cli import main
from photonc.compiler import QubitAssignment, compile_circuit
from photonc.optics import (
    POL_H,
    POL_V,
    BeamSplitter,
    Crossing,
    ModeSpace,
    NetlistFormatError,
    OpticalNetlist,
    PhaseShifter,
    PolarizingBeamSplitter,
    Rotator,
    netlist_from_json,
    netlist_to_json,
)

from conftest import random_circuit

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CIRCUITS = [GOLDEN / "every_gate.qc"] + [
    resources.files("photonc").joinpath(f"circuits/{name}.qc") for name in ("mz", "mz_rotator", "teleport")]


def circuit_source(circuit, pol):
    """The circuit text of a QuantumCircuit, its qubit pol marked polarized."""
    lines = [f"qubits {circuit.n_qubits}", f"pol {pol}"]
    lines += [" ".join([gate.kind.value, *map(str, gate.qubits), *map(repr, gate.params)])
              for gate in circuit.gates]
    return "\n".join(lines) + "\n"


RANDOM_QC = circuit_source(random_circuit(np.random.default_rng(31), 5, 30), 2)
# Empty layers first, last and between, crossings (one moving every path)
# beside other elements and alone, and every kind.
EDGES = OpticalNetlist(ModeSpace(3, True), (
    (), (),
    (PhaseShifter(0, 0.5, POL_H), Crossing((0, 2, 1, 3, 4, 5, 6, 7)), Rotator(3), PhaseShifter(4, -0.0)),
    (), (BeamSplitter(0, 7, 0.25), PolarizingBeamSplitter(1, 6), PhaseShifter(2, 1e16, POL_V)),
    (Crossing((7, 6, 5, 4, 3, 2, 1, 0)),), (), (Rotator(5), Crossing((1, 0, 2, 3, 4, 5, 6, 7))), (), ()),
    ("a", "", "b", "", "c", "d", "", "e", "", "f"), output_relabel=(2, 0, 1, 3, 4, 5, 6, 7))


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_writer_blocks_give_the_same_text(monkeypatch, tmp_path, capsys, block):
    # Each block fills its own grid and tail indices and writes its own
    # layer heads, maps and tails: any cut into blocks, through a layer or
    # at an empty one, gives the text of one block, from netlist_to_json
    # and from CLI compile -o alike.
    random_path = tmp_path / "random.qc"
    random_path.write_text(RANDOM_QC, encoding="ascii")
    expected = {path: (GOLDEN / f"{Path(str(path)).stem}.compile.json").read_text(encoding="utf-8")
                for path in GOLDEN_CIRCUITS}
    assert main(["compile", str(random_path), "-o", str(tmp_path / "one_block.json")]) == 0
    expected[random_path] = (tmp_path / "one_block.json").read_text(encoding="ascii")
    edges = netlist_to_json(EDGES)
    monkeypatch.setattr(optics, "_JSON_BLOCK", block)
    assert netlist_to_json(EDGES) == edges
    for path, text in expected.items():
        out = tmp_path / "out.json"
        assert main(["compile", str(path), "-o", str(out)]) == 0
        assert out.read_text(encoding="ascii") == text, path
        assert netlist_to_json(netlist_from_json(text + " ")) == text
    capsys.readouterr()


def sources(text, tmp_path):
    """The text as a str, as bytes and as an open binary file."""
    path = tmp_path / "net.json"
    path.write_text(text, encoding="ascii")
    with open(path, "rb") as file:
        yield text
        yield text.encode("ascii")
        yield file


@pytest.fixture(scope="module")
def random_text():
    return netlist_to_json(compile_circuit(
        photonc.parse_circuit(RANDOM_QC), QubitAssignment.default(5, 2)))


@pytest.mark.parametrize("window", [1, 50, 150, optics._WINDOW],
                         ids=["1-byte", "under-an-element", "under-a-map", "default"])
@pytest.mark.parametrize("name", ["edges", "random"])
def test_every_window_cut_reads_the_same_table(monkeypatch, tmp_path, random_text, window, name):
    # At 1 byte each window is widened to one element; 50 bytes is less
    # than any element, and 150 more than any but a crossing, whose map (at
    # 3 or 4 path bits) widens its window alone. Layers then split across
    # windows, and empty layers fall at window edges.
    text = netlist_to_json(EDGES) if name == "edges" else random_text
    document = netlist_from_json(text + " ")
    carries = []  # per window, its rows that continue the layer open before it
    layout_table = optics._layout_table

    def spy(u8, lo, hi, n_paths):
        table = layout_table(u8, lo, hi, n_paths)
        carries.append(len(table.kind) - table.offsets[-1])
        return table

    monkeypatch.setattr(optics, "_WINDOW", window)
    monkeypatch.setattr(optics, "_layout_table", spy)
    for source in sources(text, tmp_path):
        carries.clear()
        read = optics._read_written(source)
        assert read is not None and read == document
        assert [column.dtype for column in read.table] == [column.dtype for column in document.table]
        assert (max(carries) > 0) == (len(carries) > 1) == (window < len(text))


@pytest.mark.parametrize("where", ["middle", "last"])
@pytest.mark.parametrize("edit", ["invalid", "whitespace"])
def test_same_length_edit_in_a_window_goes_to_the_document_reader(monkeypatch, tmp_path, random_text,
                                                                  where, edit):
    # A same-length edit of a window already read and dropped: only the
    # write-back, which reads the file again, can refuse it, and the text
    # then loads (or fails, with its message) as the document reader says.
    def outcome(source):
        try:
            return netlist_from_json(source)
        except NetlistFormatError as exc:
            return str(exc)

    lines = random_text.split("\n")
    at = [i for i, line in enumerate(lines) if line.startswith('        "phi": ')]
    at = at[len(at) // 2] if where == "middle" else at[-1]
    if edit == "invalid":
        lines[at] = lines[at].replace(": ", ":x", 1)
    else:
        lines[at] = "\t" + lines[at][1:]
    text = "\n".join(lines)
    expected = outcome(text + " ")
    assert isinstance(expected, OpticalNetlist) == (edit == "whitespace")
    monkeypatch.setattr(optics, "_WINDOW", 4096)
    for source in sources(text, tmp_path):
        assert optics._read_written(source) is None
        assert outcome(source) == expected


def test_load_reads_a_file_that_cannot_seek():
    # A pipe is read whole first, then loaded as bytes are.
    text = netlist_to_json(EDGES)
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe:
        with open(write_fd, "wb") as writer:
            writer.write(text.encode("ascii"))  # less than a pipe's buffer
        assert not pipe.seekable()
        assert netlist_from_json(pipe) == netlist_from_json(text + " ") == EDGES


def photonc_stdout(argv, **run):
    """The stdout of a photonc process running the package under test."""
    package_root = str(Path(photonc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "photonc.cli", *argv], capture_output=True,
                          env=env, timeout=120, **run)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_stats_of_dev_stdin_prints_as_of_the_file(tmp_path, random_text):
    # `photonc stats /dev/stdin < file` reopens the file, which can seek;
    # through a pipe it cannot, and is read whole.
    path = tmp_path / "net.json"
    path.write_text(random_text, encoding="ascii")
    expected = photonc_stdout(["stats", str(path)], stdin=subprocess.DEVNULL)
    assert b"total elements: " in expected
    with open(path, "rb") as file:
        assert photonc_stdout(["stats", "/dev/stdin"], stdin=file) == expected
    assert photonc_stdout(["stats", "/dev/stdin"], input=random_text.encode("ascii")) == expected

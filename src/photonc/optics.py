"""Single-photon optical mode space, linear elements, and netlists.

A mode is one place a single photon can be: a path index, optionally paired
with a polarization (H or V). With polarization in use, mode index
m = path*2 + pol where pol is 0 for H and 1 for V; without it, m = path.
Path bits are ordered most significant first, so path 2 of a 2-bit space is
the path labeled "10". A space has at most MAX_PATH_BITS path bits, and a
path is a Python int: a float or a bool is refused, never truncated.

Element conventions (pinned, every consumer relies on them):

  - BEAMSPLITTER(theta) acts on one path pair, identically on both
    polarizations, with matrix [[cos t, i sin t], [i sin t, cos t]];
    theta = pi/4 is the 50/50 splitter and reflection carries phase i.
  - PHASESHIFTER multiplies the matching modes of one path by exp(i*phi);
    pol_filter selects "H", "V", or "both".
  - ROTATOR exchanges H and V on one path (an exact polarization flip).
  - POLARIZING BEAMSPLITTER passes H straight through on both paths and
    applies [[0, i], [i, 0]] to the two V modes.
  - CROSSING permutes whole paths (both polarizations) with unit
    coefficients; map[p] is the output path for input path p.

An element occupies every mode of each path it acts on, except that an H or
V filtered phase shifter occupies that one mode and a crossing occupies only
the paths it moves. Rotators, polarizing beam splitters and H/V filters need
a polarized space; angles are finite numbers, never bools.

A netlist is an ordered list of layers; elements within one layer must act
on disjoint mode sets. An optional output relabeling (a path permutation
applied after the last layer) models rerouting that is realized by renaming
output ports instead of physically crossing beams.

A netlist's only storage is one read-only ElementTable, a row per element in
netlist order: kind (int8, the class's index in ELEMENT_KINDS), paths a and
b (int64), angle (float64) and pol (int8, a phase shifter filter's index in
(H, V, both), else both), 0 where a kind has no such field; CSR offsets,
layer i being rows offsets[i]:offsets[i+1]; and the crossing maps, one
(crossings, n_paths) int64 array whose row k is the map of the crossing
whose a is k. One table, not a block per kind, keeps the element order
inside a layer that the JSON text and net.layers follow. Angles are float64,
so a library-built int angle 2 is stored and written as 2.0, as loaded.

One builder, _table, makes every table (offsets, crossing numbers, maps that
_permutations checked to permute the paths) for one decoder, _decode, of
element documents only (the JSON loader's, and each element's to_doc() for
the constructor, so a field of the wrong type or shape raises one
NetlistError that names it, the same from either), the loader's reader of
the writer's own text (_read_written, on the ASCII bytes a file is read
into, with no copy: a newline scan a chunk at a time into int32 line
positions, then each field read from the 8-byte word that ends the line the
writer's indent-2 layout puts it on, a kind or pol filter by a byte lookup
and an angle by a hash of its text; kept only if writing the netlist back
gives the same bytes, compared a chunk at a time, which is what catches a
misread), the compiler's columns and subset; then one vectorized checker,
_check, checks path ranges, distinct pairs, polarized-only kinds, finite
angles and disjoint layers by one sort of (layer, mode) keys (and _netlist
refuses a source gate that is not a str). A subset's rows are rows of a
checked table, and dropping rows breaks none of these rules, so its maps and
table are not checked again. Element objects are views that net.layers,
net.elements(), element_modes and element_unitary build on demand; the
kernel, stats, pruning, diagram and JSON writer read the columns. The JSON
format lives here: each kind's keys are spelled in its to_doc and in
_DOC_KEYS, which the decoder and the writer both read. The writer yields the
text a block of elements at a time (_json_pieces): netlist_to_json joins the
blocks, and CLI compile writes them as they come. Each element is at most
five cells of one text vocabulary (_element_blocks): a head, one or two
paths (a map for a crossing), a pair's middle literal, and a tail holding
everything after the last path, one text per distinct kind, pol and angle; a
phase shifter is three cells.

A layer (disjoint 2x2 blocks, phases and path swaps, like a column of a Reck
or Clements mesh) applies to a vector or the rows of a block, for
propagate, netlist_unitary and element_unitary alike, as three classes of
rows over a map pi from each logical mode to the row of x that holds it:
moves (rotators, crossings, a PBS's V exchange) only rewrite pi; scales
(shifters, and the i of each moved PBS V mode) set x[pi[t]] = c*x[pi[t]];
mixes (splitters) set x[pi[t]] = c0*x[pi[t]] + c1*x[pi[p]]. Only scales and
mixes touch x, each coefficient on the left of its product. The output
relabeling rewrites pi too, and one gather at the end puts the rows back in
mode order. Each call builds the rows one block of whole layers at a time
(about _KERNEL_BLOCK elements; the whole table when one block covers it)
straight from the table columns, each class in row order, over modes
path*w + pol (w = 2 on a polarized space, else 1), so a layer is one slice
of each class; as each row stays in its element's modes, a layer updates
at once. verify stays independent of the kernel through the statevec
oracle, and the element conventions through tests against the circuit
module's HADAMARD and PAULI_X constants.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided


class NetlistError(ValueError):
    """Element or netlist inconsistent with its mode space."""


class NetlistFormatError(ValueError):
    """Malformed netlist file."""


class SpaceTooLargeError(NetlistError):
    """Mode space with more path bits than MAX_PATH_BITS."""


# `h` on a location qubit puts 1.5 elements on each path, so one gate's
# netlist grows with 2^n_loc. For a lone `h 0` (2-vCPU host, a fresh process
# each, wall time with the interpreter's start), CLI `compile`, which writes
# its file a block at a time, took 0.29 / 0.34 / 0.51 s at 38 / 49 / 85 MB
# peak RSS for a 3 / 12 / 50 MB file at 14 / 16 / 18 path bits, and `stats`
# of that file 0.28 / 0.38 / 0.72 s at 40 / 60 / 134 MB. The file grows x4
# per two bits, to 200 MB at 20, where `compile` took 1.4 s at 304 MB when
# last measured: one gate's `compile` stays within a third of a gigabyte;
# past 20, ModeSpace refuses before any loop starts. Reading a netlist back
# costs about twice its file: CLI `stats` / `run` of a 44-gate circuit with
# a pol qubit took 0.55 / 0.71 and 2.2 / 2.6 s at 172 and 568 MB peak RSS
# for a 67 / 263 MB file at 14 / 16 path bits. That doubles per bit: about
# 9 GB at 20 bits.
MAX_PATH_BITS = 20


POL_H = "H"
POL_V = "V"
POL_BOTH = "both"
_POL_FILTERS = (POL_H, POL_V, POL_BOTH)


@dataclass(frozen=True)
class ModeSpace:
    """All modes reachable by one photon: 2^n_loc paths, optionally x2 pols."""

    n_loc: int
    uses_pol: bool = False

    def __post_init__(self):
        if type(self.n_loc) is not int:  # a bool or float is refused, never truncated
            raise NetlistError(f"n_loc {self.n_loc!r} is not an int")
        if type(self.uses_pol) is not bool:
            raise NetlistError(f"uses_pol {self.uses_pol!r} is not a bool")
        if self.n_loc < 0:
            raise NetlistError(f"n_loc {self.n_loc} is negative")
        if self.n_loc > MAX_PATH_BITS:
            # 2^n_loc in decimal only while short: Python writes no int of 4300+ digits.
            paths = f"2^{self.n_loc}" + (f" = {1 << self.n_loc}" if self.n_loc < 64 else "")
            raise SpaceTooLargeError(
                f"{self.n_loc} path bits give {paths} paths; "
                f"at most {MAX_PATH_BITS} path bits ({1 << MAX_PATH_BITS} paths) are supported"
            )

    @property
    def n_paths(self) -> int:
        return 1 << self.n_loc

    @property
    def dim(self) -> int:
        return self.n_paths * (2 if self.uses_pol else 1)

    def mode_of(self, location_bits: str | Sequence[int], pol: str | None = None) -> int:
        """Mode index of a path bitstring plus (iff polarized) an H/V flag."""
        bits = location_bits
        if not isinstance(bits, str):  # a 1.9 or a True is refused, never truncated
            items = bits if isinstance(bits, Iterable) else "?"  # so is a bare 5 or None
            bits = "".join(str(b) if type(b) is int and b in (0, 1) else "?" for b in items)
        if len(bits) != self.n_loc or any(c not in "01" for c in bits):
            raise NetlistError(f"location bits {location_bits!r} do not fit {self.n_loc} bit(s)")
        path = int(bits, 2) if bits else 0
        if self.uses_pol:
            if pol not in (POL_H, POL_V):
                raise NetlistError("polarized space needs pol 'H' or 'V'")
            return path * 2 + (0 if pol == POL_H else 1)
        if pol is not None:
            raise NetlistError("space has no polarization modes")
        return path

    def mode_label(self, mode: int) -> str:
        """The path bits of a mode, then ",H" or ",V" on a polarized space."""
        self._check_mode(mode)
        path = mode >> 1 if self.uses_pol else mode
        bits = format(path, f"0{self.n_loc}b") if self.n_loc else ""
        return f"{bits},{POL_V if mode & 1 else POL_H}" if self.uses_pol else bits

    def _check_mode(self, mode: int) -> None:
        if type(mode) is not int:
            raise NetlistError(f"mode {mode!r} is not an int")
        if not 0 <= mode < self.dim:
            raise NetlistError(f"mode {mode} out of range for dim {self.dim}")


def _mode_labels(space: ModeSpace) -> list[str]:
    """space.mode_label(m) of every mode m, in mode order, in one pass."""
    paths = [format(p, f"0{space.n_loc}b") for p in range(space.n_paths)] if space.n_loc else [""]
    return [f"{path},{pol}" for path in paths for pol in (POL_H, POL_V)] if space.uses_pol else paths


@dataclass(frozen=True)
class BeamSplitter:
    path_a: int
    path_b: int
    theta: float = math.pi / 4

    tag = "bs"

    def to_doc(self) -> dict:
        return {"type": self.tag, "paths": [self.path_a, self.path_b], "theta": self.theta}


@dataclass(frozen=True)
class PhaseShifter:
    path: int
    phi: float
    pol_filter: str = POL_BOTH

    tag = "ps"

    def to_doc(self) -> dict:
        return {"type": self.tag, "path": self.path, "pol": self.pol_filter, "phi": self.phi}


@dataclass(frozen=True)
class Rotator:
    path: int

    tag = "rot"

    def to_doc(self) -> dict:
        return {"type": self.tag, "path": self.path}


@dataclass(frozen=True)
class PolarizingBeamSplitter:
    path_a: int
    path_b: int

    tag = "pbs"

    def to_doc(self) -> dict:
        return {"type": self.tag, "paths": [self.path_a, self.path_b]}


@dataclass(frozen=True)
class Crossing:
    path_map: tuple[int, ...]

    tag = "perm"

    def __post_init__(self):
        object.__setattr__(self, "path_map", tuple(self.path_map))

    def to_doc(self) -> dict:
        return {"type": self.tag, "map": list(self.path_map)}


OpticalElement = Union[BeamSplitter, PhaseShifter, Rotator, PolarizingBeamSplitter, Crossing]
ELEMENT_KINDS = (BeamSplitter, PhaseShifter, Rotator, PolarizingBeamSplitter, Crossing)
BS, PS, ROT, PBS, PERM = range(len(ELEMENT_KINDS))  # the codes of the kind column
POL_CODE_BOTH = _POL_FILTERS.index(POL_BOTH)
_POL_CODE = {pol: code for code, pol in enumerate(_POL_FILTERS)}
_TAG_CODE = {kind.tag: code for code, kind in enumerate(ELEMENT_KINDS)}
# The column each constructor field of a kind fills, in dataclass field order.
_FIELD_COLUMNS = (("a", "b", "angle"), ("a", "angle", "pol"), ("a",), ("a", "b"), ("map",))
# Each kind's JSON keys after "type", in to_doc order, and the column each
# fills ("ab": the two paths "paths" lists); the decoder and writer read it.
_DOC_KEYS = ((("paths", "ab"), ("theta", "angle")),
             (("path", "a"), ("pol", "pol"), ("phi", "angle")),
             (("path", "a"),), (("paths", "ab"),), (("map", "map"),))


class ElementTable(NamedTuple):
    """A netlist's elements, one row each in netlist order (module docstring)."""

    kind: np.ndarray
    a: np.ndarray
    b: np.ndarray
    angle: np.ndarray
    pol: np.ndarray
    offsets: np.ndarray
    maps: np.ndarray


def _int_column(values: list, what: str = "path") -> np.ndarray:
    if set(map(type, values)) - {int}:  # a bool or float is refused, never truncated
        bad = next(v for v in values if type(v) is not int)
        raise NetlistError(f"{what} {bad!r} is not an int")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise NetlistError(f"{what} out of range") from None


def _angle_column(values: list) -> np.ndarray:
    for value in values if set(map(type, values)) - {float, int} else ():
        if type(value) is bool or not math.isfinite(value):  # JSON would write a bool as true
            raise NetlistError(f"angle must be a finite number, got {value!r}")
    return np.array(values, dtype=np.float64)


def _pol_column(values: list) -> np.ndarray:
    codes = [_POL_CODE.get(v) if isinstance(v, str) else None for v in values]
    if None in codes:
        raise NetlistError(f"bad pol filter {values[codes.index(None)]!r}")
    return np.array(codes, dtype=np.int8)


_PARSE = {"a": _int_column, "b": _int_column, "angle": _angle_column, "pol": _pol_column}


def _permutations(rows: Sequence, n_paths: int, name: str) -> np.ndarray:
    """The rows as one (len(rows), n_paths) int64 array; raises unless each
    permutes range(n_paths): a length test, then one row sort."""
    if set(map(len, rows)) - {n_paths}:
        raise NetlistError(f"{name} must permute all path indices")
    stack = np.array(rows, dtype=np.int64).reshape(len(rows), n_paths)
    if (np.sort(stack, axis=1) != np.arange(n_paths)).any():
        raise NetlistError(f"{name} must permute all path indices")
    return stack


def _table(kind: np.ndarray, a: np.ndarray, b: np.ndarray, angle: np.ndarray, pol: np.ndarray,
           counts: Sequence[int], maps: np.ndarray) -> ElementTable:
    """The one way an ElementTable is made: counts[i] rows in layer i, each
    crossing's a (written in place) the row of its map in maps, which are
    checked (_permutations) or rows of a checked table's maps."""
    a[kind == PERM] = np.arange(len(maps))
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return ElementTable(kind, a, b, angle, pol, offsets, maps)


def _decode(layers: list, n_paths: int) -> ElementTable:
    """The table of layers of element documents (the to_doc() form, as JSON
    loads it); each field of the wrong type or shape raises one NetlistError
    that names it."""
    items = list(chain.from_iterable(layers))
    if bad := [item for item in items if type(item) is not dict]:
        raise NetlistError(f"element {bad[0]!r} is not a JSON object")
    codes = list(map(_TAG_CODE.get, map(itemgetter("type"), items)))
    if None in codes:
        raise NetlistError(f"unknown element type {items[codes.index(None)]['type']!r}")
    kind, n = np.array(codes, dtype=np.int8), len(items)
    columns = {"a": np.zeros(n, np.int64), "b": np.zeros(n, np.int64), "angle": np.zeros(n),
               "pol": np.full(n, POL_CODE_BOTH, np.int8)}
    for code, keys in enumerate(_DOC_KEYS):  # PERM, the last, sets maps
        rows = np.flatnonzero(kind == code)
        group = list(map(items.__getitem__, rows.tolist()))
        for key, column in keys:
            values = list(map(itemgetter(key), group))
            if column in ("ab", "map") and (bad := [v for v in values if type(v) is not list]):
                raise NetlistError(f"{key} {bad[0]!r} is not a list")
            if column == "map":
                maps = [_int_column(m, "crossing map entry") for m in values]
            elif column != "ab":
                columns[column][rows] = _PARSE[column](values)
            elif set(map(len, values)) - {2}:
                bad = next(p for p in values if len(p) != 2)
                raise NetlistError(f"paths must list exactly two paths, got {bad!r}")
            else:
                columns["a"][rows] = _int_column(list(map(itemgetter(0), values)))
                columns["b"][rows] = _int_column(list(map(itemgetter(1), values)))
    return _table(kind, *columns.values(), list(map(len, layers)),
                  _permutations(maps, n_paths, "crossing map"))


def _footprint(table: ElementTable, space: ModeSpace) -> tuple[np.ndarray, np.ndarray]:
    """(row, mode) of every mode each element occupies, unordered."""
    w = 2 if space.uses_pol else 1
    kind, pol = table.kind, table.pol
    rows, modes = [], []
    for path, acts in ((table.a, kind != PERM), (table.b, (kind == BS) | (kind == PBS))):
        for k in range(w):  # every mode of the path, or the one an H/V filter picks
            r = np.flatnonzero(acts & ((pol == POL_CODE_BOTH) | (pol == k)))
            rows.append(r)
            modes.append(path[r] * w + k)
    crossing, moved = np.nonzero(table.maps != np.arange(space.n_paths))
    rows += [np.flatnonzero(kind == PERM)[crossing]] * w
    modes += [moved * w + k for k in range(w)]
    return np.concatenate(rows), np.concatenate(modes)


def _row_layers(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _check(space: ModeSpace, table: ElementTable) -> None:
    """Every rule of the module docstring that _table has not checked, on the
    whole table at once."""
    n, kind = space.n_paths, table.kind
    paired = (kind == BS) | (kind == PBS)
    for column, acts in ((table.a, kind != PERM), (table.b, paired)):
        bad = acts & ((column < 0) | (column >= n))
        if bad.any():
            raise NetlistError(f"path {column[bad][0]} out of range for {n} path(s)")
    if (paired & (table.a == table.b)).any():
        raise NetlistError("a beam splitter needs two distinct paths")
    if not space.uses_pol and ((kind == ROT) | (kind == PBS) | (table.pol != POL_CODE_BOTH)).any():
        raise NetlistError("rotators, PBSs and H/V filters need a polarized space")
    finite = np.isfinite(table.angle)
    if not finite.all():
        raise NetlistError(f"angle must be a finite number, got {table.angle[~finite][0]}")
    rows, modes = _footprint(table, space)
    keys = np.sort(_row_layers(table.offsets)[rows] * space.dim + modes, kind="stable")
    if (keys[1:] == keys[:-1]).any():
        raise NetlistError("elements within a layer must act on disjoint modes")


def _netlist(space: ModeSpace, table: ElementTable, source_gates: Sequence[str] = (),
             output_relabel: Sequence[int] | None = None, net: OpticalNetlist | None = None):
    """The netlist of a table, checked: the way every netlist but a subset is made."""
    n_layers = len(table.offsets) - 1
    source_gates = tuple(source_gates) or ("",) * n_layers
    bad = [note for note in source_gates if not isinstance(note, str)]
    if bad:
        raise NetlistError(f"source gate {bad[0]!r} is not a str")
    if len(source_gates) != n_layers:
        raise NetlistError("source_gates must annotate each layer")
    _check(space, table)
    if output_relabel is not None:
        output_relabel = tuple(output_relabel)
        relabel = _int_column(list(output_relabel), "output relabeling entry")
        _permutations([relabel], space.n_paths, "output relabeling")
    return _frozen(space, table, source_gates, output_relabel, net)


def _frozen(space: ModeSpace, table: ElementTable, source_gates: tuple[str, ...],
            output_relabel: tuple[int, ...] | None, net: OpticalNetlist | None = None):
    """The netlist of a checked table, its arrays made read-only."""
    net = object.__new__(OpticalNetlist) if net is None else net
    for array in table:
        array.flags.writeable = False
    vars(net).update(space=space, table=table, source_gates=source_gates,
                     output_relabel=output_relabel)
    return net


def element_modes(element: OpticalElement, space: ModeSpace) -> frozenset[int]:
    """The modes an element occupies (its full device footprint); raises
    NetlistError if the element does not fit the space."""
    return frozenset(OpticalNetlist(space, ((element,),)).footprints()[2].tolist())


def element_unitary(element: OpticalElement, space: ModeSpace) -> np.ndarray:
    """Dense unitary of one element on the full mode space: its layer
    kernel applied to the identity."""
    return _stream(np.eye(space.dim, dtype=complex), OpticalNetlist(space, ((element,),)))


@dataclass(eq=False)
class ModeAmplitudes:
    """Complex amplitude per mode. Norm 1 for a single-photon state; the
    same linear propagation applies to unnormalized classical amplitudes.
    Every amplitude is finite: NaN or inf raises NetlistError."""

    space: ModeSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.shape != (self.space.dim,):
            raise NetlistError(
                f"expected {self.space.dim} amplitudes, got {self.amplitudes.shape[0]}"
            )
        finite = np.isfinite(self.amplitudes)
        if not finite.all():
            mode = int(np.argmin(finite))
            raise NetlistError(f"amplitude {self.amplitudes[mode]} of mode {mode} is not finite")

    @classmethod
    def basis(cls, space: ModeSpace, mode: int) -> ModeAmplitudes:
        space._check_mode(mode)
        amps = np.zeros(space.dim, dtype=complex)
        amps[mode] = 1.0
        return cls(space, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


Layer = tuple[OpticalElement, ...]


@dataclass(frozen=True, init=False, eq=False)
class OpticalNetlist:
    """Layered elements over one mode space, packed once into an ElementTable.

    source_gates holds one annotation string per layer (which gate produced
    it); output_relabel, when set, renames output path p to
    output_relabel[p] after the last layer.
    """

    space: ModeSpace
    table: ElementTable
    source_gates: tuple[str, ...]
    output_relabel: tuple[int, ...] | None

    def __init__(self, space: ModeSpace, layers: Iterable[Iterable[OpticalElement]],
                 source_gates: Sequence[str] = (), output_relabel: Sequence[int] | None = None):
        layers = [tuple(layer) for layer in layers]
        for element in chain.from_iterable(layers):
            if not isinstance(element, ELEMENT_KINDS):
                raise NetlistError(f"unknown element {element!r}")
        docs = [[element.to_doc() for element in layer] for layer in layers]
        _netlist(space, _decode(docs, space.n_paths), source_gates, output_relabel, self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpticalNetlist):
            return NotImplemented
        return (self.space, self.source_gates, self.output_relabel) == (
            other.space, other.source_gates, other.output_relabel) and all(map(
                np.array_equal, self.table, other.table))

    @property
    def n_elements(self) -> int:
        return len(self.table.kind)

    @property
    def n_layers(self) -> int:
        return len(self.table.offsets) - 1

    @property
    def layers(self) -> tuple[Layer, ...]:
        """The layers as element objects, built from the table on each call."""
        elements = tuple(self.elements())
        bounds = self.table.offsets.tolist()
        return tuple(elements[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    def elements(self) -> Iterable[OpticalElement]:
        t = self.table
        values = {"a": t.a.tolist(), "b": t.b.tolist(), "angle": t.angle.tolist(),
                  "pol": [_POL_FILTERS[pol] for pol in t.pol.tolist()]}
        crossings = np.flatnonzero(t.kind == PERM).tolist()  # row k of the maps is crossing k's
        values["map"] = dict(zip(crossings, map(tuple, t.maps.tolist())))
        for row, kind in enumerate(t.kind.tolist()):
            yield ELEMENT_KINDS[kind](*(values[name][row] for name in _FIELD_COLUMNS[kind]))

    def footprints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(layer, row, mode) of every mode each element occupies, by row then mode."""
        rows, modes = _footprint(self.table, self.space)
        rows, modes = np.divmod(np.sort(rows * self.space.dim + modes, kind="stable"), self.space.dim)
        return _row_layers(self.table.offsets)[rows], rows, modes

    def subset(self, keep: np.ndarray) -> OpticalNetlist:
        """The netlist of the rows where keep is true; layers left empty are
        dropped with their annotations. Dropping rows breaks no rule of a
        checked table, so the subset is not checked again."""
        t = self.table
        counts = np.bincount(_row_layers(t.offsets)[keep], minlength=self.n_layers)
        table = _table(t.kind[keep], t.a[keep], t.b[keep], t.angle[keep], t.pol[keep],
                       counts[counts > 0], t.maps[t.a[keep & (t.kind == PERM)]])
        notes = tuple(note for note, count in zip(self.source_gates, counts.tolist()) if count)
        return _frozen(self.space, table, notes, self.output_relabel)


_KERNEL_BLOCK = 1 << 16  # element rows (about) whose kernel rows are built at a time


def _layer_blocks(table: ElementTable) -> Iterator[tuple[int, ElementTable]]:
    """(first row, block) of each block of whole layers, in order: the layers
    that start within one run of _KERNEL_BLOCK rows. A block's columns and
    maps are views of the table's; only its offsets and its a, where its
    crossings are renumbered from 0, are new. A lone block is the table."""
    offsets = table.offsets
    firsts = np.flatnonzero(np.diff(offsets[:-1] // _KERNEL_BLOCK, prepend=-1)).tolist()
    if len(firsts) <= 1:
        yield 0, table
        return
    perms = np.flatnonzero(table.kind == PERM)
    for l0, l1 in zip(firsts, [*firsts[1:], len(offsets) - 1]):
        lo, hi = offsets[[l0, l1]].tolist()
        c0, c1 = np.searchsorted(perms, (lo, hi)).tolist()
        kind = table.kind[lo:hi]
        yield lo, ElementTable(kind, table.a[lo:hi] - c0 * (kind == PERM), table.b[lo:hi],
                               table.angle[lo:hi], table.pol[lo:hi], offsets[l0:l1 + 1] - lo,
                               table.maps[c0:c1])


def _class_rows(n: int, dtypes: tuple, pieces: list) -> tuple[np.ndarray, list[np.ndarray]]:
    """One row class of n elements in row order: (ends, columns), element r's
    rows being ends[r]:ends[r + 1]. Each piece (element rows, slot, a value
    per column) fills the row at slot among each listed element's rows."""
    counts = np.bincount(np.concatenate([rows for rows, *_ in pieces]), minlength=n)
    ends = np.concatenate(([0], np.cumsum(counts)))
    columns = [np.empty(ends[-1], dtype) for dtype in dtypes]
    for rows, slot, *values in pieces:
        at = ends[rows] + slot
        for column, value in zip(columns, values):
            column[at] = value
    return ends, columns


def _row_classes(table: ElementTable, space: ModeSpace) -> tuple[tuple[np.ndarray, list], ...]:
    """The moves (t, s), scales (t, c) and mixes (t, p, c0, c1) of a block's
    elements, each class as _class_rows gives it. A move sends logical mode
    s to t: a rotator's two modes, a PBS's two V modes, and both pols of
    each path a crossing changes. A scale multiplies t by c: a shifter's
    modes by exp(i phi), a PBS's V modes by i once moved. A mix is
    c0*x[t] + c1*x[p] for each mode t of a splitter, p the same pol on its
    other path, c0 = cos and c1 = i sin. A PBS's H modes give no row."""
    w = 2 if space.uses_pol else 1
    kind, a, b, pol, n = table.kind, table.a, table.b, table.pol, len(table.kind)
    bs, ps, rot, pbs = (np.flatnonzero(kind == code) for code in (BS, PS, ROT, PBS))
    crossing, path = np.nonzero(table.maps != np.arange(space.n_paths))  # by crossing, then path
    perm = np.flatnonzero(kind == PERM)[crossing]
    slot = (np.arange(len(crossing)) - np.searchsorted(crossing, crossing)) * w
    va, vb = a[pbs] * 2 + 1, b[pbs] * 2 + 1  # a PBS's V modes
    moves = [(rot, 0, a[rot] * 2, a[rot] * 2 + 1), (rot, 1, a[rot] * 2 + 1, a[rot] * 2),
             (pbs, 0, va, vb), (pbs, 1, vb, va)]
    moves += [(perm, slot + k, table.maps[crossing, path] * w + k, path * w + k) for k in range(w)]
    # cos and sin once per distinct shifter or splitter angle, the angles told
    # apart by their bits, as the writer does (-0.0 is not 0.0).
    angles, index = _distinct(table.angle[np.concatenate((ps, bs))].view(np.int64))
    cos, sin = np.cos(angles.view(np.float64)), np.sin(angles.view(np.float64))
    phase, both = (cos + 1j * sin)[index[:len(ps)]], pol[ps] == POL_CODE_BOTH
    scales = [(ps, 0, a[ps] * w + np.where(both, 0, pol[ps]), phase),
              (pbs, 0, va, 1j), (pbs, 1, vb, 1j)]
    if w == 2:
        scales.append((ps[both], 1, a[ps[both]] * 2 + 1, phase[both]))
    cos, sin = cos[index[len(ps):]], (1j * sin)[index[len(ps):]]
    mixes = []
    for k in range(w):
        ta, tb = a[bs] * w + k, b[bs] * w + k
        mixes += [(bs, k, ta, tb, cos, sin), (bs, w + k, tb, ta, cos, sin)]
    return (_class_rows(n, (np.int64,) * 2, moves), _class_rows(n, (np.int64, complex), scales),
            _class_rows(n, (np.int64, np.int64, complex, complex), mixes))


def _stream(x: np.ndarray, netlist: OpticalNetlist) -> np.ndarray:
    """Apply every layer, then the output relabeling, to a mode vector or the
    rows of a (dim, k) block, in place. A map pi gives the row of x that
    holds each logical mode: a layer's moves rewrite pi, then its scales set
    x[pi[t]] = c * x[pi[t]] and its mixes x[pi[t]] = c0*x[pi[t]] +
    c1*x[pi[p]]; the relabeling rewrites pi too, and one gather at the end
    puts the rows back in mode order. The rows are built one block of
    layers at a time (_layer_blocks)."""
    space = netlist.space
    pi = np.arange(space.dim)
    for _, block in _layer_blocks(netlist.table):
        (me, (mt, ms)), (se, (st, sc)), (xe, (xt, xp, c0, c1)) = _row_classes(block, space)
        if x.ndim == 2:
            sc, c0, c1 = sc[:, None], c0[:, None], c1[:, None]
        bounds = (pairwise(ends[block.offsets].tolist()) for ends in (me, se, xe))
        for (m0, m1), (s0, s1), (k0, k1) in zip(*bounds):  # a layer's slice of each class
            if m0 < m1:
                pi[mt[m0:m1]] = pi[ms[m0:m1]]
            if s0 < s1:
                r = pi[st[s0:s1]]
                x[r] = sc[s0:s1] * x[r]
            if k0 < k1:
                r, q = pi[xt[k0:k1]], pi[xp[k0:k1]]
                x[r] = c0[k0:k1] * x[r] + c1[k0:k1] * x[q]
    if netlist.output_relabel is not None:
        w = 2 if space.uses_pol else 1
        relabeled = np.repeat(netlist.output_relabel, w) * w + np.tile(np.arange(w), space.n_paths)
        pi[relabeled] = pi.copy()
    x[...] = x[pi]
    return x


def propagate(netlist: OpticalNetlist, amplitudes: ModeAmplitudes) -> ModeAmplitudes:
    """Stream the amplitude vector through the layer kernel (_stream): moves
    rewrite the mode map, shifters scale and splitters mix. It is the one
    netlist_unitary uses, so the two agree by construction."""
    if amplitudes.space != netlist.space:
        raise NetlistError("amplitude vector and netlist live on different mode spaces")
    return ModeAmplitudes(netlist.space, _stream(amplitudes.amplitudes.copy(), netlist))


def netlist_unitary(netlist: OpticalNetlist) -> np.ndarray:
    """Dense unitary of the whole netlist, output relabeling included: the
    identity streamed through the layer kernel (_stream), where only
    shifters and splitters do arithmetic on the rows, O(layers * dim^2)."""
    return _stream(np.eye(netlist.space.dim, dtype=complex), netlist)


_NEWLINE_INDENT = tuple("\n" + "  " * depth for depth in range(6))


def _json_list(items: Iterable[str], depth: int) -> str:
    """Encoded items as the list json.dumps(indent=2) writes at this depth."""
    inner = _NEWLINE_INDENT[depth + 1]
    body = ("," + inner).join(items)
    return f"[{inner}{body}{_NEWLINE_INDENT[depth]}]" if body else "[]"


_PAIR = "[\n          $a,\n          $b\n        ]"  # the "ab" column: a list of the two paths
_ELEMENT_TEMPLATES = tuple(  # by kind code, a document split at its $slots: literal, slot, ...
    re.split(r"\$(\w+)", f'{{\n        "type": "{kind.tag}",\n        ' + ",\n        ".join(
        f'"{key}": ' + (_PAIR if column == "ab" else f"${column}") for key, column in keys)
        + "\n      }")
    for kind, keys in zip(ELEMENT_KINDS, _DOC_KEYS))
# By kind code, the template after its path slots (which come first) as a
# %-format of the slots left: a tail, filled with an angle and a pol.
_TAILS = tuple("".join(f"%({piece})s" if i % 2 else piece for i, piece in enumerate(pieces[2 * sum(
    slot in ("a", "b", "map") for slot in pieces[1::2]):])) for pieces in _ELEMENT_TEMPLATES)
_JSON_BLOCK = 1 << 13  # element rows turned into text at a time


def _layer_gap(prev: int, k: int) -> str:
    """The layers text after layer prev's last element (after the list's "["
    when prev is -1) up to item k: close prev, write the layers between as []."""
    return ("\n    ]," if prev >= 0 else "") + "\n    []," * (k - prev - 1) + "\n    "


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) of a 1-D array, by one sort and
    one search: no argsort, and not the hash table that NumPy 2's np.unique
    of the values alone builds, which was slower on these keys and, the
    first time it ran, raised a process's peak RSS by about a megabyte."""
    ordered = np.sort(values)
    distinct = np.append(ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]])
    return distinct, np.searchsorted(distinct, values)


def _element_blocks(table: ElementTable, starts: list[int]) -> Iterator[str]:
    """The elements' text, a block of rows a string. Row r of an index grid
    over a vocabulary of texts is element r's five cells: its head (a
    separator, or the gap and "[" before layer starts[i], then its kind's
    opening literal), its first path or map, for a splitter pair the middle
    literal and second path, and its tail: every literal, pol and angle
    after its last path, one text per distinct (kind, pol, angle bits; -0.0
    is not 0.0). A row's pad cells are dropped before the join. Each path
    an element or a map names (by a mask, with no sort) is written once,
    each map from the path texts. Cells are int32 unless the vocabulary
    needs more."""
    n, kind, offsets = len(table.kind), table.kind.astype(np.int64), table.offsets
    paired = (kind == BS) | (kind == PBS)
    used = np.zeros(table.maps.shape[1], bool)  # path p's text is vocabulary entry p, "" if unused
    used[table.a[kind != PERM]] = used[table.b[paired]] = used[table.maps] = True
    path_texts = [repr(path) if use else "" for path, use in enumerate(used.tolist())]
    angles, angle_index = _distinct(table.angle.view(np.int64))
    # A tail per distinct (angle bits, kind, pol): pol in bits 0-1, kind in 2-4, the angle's index above.
    keys, tail_index = _distinct(angle_index << 5 | kind << 2 | table.pol)
    angle_texts = list(map(float.__repr__, angles.view(np.float64).tolist()))
    tails = [_TAILS[key >> 2 & 7] % {"angle": angle_texts[key >> 5],
                                      "pol": _json_string(_POL_FILTERS[key & 3])} for key in keys.tolist()]
    parts = [
        [",\n      " + pieces[0] for pieces in _ELEMENT_TEMPLATES],  # a layer's later heads
        [_layer_gap(prev, k) + "[\n      " + _ELEMENT_TEMPLATES[code][0]
         for prev, k, code in zip([-1, *starts], starts, kind[offsets[starts]].tolist())],
        path_texts,
        [_json_list(row, 4) for row in np.array(path_texts, dtype=object)[table.maps].tolist()],
        [pieces[2] for pieces in _ELEMENT_TEMPLATES],  # a pair's middle literal
        tails,
    ]
    head, lead, path, maps, middle, tail, size = np.cumsum([0, *map(len, parts)]).tolist()
    grid = np.empty((n, 5), np.int32 if size < 1 << 31 else np.int64)  # int32 halves int64's bytes
    grid[:, 0] = head + kind
    grid[offsets[starts], 0] = lead + np.arange(len(starts))
    grid[:, 1] = np.where(kind == PERM, maps, path) + table.a
    grid[:, 2] = middle + kind
    grid[:, 3] = path + table.b
    grid[:, 4] = tail + tail_index
    keep = paired[:, None] | np.array([True, True, False, False, True])  # cells 2, 3: pairs only
    texts = np.array([text for part in parts for text in part], dtype=object)
    for i in range(0, n, _JSON_BLOCK):
        yield "".join(texts.take(grid[i:i + _JSON_BLOCK][keep[i:i + _JSON_BLOCK]]).tolist())


def _json_pieces(netlist: OpticalNetlist) -> Iterator[str]:
    """netlist_to_json's text in order: the head, each block of elements, the tail."""
    space, n_layers = netlist.space, netlist.n_layers
    starts = np.flatnonzero(np.diff(netlist.table.offsets)).tolist()  # the non-empty layers
    end = _layer_gap(starts[-1] if starts else -1, n_layers).rstrip()[:-1]  # no last ","
    meta = '"source_gates": ' + _json_list(map(_json_string, netlist.source_gates), 2)
    if netlist.output_relabel is not None:
        meta += ',\n    "output_relabel": ' + _json_list(map(int.__repr__, netlist.output_relabel), 2)
    yield (f'{{\n  "version": 1,\n  "n_loc": {space.n_loc:d},\n'
           f'  "uses_pol": {"true" if space.uses_pol else "false"},\n  "layers": [')
    yield from _element_blocks(netlist.table, starts)
    yield end + ("\n  ]" if n_layers else "]") + f',\n  "meta": {{\n    {meta}\n  }}\n}}\n'


def netlist_to_json(netlist: OpticalNetlist) -> str:
    """Serialize a netlist; floats keep full precision (exact round-trip).

    The text is byte for byte json.dumps(doc, indent=2) + "\n" of {version,
    n_loc, uses_pol, layers: [[element.to_doc()]], meta: {source_gates,
    output_relabel?}} over the views of netlist.layers, the tests' reference,
    with no pure-Python encoder, element object or format per element: each
    element is three or five cells (a head, its paths or map, a pair's
    middle literal, a tail of its pol and angle) of one index grid over a
    text vocabulary (_element_blocks)."""
    return "".join(_json_pieces(netlist))


_WRITTEN_HEAD = re.compile(
    rb'\{\n  "version": 1,\n  "n_loc": (\d+),\n  "uses_pol": (true|false),\n  "layers": \[')
_WRITTEN_META = b',\n  "meta": '
_SCAN_CHUNK = 1 << 16  # text bytes scanned for newlines, or compared with the write-back, at a time
_FLOAT_BLOCK = 1 << 16  # angle texts keyed at a time
# The writer's layout, read back: an element's "{" sits at column 6 and a
# layer's "[" at column 4. Each field of an element is the text that ends
# its line (before a ","), the line found from the "{" line: the tag on the
# next one, each slot of its kind's template where the template puts it,
# a map's entries on the lines after its slot's. Every field is read from
# the 8-byte little-endian word that ends where its text ends.
_SLOT_LINES = tuple({slot: head.count("\n") for slot, head in zip(t[1::2], accumulate(t[::2]))}
                    for t in _ELEMENT_TEMPLATES)


def _byte_codes(quoted: Iterable[str]) -> np.ndarray:
    """A byte lookup: code i at the xor of the 3 bytes before quoted text
    i's closing quote (its key), 0 at every other byte."""
    keys = [np.bitwise_xor.reduce(list(text[-4:-1].rjust(3).encode())) for text in quoted]
    return np.bincount(keys, range(len(keys)), 256).astype(np.int8)


# The code of a tag or of a pol filter, by its key: the two sets of keys differ.
_CODES = _byte_codes(f'"{kind.tag}"' for kind in ELEMENT_KINDS) + _byte_codes(map(_json_string, _POL_FILTERS))
# Odd multipliers that hash the three words of a float's 24-byte window to
# one, each word's high half folded into its low half first: a product
# carries a change only upward, so a change in a top byte alone would
# reach only the hash's top byte.
_WINDOW_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], np.uint64)


def _layout_ints(words: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The ints whose texts end at ends, or just before a "," there: the
    digits of the 8 bytes before (7 before a ","), which hold every int the
    writer writes. Each is a word with the "," shifted out, every byte that
    is no digit zeroed (a leading 0), then digits summed by 2, 4 and 8."""
    x = words[ends - 8]
    x = np.where(x >> 56 == ord(","), x << 8, x) ^ 0x3030303030303030  # a digit's byte: its value
    x &= ~(((x + 0x7676767676767676) >> 7 & 0x0101010101010101) * 255)  # ASCII: no carry
    for width, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        x = (x * 10 ** (width // 8) + (x >> width)) & mask
    return x.astype(np.int64)


def _layout_codes(words: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The code (_CODES) of the tag or pol filter whose quoted text ends
    before the "," that ends each line."""
    x = words[ends - 8]
    return _CODES[(x >> 24 ^ x >> 32 ^ x >> 40) & 255]


def _layout_floats(words: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The floats whose texts end at ends, each the last word of the 24 bytes
    before (a float's repr has at most 24). The windows of a block of
    _FLOAT_BLOCK are keyed by their hashes (_WINDOW_HASH), and each distinct
    hash's text is parsed once: texts that share a hash read as one, which
    only the write-back can catch."""
    floats = np.empty(len(ends))
    for lo in range(0, len(ends), _FLOAT_BLOCK):
        windows = as_strided(words, (len(words) - 16, 3), (1, 8))[ends[lo:lo + _FLOAT_BLOCK] - 24]
        keys, index = _distinct((windows ^ windows >> 32) @ _WINDOW_HASH)
        first = np.empty(len(keys), np.intp)
        first[index] = np.arange(len(index))  # a window of each key
        values = [float(text.tobytes().split()[-1]) for text in windows[first]]
        floats[lo:lo + _FLOAT_BLOCK] = np.array(values)[index]
    return floats


_LAYOUT_READ = {"a": _layout_ints, "b": _layout_ints, "angle": _layout_floats, "pol": _layout_codes}


def _layout_table(u8: np.ndarray, lo: int, hi: int, n_paths: int) -> ElementTable:
    """The table of the layers text u8[lo:hi] of a text netlist_to_json
    wrote, each field read on the line its layout gives (_SLOT_LINES).
    Text in any other layout raises or reads as another table."""
    # Each line's start, int32 while the text is under 2 GB, from a newline
    # scan of one chunk at a time: no mask spans the text. Once the element
    # and layer opens are found, each line's end is written over its start.
    index = np.int32 if hi < 1 << 31 else np.int64
    starts = np.concatenate([np.zeros(0, index)] + [
        np.flatnonzero(u8[i:min(i + _SCAN_CHUNK, hi)] == 10).astype(index) + (i + 1)
        for i in range(lo, hi, _SCAN_CHUNK)])
    elements = np.flatnonzero(u8[starts + 6] == ord("{")).astype(index)
    opens = np.flatnonzero(u8[starts + 4] == ord("["))
    counts = np.diff(np.searchsorted(elements, np.append(opens, len(starts))))
    ends = starts
    ends[:-1], ends[-1:] = starts[1:] - 1, hi
    words = np.ndarray((len(u8) - 7,), "<u8", u8, 0, (1,))  # the unaligned word at each byte
    kind = _layout_codes(words, ends[elements + 1])
    columns = {"a": np.zeros_like(kind, np.int64), "b": np.zeros_like(kind, np.int64),
               "angle": np.zeros_like(kind, float), "pol": np.full_like(kind, POL_CODE_BOTH)}
    for slot, read in _LAYOUT_READ.items():  # each column at once, over the kinds that have it
        line = np.array([lines.get(slot, -1) for lines in _SLOT_LINES], np.int8)[kind]
        rows = np.flatnonzero(line >= 0).astype(index)
        columns[slot][rows] = read(words, ends[elements[rows] + line[rows]])
    perms = elements[kind == PERM]
    if len(perms) * n_paths > len(ends):  # more entries than lines
        raise IndexError("crossing maps overrun the text")
    # A map's entries fill the lines after its slot's.
    maps = _layout_ints(words, ends[perms[:, None] + np.arange(n_paths) + _SLOT_LINES[PERM]["map"] + 1])
    return _table(kind, *columns.values(), counts, _permutations(maps, n_paths, "crossing map"))


def _read_written(data: bytes | str) -> OpticalNetlist | None:
    """The netlist of a text that netlist_to_json wrote, or None.

    A JSON document of a wide netlist is a dict, a list and boxed numbers
    per element: about 48 MB of small objects for 110k elements. The few
    objects that outlive a load pin the allocator arenas those filled, so a
    process that loads netlist after netlist grew, and its peak memory
    changed from run to run. This reads each field on the line the writer's
    layout puts it on instead (_layout_table), in the ASCII bytes themselves
    (a str is encoded first), and takes the result only if writing it gives
    back those bytes exactly, compared a chunk at a time; any other text is
    left to the document reader, errors and all."""
    if not data.isascii():
        return None
    if isinstance(data, str):
        data = data.encode("ascii")
    head, end = _WRITTEN_HEAD.match(data), data.rfind(_WRITTEN_META)
    if head is None or end < 0:
        return None
    try:
        space = ModeSpace(int(head[1]), head[2] == b"true")
        meta = json.loads(data[end + len(_WRITTEN_META):-2].decode("ascii"))
        table = _layout_table(np.frombuffer(data, np.uint8), head.end(), end, space.n_paths)
        net = _netlist(space, table, meta["source_gates"], meta.get("output_relabel"))
    except (ArithmeticError, AttributeError, LookupError, RecursionError, TypeError, ValueError):
        return None  # not the writer's text: the document reader says why
    at = 0
    for piece in _json_pieces(net):  # a chunk at a time: no bytes copy of a whole block
        for i in range(0, len(piece), _SCAN_CHUNK):
            if not data.startswith(piece[i:i + _SCAN_CHUNK].encode("ascii"), at + i):
                return None
        at += len(piece)
    return net if at == len(data) else None


def netlist_from_json(text: str | bytes) -> OpticalNetlist:
    """The netlist of a JSON text, or of a file's bytes: read by their line
    layout when netlist_to_json wrote them, else as a JSON document, the
    bytes decoded as UTF-8 (UnicodeDecodeError if they are not) with their
    newlines translated as a text-mode read does."""
    net = _read_written(text)
    if net is not None:
        return net
    if isinstance(text, bytes):  # json.loads would guess UTF-16 or UTF-32 from the bytes
        text = text.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise NetlistFormatError(f"invalid netlist JSON: {exc}") from None
    try:
        version, n_loc, uses_pol = doc["version"], doc["n_loc"], doc["uses_pol"]
        if type(version) is not int or version != 1:
            raise NetlistFormatError(f"unsupported netlist version {version!r}")
        space = ModeSpace(n_loc, uses_pol)
        layers, meta = doc["layers"], doc.get("meta", {})
        if type(layers) is not list or set(map(type, layers)) - {list}:
            raise NetlistFormatError("layers must be a JSON list of element lists")
        if type(meta) is not dict:
            raise NetlistFormatError("meta must be a JSON object")
        notes = meta.get("source_gates", [])
        if type(notes) is not list:
            raise NetlistFormatError("source_gates must be a JSON list")
        table = _decode(layers, space.n_paths)
        return _netlist(space, table, notes, meta.get("output_relabel"))
    except (NetlistFormatError, SpaceTooLargeError):
        raise
    except KeyError as exc:
        raise NetlistFormatError(f"invalid netlist document: missing key {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise NetlistFormatError(f"invalid netlist document: {exc}") from None

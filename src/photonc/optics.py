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

One builder, _table, makes every table (offsets, crossing numbers, maps
checked to permute the paths) for one decoder, _decode, of element documents
(the JSON loader's) or of element objects (the constructor's, by the
attributes each to_doc reads), the loader's reader of the writer's own text
(_read_written: one newline scan, then each field read from the end of the
line the writer's indent-2 layout puts it on; kept only if writing the
netlist back gives the same text, compared a block at a time), the
compiler's columns and subset; then one vectorized checker, _check, checks
path ranges, distinct pairs, polarized-only kinds, finite angles and
disjoint layers by one sort of (layer, mode) keys (and _netlist refuses a
source gate that is not a str). Element objects are views that net.layers,
net.elements(), element_modes and element_unitary build on demand; the
kernel, stats, pruning, diagram and JSON writer read the columns. The JSON
format lives here: each kind's keys are spelled in its to_doc and in
_DOC_KEYS, which the decoder and the writer both read. The writer yields
the text a block of elements at a time (_json_pieces): netlist_to_json
joins the blocks, and CLI compile writes them as they come.

A layer (disjoint 2x2 blocks, phases and path swaps, like a column of a Reck
or Clements mesh) applies as one gather update x[t] = c0*x[s0] + c1*x[s1]
to a vector or the rows of a block, shared by propagate, netlist_unitary
and element_unitary. Each call builds the rows of the whole netlist, over
modes path*w + pol (w = 2 on a polarized space, else 1), one per footprint
mode and ordered by element, so a layer is one slice; as each row stays in
its element's modes, a layer updates at once. verify stays independent of
the kernel through the statevec oracle, and the element conventions
through tests against the circuit module's HADAMARD and PAULI_X constants.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class NetlistError(ValueError):
    """Element or netlist inconsistent with its mode space."""


class NetlistFormatError(ValueError):
    """Malformed netlist file."""


class SpaceTooLargeError(NetlistError):
    """Mode space with more path bits than MAX_PATH_BITS."""


# `h` on a location qubit puts 1.5 elements on each path, so one gate's
# netlist grows with 2^n_loc. For a lone `h 0` (2-vCPU host), compile_circuit
# took 3 / 14 / 55 / 178 ms at 14 / 16 / 18 / 20 path bits, and CLI
# `compile`, which writes its file a block at a time, 0.02 / 0.10 / 0.36 /
# 1.4 s at 37 / 49 / 100 / 304 MB peak RSS for a 3 / 12 / 50 / 200 MB file:
# x4 per two bits, so about 6 s / 1.2 GB for an 800 MB file at 22. At 20
# bits one gate's `compile` stays within a third of a gigabyte; past 20,
# ModeSpace refuses before any loop starts.
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
            raise NetlistError(f"location qubit count {self.n_loc!r} is not an int")
        if type(self.uses_pol) is not bool:
            raise NetlistError(f"uses_pol {self.uses_pol!r} is not a bool")
        if self.n_loc < 0:
            raise NetlistError("negative location qubit count")
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


def _int_column(values: list, from_json: bool, what: str = "path") -> np.ndarray:
    if set(map(type, values)) - {int}:  # a bool or float is refused, never truncated
        bad = next(v for v in values if type(v) is not int)
        if from_json:
            raise NetlistFormatError(f"{what} must be a JSON int, got {bad!r}")
        raise NetlistError(f"{what} {bad!r} is not an int")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise NetlistError(f"{what} out of range") from None


def _angle_column(values: list, from_json: bool) -> np.ndarray:
    for value in values if set(map(type, values)) - {float, int} else ():
        if type(value) is bool or not math.isfinite(value):  # JSON would write a bool as true
            raise NetlistError(f"angle must be a finite number, got {value!r}")
    return np.array(values, dtype=np.float64)


def _pol_column(values: list, from_json: bool) -> np.ndarray:
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
           counts: Sequence[int], maps: Sequence, n_paths: int) -> ElementTable:
    """The one way an ElementTable is made: counts[i] rows in layer i, each
    crossing's a (written in place) the row of its map in the checked maps."""
    a[kind == PERM] = np.arange(len(maps))
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    maps = _permutations(maps, n_paths, "crossing map")
    return ElementTable(kind, a, b, angle, pol, offsets, maps)


def _decode(layers: list, n_paths: int, from_json: bool) -> ElementTable:
    """The table of layers of element documents (to_doc() form) when
    from_json, else of element objects, read by their attributes as
    _FIELD_COLUMNS maps them; a field of the wrong type raises
    NetlistFormatError when from_json, else NetlistError."""
    items = list(chain.from_iterable(layers))
    tag = itemgetter("type") if from_json else attrgetter("tag")
    codes = list(map(_TAG_CODE.get, map(tag, items)))
    if None in codes:
        raise NetlistFormatError(f"unknown element type {items[codes.index(None)].get('type')!r}")
    kind, n = np.array(codes, dtype=np.int8), len(items)
    columns = {"a": np.zeros(n, np.int64), "b": np.zeros(n, np.int64), "angle": np.zeros(n),
               "pol": np.full(n, POL_CODE_BOTH, np.int8)}
    for code, (keys, cls) in enumerate(zip(_DOC_KEYS, ELEMENT_KINDS)):  # PERM, the last, sets maps
        rows = np.flatnonzero(kind == code)
        group = list(map(items.__getitem__, rows.tolist()))
        for key, column in keys if from_json else zip(cls.__match_args__, _FIELD_COLUMNS[code]):
            values = list(map((itemgetter if from_json else attrgetter)(key), group))
            if column == "map":
                maps = [_int_column(list(m), from_json, "crossing map entry") for m in values]
            elif column != "ab":
                columns[column][rows] = _PARSE[column](values, from_json)
            elif set(map(len, values)) - {2}:
                bad = next(p for p in values if len(p) != 2)
                raise NetlistFormatError(f"paths must list exactly two paths, got {bad!r}")
            else:
                columns["a"][rows] = _int_column(list(map(itemgetter(0), values)), from_json)
                columns["b"][rows] = _int_column(list(map(itemgetter(1), values)), from_json)
    return _table(kind, *columns.values(), list(map(len, layers)), maps, n_paths)


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
    """The netlist of a table, checked: the one way every netlist is made."""
    net = object.__new__(OpticalNetlist) if net is None else net
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
        relabel = _int_column(list(output_relabel), False, "output relabeling entry")
        _permutations([relabel], space.n_paths, "output relabeling")
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
    same linear propagation applies to unnormalized classical amplitudes."""

    space: ModeSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.shape != (self.space.dim,):
            raise NetlistError(
                f"expected {self.space.dim} amplitudes, got {self.amplitudes.shape[0]}"
            )

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
        _netlist(space, _decode(layers, space.n_paths, False), source_gates, output_relabel, self)

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
        keys = np.sort(rows * self.space.dim + modes, kind="stable")
        rows, modes = np.divmod(keys, self.space.dim)
        return _row_layers(self.table.offsets)[rows], rows, modes

    def subset(self, keep: np.ndarray) -> OpticalNetlist:
        """The netlist of the rows where keep is true; layers left empty are
        dropped with their annotations."""
        t = self.table
        counts = np.bincount(_row_layers(t.offsets)[keep], minlength=self.n_layers)
        table = _table(t.kind[keep], t.a[keep], t.b[keep], t.angle[keep], t.pol[keep],
                       counts[counts > 0], t.maps[t.a[keep & (t.kind == PERM)]], self.space.n_paths)
        notes = [note for note, count in zip(self.source_gates, counts.tolist()) if count]
        return _netlist(self.space, table, notes, self.output_relabel)


def _kernel_rows(netlist: OpticalNetlist) -> tuple[np.ndarray, ...]:
    """The gather rows (row, t, s0, c0, s1, c1) of every element, by row: one
    per footprint mode t, reading t and the partner mode p the element
    couples into it. A splitter mixes the two (c0 = cos, c1 = i sin), a
    shifter scales t, and a rotator, a crossing and a PBS on its V modes move
    p to t, the PBS with phase i."""
    table, w = netlist.table, 2 if netlist.space.uses_pol else 1
    _, row, t = netlist.footprints()
    kind, angle = table.kind[row], table.angle[row]
    path, k = t // w, t % w
    splitter = kind == BS
    # The same pol on the other path of a pair, the other pol of a rotator's path.
    p = np.where(splitter | (kind == PBS), (table.a[row] + table.b[row] - path) * w + k,
                 np.where(kind == ROT, t ^ 1, t))
    crossing = kind == PERM  # moves map.index(d) to d, from each map's inverse
    inverse = np.argsort(table.maps, axis=1)
    p[crossing] = inverse[table.a[row[crossing]], path[crossing]] * w + k[crossing]
    moves = (kind == ROT) | (kind == PERM) | ((kind == PBS) & (k == 1))
    s0 = np.where(moves, p, t)
    c0 = np.where(splitter, np.cos(angle), np.where(moves & (kind == PBS), 1j, 1.0))
    c0[kind == PS] = np.cos(angle[kind == PS]) + 1j * np.sin(angle[kind == PS])
    c1 = np.where(splitter, 1j * np.sin(angle), 0)
    return row, t, s0, c0, np.where(splitter, p, s0), c1


def _stream(x: np.ndarray, netlist: OpticalNetlist) -> np.ndarray:
    """Apply every layer, one slice of the gather rows each, then the output
    relabeling, in place to a mode vector or the rows of a (dim, k) block."""
    space = netlist.space
    row, t, s0, c0, s1, c1 = _kernel_rows(netlist)
    if x.ndim == 2:
        c0, c1 = c0[:, None], c1[:, None]
    bounds = np.searchsorted(row, netlist.table.offsets).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if lo < hi:
            x[t[lo:hi]] = c0[lo:hi] * x[s0[lo:hi]] + c1[lo:hi] * x[s1[lo:hi]]
    if netlist.output_relabel is not None:
        w = 2 if space.uses_pol else 1
        relabeled = np.repeat(netlist.output_relabel, w) * w + np.tile(np.arange(w), space.n_paths)
        x[relabeled] = x.copy()
    return x


def propagate(netlist: OpticalNetlist, amplitudes: ModeAmplitudes) -> ModeAmplitudes:
    """Stream the amplitude vector through the layer kernels. They are the
    ones netlist_unitary uses, so the two agree by construction."""
    if amplitudes.space != netlist.space:
        raise NetlistError("amplitude vector and netlist live on different mode spaces")
    return ModeAmplitudes(netlist.space, _stream(amplitudes.amplitudes.copy(), netlist))


def netlist_unitary(netlist: OpticalNetlist) -> np.ndarray:
    """Dense unitary of the whole netlist, output relabeling included: the
    identity streamed through the layer kernels, O(layers * dim^2)."""
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
_JSON_BLOCK = 1 << 13  # element rows turned into text at a time


def _layer_gap(prev: int, k: int) -> str:
    """The layers text after layer prev's last element (after the list's "["
    when prev is -1) up to item k: close prev, write the layers between as []."""
    return ("\n    ]," if prev >= 0 else "") + "\n    []," * (k - prev - 1) + "\n    "


def _element_blocks(table: ElementTable, starts: list[int]) -> Iterator[str]:
    """The elements' text, a block of rows a string. Row r of an index grid
    over a vocabulary of texts is element r's lead (a separator, or the gap
    and "[" before layer starts[i]) and its kind's template; each path that
    an element or a crossing map names (by a mask, with no sort), angle
    (by its bits: -0.0 is not 0.0), pol and map is written once, each map
    from the path texts. The grid's cells are int32 unless the vocabulary
    needs more."""
    n, kind = len(table.kind), table.kind
    used = np.zeros(table.maps.shape[1], bool)  # path p's text is vocabulary entry p, "" if unused
    used[table.a[kind != PERM]] = used[table.b[np.isin(kind, (BS, PBS))]] = used[table.maps] = True
    path_texts = [repr(path) if use else "" for path, use in enumerate(used.tolist())]
    angles, angle_index = np.unique(table.angle.view(np.int64), return_inverse=True)
    parts = [
        ["", ",\n      "],  # pads short rows; separates two elements of a layer
        [piece for pieces in _ELEMENT_TEMPLATES for piece in (pieces[::2] + ["", ""])[:4]],
        path_texts,
        list(map(float.__repr__, angles.view(np.float64).tolist())),
        list(map(_json_string, _POL_FILTERS)),
        [_json_list(map(path_texts.__getitem__, path_map), 4) for path_map in table.maps.tolist()],
        [_layer_gap(prev, k) + "[\n      " for prev, k in zip([-1, *starts], starts)],
    ]
    _, literal, path, angle, pol, maps, lead, size = np.cumsum([0, *map(len, parts)]).tolist()
    slots = {"a": (path, table.a), "b": (path, table.b), "map": (maps, table.a),
             "angle": (angle, angle_index), "pol": (pol, table.pol.astype(np.int64))}
    # A row: a lead, three literal/slot pairs, a last literal; int32 halves int64's bytes.
    grid = np.zeros((n, 8), np.int32 if size < 1 << 31 else np.int64)
    grid[:, 0] = 1  # the separator, but the lead of each layer's first element
    grid[table.offsets[starts], 0] = lead + np.arange(len(starts))
    grid[:, 1::2] = literal + np.arange(4) + 4 * kind[:, None]
    for code, pieces in enumerate(_ELEMENT_TEMPLATES):
        rows = np.flatnonzero(kind == code)
        for col, slot in enumerate(pieces[1::2], 1):
            base, values = slots[slot]
            grid[rows, 2 * col] = base + values[rows]
    texts = np.array([text for part in parts for text in part], dtype=object)
    for i in range(0, n, _JSON_BLOCK):
        yield "".join(texts.take(grid[i:i + _JSON_BLOCK].reshape(-1)).tolist())


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
    with no pure-Python encoder, element object or format per element: the
    elements are one index grid over a text vocabulary (_element_blocks)."""
    return "".join(_json_pieces(netlist))


_WRITTEN_HEAD = re.compile(
    r'\{\n  "version": 1,\n  "n_loc": (\d+),\n  "uses_pol": (true|false),\n  "layers": \[')
_WRITTEN_META = ',\n  "meta": '
# The writer's layout, read back: an element's "{" sits at column 6 and a
# layer's "[" at column 4. Each field of an element is the text that ends
# its line (before a ","), the line found from the "{" line: the tag on the
# next one, each slot of its kind's template where the template puts it,
# a map's entries on the lines after its slot's. A tag or a pol filter is
# told by the 4 bytes before its ",", which end its quoted text.
_SLOT_LINES = tuple({slot: head.count("\n") for slot, head in zip(t[1::2], accumulate(t[::2]))}
                    for t in _ELEMENT_TEMPLATES)
_TAG_KEYS = np.array([f'"{kind.tag}"'[-4:] for kind in ELEMENT_KINDS], "S4").view(">u4")
_POL_KEYS = np.array([_json_string(pol)[-4:].rjust(4) for pol in _POL_FILTERS], "S4").view(">u4")


def _layout_ints(u8: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The ints whose texts end at ends, or just before a "," there: the
    digits of the 8 bytes before, which hold every int the writer writes."""
    ends = ends - (u8[ends - 1] == ord(","))
    # A byte below "0" wraps past 9; einsum makes no int64 copy of the digits.
    digits = sliding_window_view(u8, 8)[ends - 8] - np.uint8(ord("0"))
    return np.einsum("...i,i", digits * (digits < 10), 10 ** np.arange(7, -1, -1))


def _layout_codes(u8: np.ndarray, ends: np.ndarray, keys: np.ndarray = _POL_KEYS) -> np.ndarray:
    """The index in keys (by default a pol filter's code) of the 4 bytes
    before the "," that ends each line."""
    return np.argmax(sliding_window_view(u8, 4)[ends - 5].view(">u4") == keys, axis=1)


def _layout_floats(u8: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The floats whose texts end at ends, each the last word of the 24 bytes
    before (a float's repr has at most 24). A window is its text's exact
    key, so after one sort of the windows each distinct text is parsed once."""
    windows = sliding_window_view(u8, 24)[ends - 24]
    order = np.lexsort(windows.view(np.uint64).T)
    first = np.append(True, (np.diff(windows.view(np.uint64)[order], axis=0) != 0).any(axis=1))
    first, index = first[:len(order)], np.empty(len(order), np.int64)  # no texts, no first one
    index[order] = np.cumsum(first) - 1
    return np.array([float(bytes(text).split()[-1]) for text in windows[order[first]]])[index]


_LAYOUT_READ = {"a": _layout_ints, "b": _layout_ints, "angle": _layout_floats, "pol": _layout_codes}


def _layout_table(u8: np.ndarray, lo: int, hi: int, n_paths: int) -> ElementTable:
    """The table of the layers text u8[lo:hi] of a text netlist_to_json
    wrote, each field read on the line its layout gives (_SLOT_LINES).
    Text in any other layout raises or reads as another table."""
    # Each line's start and end, int32 while the text is under 2 GB.
    starts = np.flatnonzero(u8[lo:hi] == 10).astype(np.int32 if hi < 1 << 31 else np.int64) + lo + 1
    ends = np.concatenate((starts[1:] - 1, [hi]), dtype=starts.dtype)
    elements = np.flatnonzero(u8[starts + 6] == ord("{"))
    opens = np.flatnonzero(u8[starts + 4] == ord("["))
    counts = np.diff(np.searchsorted(elements, np.append(opens, len(starts))))
    kind = _layout_codes(u8, ends[elements + 1], _TAG_KEYS).astype(np.int8)
    columns = {"a": np.zeros_like(kind, np.int64), "b": np.zeros_like(kind, np.int64),
               "angle": np.zeros_like(kind, float), "pol": np.full_like(kind, POL_CODE_BOTH)}
    for slot, read in _LAYOUT_READ.items():  # each column at once, over the kinds that have it
        line = np.array([lines.get(slot, -1) for lines in _SLOT_LINES])[kind]
        rows = np.flatnonzero(line >= 0)
        columns[slot][rows] = read(u8, ends[elements[rows] + line[rows]])
    perms = elements[kind == PERM]
    if len(perms) * n_paths > len(starts):  # more entries than lines
        raise IndexError("crossing maps overrun the text")
    # A map's entries fill the lines after its slot's.
    maps = _layout_ints(u8, ends[perms[:, None] + np.arange(n_paths) + _SLOT_LINES[PERM]["map"] + 1])
    return _table(kind, *columns.values(), counts, maps, n_paths)


def _read_written(text: str) -> OpticalNetlist | None:
    """The netlist of a text that netlist_to_json wrote, or None.

    A JSON document of a wide netlist is a dict, a list and boxed numbers
    per element: about 48 MB of small objects for 110k elements. The few
    objects that outlive a load pin the allocator arenas those filled, so a
    process that loads netlist after netlist grew, and its peak memory
    changed from run to run. This reads each field on the line the writer's
    layout puts it on instead (_layout_table), frees the text's bytes,
    and takes the result only if writing it gives back the text exactly,
    compared a block at a time; any other text is left to the document
    reader, errors and all."""
    head, end = _WRITTEN_HEAD.match(text), text.rfind(_WRITTEN_META)
    if head is None or end < 0:
        return None
    try:
        space = ModeSpace(int(head[1]), head[2] == "true")
        meta = json.loads(text[end + len(_WRITTEN_META):-2])
        table = _layout_table(np.frombuffer(text.encode("ascii"), np.uint8), head.end(), end,
                              space.n_paths)  # the text's bytes live only for the call
        net = _netlist(space, table, meta["source_gates"], meta.get("output_relabel"))
    except (ArithmeticError, AttributeError, LookupError, RecursionError, TypeError, ValueError):
        return None  # not the writer's text: the document reader says why
    at = 0
    for piece in _json_pieces(net):
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    return net if at == len(text) else None


def netlist_from_json(text: str) -> OpticalNetlist:
    net = _read_written(text)
    if net is not None:
        return net
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
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
        layers, meta = doc["layers"], doc.get("meta", {})
        if type(layers) is not list or set(map(type, layers)) - {list}:
            raise NetlistFormatError("layers must be a JSON list of element lists")
        if type(meta) is not dict:
            raise NetlistFormatError("meta must be a JSON object")
        notes = meta.get("source_gates", [])
        if type(notes) is not list:
            raise NetlistFormatError("source_gates must be a JSON list")
        table = _decode(layers, space.n_paths, True)
        return _netlist(space, table, notes, meta.get("output_relabel"))
    except (NetlistFormatError, SpaceTooLargeError):
        raise
    except KeyError as exc:
        raise NetlistFormatError(f"invalid netlist document: missing key {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise NetlistFormatError(f"invalid netlist document: {exc}") from None

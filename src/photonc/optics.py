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

Each element kind is one frozen dataclass that owns the whole kind: its
footprint, its layer-kernel rows, its JSON form (tag, to_doc, from_doc) and
its diagram glyph. footprint(space) is the one validating footprint per
kind: in a single pass it checks the element against the space and returns
the tuple of modes it occupies. OpticalNetlist, element_modes,
prune_dead_paths and the diagram each call it once per element and nothing
caches it; a layer is disjoint when its footprints, concatenated, hold no
mode twice. Adding a kind means adding one class here, its lowering and its
JSON template in the compiler.

A layer (disjoint 2x2 blocks, phases and path swaps, like a column of a Reck
or Clements mesh) is compiled when applied into one gather update x[t] =
c0*x[s0] + c1*x[s1] on a vector or the rows of a block, which propagate,
netlist_unitary and element_unitary share. Each element's rows(w) are its
(t, s0, c0, s1, c1) over modes path*w + pol, w = 2 on a polarized space,
else 1; they stay inside the element's modes, so a layer's rows update at
once without one reading a target another writes. verify stays independent
of the kernel through the statevec oracle, and the element conventions
through tests against the circuit module's HADAMARD and PAULI_X constants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np


class NetlistError(ValueError):
    """Element or netlist inconsistent with its mode space."""


class NetlistFormatError(ValueError):
    """Malformed netlist file."""


class SpaceTooLargeError(NetlistError):
    """Mode space with more path bits than MAX_PATH_BITS."""


# Lowering loops over every path and `h` on a location qubit puts 1.5
# elements on each, so compiling one gate costs time and memory in
# proportion to 2^n_loc. `compile` of a lone `h 0` (2-vCPU host) took
# 0.37 s / 46 MB peak at 14 path bits, 1.2 s / 94 MB at 16 and 5.1 s /
# 266 MB at 18: x4 per two bits, so about 20 s / 1 GB at 20 and 80 s / 4 GB
# at 22. 20 bits is the widest space whose single gate still fits in a
# minute and a gigabyte; past it, ModeSpace refuses before any loop starts.
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
            raise SpaceTooLargeError(
                f"{self.n_loc} path bits give 2^{self.n_loc} = {1 << self.n_loc} paths; "
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
        bits = "".join(str(int(b)) for b in location_bits)
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

    def path_of(self, mode: int) -> int:
        self._check_mode(mode)
        return mode >> 1 if self.uses_pol else mode

    def pol_of(self, mode: int) -> str | None:
        self._check_mode(mode)
        if not self.uses_pol:
            return None
        return POL_V if mode & 1 else POL_H

    def path_modes(self, path: int) -> tuple[int, ...]:
        self._check_path(path)
        if self.uses_pol:
            return (path * 2, path * 2 + 1)
        return (path,)

    def mode_label(self, mode: int) -> str:
        self._check_mode(mode)
        bits = format(self.path_of(mode), f"0{self.n_loc}b") if self.n_loc else ""
        return f"{bits},{self.pol_of(mode)}" if self.uses_pol else bits

    def _check_mode(self, mode: int) -> None:
        if type(mode) is not int:
            raise NetlistError(f"mode {mode!r} is not an int")
        if not 0 <= mode < self.dim:
            raise NetlistError(f"mode {mode} out of range for dim {self.dim}")

    def _check_path(self, path: int) -> None:
        if type(path) is not int:  # a bool or float is refused, never truncated
            raise NetlistError(f"path {path!r} is not an int")
        if not 0 <= path < 1 << self.n_loc:  # not self.n_paths: one call less on a hot path
            raise NetlistError(f"path {path} out of range for {self.n_paths} path(s)")


def _doc_typed(value, kind: type, what: str):
    """A decoded JSON value whose type is exactly kind: a bool is no int, and
    a float is refused where an int belongs rather than truncated."""
    if type(value) is not kind:
        raise NetlistFormatError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _doc_angle(value, what: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise NetlistFormatError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _doc_pair(value) -> tuple[int, int]:
    if len(_doc_typed(value, list, "paths")) != 2:
        raise NetlistFormatError(f"paths must list exactly two paths, got {value!r}")
    return _doc_typed(value[0], int, "path"), _doc_typed(value[1], int, "path")


def _check_permutation(path_map: tuple, space: ModeSpace, name: str) -> None:
    for path in path_map:
        if type(path) is not int:
            raise NetlistError(f"{name} entry {path!r} is not an int")
    if sorted(path_map) != list(range(space.n_paths)):
        raise NetlistError(f"{name} must permute all path indices")


def _check_angle(angle: float, what: str) -> None:
    if type(angle) is bool or not math.isfinite(angle):  # JSON would write a bool as true
        raise NetlistError(f"{what} must be a finite number, got {angle!r}")


def _pair_modes(space: ModeSpace, a: int, b: int, name: str) -> tuple[int, ...]:
    """The modes of two distinct checked paths."""
    modes = space.path_modes(a) + space.path_modes(b)
    if a == b:
        raise NetlistError(f"{name} needs two distinct paths")
    return modes


@dataclass(frozen=True)
class BeamSplitter:
    path_a: int
    path_b: int
    theta: float = math.pi / 4

    tag = "bs"
    glyph = "BS"

    def footprint(self, space: ModeSpace) -> tuple[int, ...]:
        modes = _pair_modes(space, self.path_a, self.path_b, "beam splitter")
        _check_angle(self.theta, "beam splitter angle")
        return modes

    def rows(self, w: int) -> tuple:
        ct, ist = math.cos(self.theta), 1j * math.sin(self.theta)
        a, b = self.path_a * w, self.path_b * w
        rows = ((a, a, ct, b, ist), (b, b, ct, a, ist))
        if w == 2:
            rows += ((a + 1, a + 1, ct, b + 1, ist), (b + 1, b + 1, ct, a + 1, ist))
        return rows

    def to_doc(self) -> dict:
        return {"type": self.tag, "paths": [self.path_a, self.path_b], "theta": self.theta}

    @classmethod
    def from_doc(cls, doc: dict) -> BeamSplitter:
        return cls(*_doc_pair(doc["paths"]), _doc_angle(doc["theta"], "theta"))


@dataclass(frozen=True)
class PhaseShifter:
    path: int
    phi: float
    pol_filter: str = POL_BOTH

    tag = "ps"

    @property
    def glyph(self) -> str:
        return {POL_H: "φh", POL_V: "φv"}.get(self.pol_filter, "φ")

    def footprint(self, space: ModeSpace) -> tuple[int, ...]:
        modes, pol = space.path_modes(self.path), self.pol_filter
        if pol not in _POL_FILTERS:
            raise NetlistError(f"bad pol filter {pol!r}")
        if pol != POL_BOTH and not space.uses_pol:
            raise NetlistError("pol-filtered phase shifter needs a polarized space")
        _check_angle(self.phi, "phase shift")
        if pol == POL_BOTH:
            return modes
        return (modes[1] if pol == POL_V else modes[0],)

    def rows(self, w: int) -> tuple:
        m, factor = self.path * w, cmath.exp(1j * self.phi)
        if self.pol_filter == POL_BOTH and w == 2:
            return ((m, m, factor, m, 0.0), (m + 1, m + 1, factor, m + 1, 0.0))
        m += self.pol_filter == POL_V
        return ((m, m, factor, m, 0.0),)

    def to_doc(self) -> dict:
        return {"type": self.tag, "path": self.path, "pol": self.pol_filter, "phi": self.phi}

    @classmethod
    def from_doc(cls, doc: dict) -> PhaseShifter:
        return cls(_doc_typed(doc["path"], int, "path"), _doc_angle(doc["phi"], "phi"),
                   _doc_typed(doc["pol"], str, "pol"))


@dataclass(frozen=True)
class Rotator:
    path: int

    tag = "rot"
    glyph = "R"

    def footprint(self, space: ModeSpace) -> tuple[int, ...]:
        if not space.uses_pol:
            raise NetlistError("rotator needs a polarized space")
        return space.path_modes(self.path)

    def rows(self, w: int) -> tuple:
        h, v = self.path * 2, self.path * 2 + 1
        return ((h, v, 1.0, v, 0.0), (v, h, 1.0, h, 0.0))

    def to_doc(self) -> dict:
        return {"type": self.tag, "path": self.path}

    @classmethod
    def from_doc(cls, doc: dict) -> Rotator:
        return cls(_doc_typed(doc["path"], int, "path"))


@dataclass(frozen=True)
class PolarizingBeamSplitter:
    path_a: int
    path_b: int

    tag = "pbs"
    glyph = "PBS"

    def footprint(self, space: ModeSpace) -> tuple[int, ...]:
        if not space.uses_pol:
            raise NetlistError("polarizing beam splitter needs a polarized space")
        return _pair_modes(space, self.path_a, self.path_b, "polarizing beam splitter")

    def rows(self, w: int) -> tuple:
        va, vb = self.path_a * 2 + 1, self.path_b * 2 + 1
        return ((va, vb, 1j, vb, 0.0), (vb, va, 1j, va, 0.0))

    def to_doc(self) -> dict:
        return {"type": self.tag, "paths": [self.path_a, self.path_b]}

    @classmethod
    def from_doc(cls, doc: dict) -> PolarizingBeamSplitter:
        return cls(*_doc_pair(doc["paths"]))


@dataclass(frozen=True)
class Crossing:
    path_map: tuple[int, ...]

    tag = "perm"
    glyph = "✕"

    def __post_init__(self):
        object.__setattr__(self, "path_map", tuple(self.path_map))

    def footprint(self, space: ModeSpace) -> tuple[int, ...]:
        _check_permutation(self.path_map, space, "crossing map")
        moved = (space.path_modes(s) for s, d in enumerate(self.path_map) if s != d)
        return tuple(m for modes in moved for m in modes)

    def rows(self, w: int) -> list:
        moved = [(s, d) for s, d in enumerate(self.path_map) if s != d]
        return [(d * w + k, s * w + k, 1.0, s * w + k, 0.0) for s, d in moved for k in range(w)]

    def to_doc(self) -> dict:
        return {"type": self.tag, "map": list(self.path_map)}

    @classmethod
    def from_doc(cls, doc: dict) -> Crossing:
        path_map = _doc_typed(doc["map"], list, "crossing map")
        return cls(tuple(_doc_typed(p, int, "crossing map entry") for p in path_map))


OpticalElement = Union[BeamSplitter, PhaseShifter, Rotator, PolarizingBeamSplitter, Crossing]
ELEMENT_KINDS = (BeamSplitter, PhaseShifter, Rotator, PolarizingBeamSplitter, Crossing)


def _footprint(element: OpticalElement, space: ModeSpace) -> tuple[int, ...]:
    if not isinstance(element, ELEMENT_KINDS):
        raise NetlistError(f"unknown element {element!r}")
    return element.footprint(space)


def element_modes(element: OpticalElement, space: ModeSpace) -> frozenset[int]:
    """The modes an element occupies (its full device footprint); raises
    NetlistError if the element does not fit the space."""
    return frozenset(_footprint(element, space))


def element_unitary(element: OpticalElement, space: ModeSpace) -> np.ndarray:
    """Dense unitary of one element on the full mode space: its layer
    kernel applied to the identity."""
    _footprint(element, space)
    u = np.eye(space.dim, dtype=complex)
    _apply_layer(u, (element,), space)
    return u


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


Layer = tuple[OpticalElement, ...]


@dataclass(frozen=True)
class OpticalNetlist:
    """Layered element list over one mode space.

    source_gates holds one annotation string per layer (which gate produced
    it); output_relabel, when set, renames output path p to
    output_relabel[p] after the last layer.
    """

    space: ModeSpace
    layers: tuple[Layer, ...]
    source_gates: tuple[str, ...] = ()
    output_relabel: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in self.layers))
        if not self.source_gates:
            object.__setattr__(self, "source_gates", ("",) * len(self.layers))
        else:
            object.__setattr__(self, "source_gates", tuple(self.source_gates))
        if len(self.source_gates) != len(self.layers):
            raise NetlistError("source_gates must annotate each layer")
        space = self.space
        for layer in self.layers:
            used: list[int] = []
            for element in layer:
                used += _footprint(element, space)
            if len(set(used)) != len(used):
                raise NetlistError("elements within a layer must act on disjoint modes")
        if self.output_relabel is not None:
            object.__setattr__(self, "output_relabel", tuple(self.output_relabel))
            _check_permutation(self.output_relabel, self.space, "output relabeling")

    @property
    def n_elements(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def elements(self) -> Iterable[OpticalElement]:
        for layer in self.layers:
            yield from layer


_ROW_DTYPES = (np.intp, np.intp, complex, np.intp, complex)


def _apply_layer(x: np.ndarray, layer: Iterable[OpticalElement], space: ModeSpace) -> None:
    """Apply one layer in place to a mode vector or the rows of a (dim, k) block."""
    w = 2 if space.uses_pol else 1
    rows = [row for e in layer for row in e.rows(w)]
    if not rows:
        return
    t, s0, c0, s1, c1 = (np.array(col, dtype) for col, dtype in zip(zip(*rows), _ROW_DTYPES))
    if x.ndim == 2:
        c0, c1 = c0[:, None], c1[:, None]
    x[t] = c0 * x[s0] + c1 * x[s1]


def _stream(x: np.ndarray, netlist: OpticalNetlist) -> np.ndarray:
    for layer in netlist.layers:
        _apply_layer(x, layer, netlist.space)
    if netlist.output_relabel is not None:
        _apply_layer(x, (Crossing(netlist.output_relabel),), netlist.space)
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

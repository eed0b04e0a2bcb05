"""Text diagram of a netlist: one rail per mode, one column per layer.

Each element draws its glyph on the lowest rail it touches and a dotted tie
mark on the rest of its footprint, so vertical extent shows exactly which
modes interfere; an empty footprint (an identity crossing) draws nothing,
and a layer with no marks is a plain-rail column. Output labels on the
right account for any terminal relabeling stored on the netlist.

The text is one (modes x characters) array of UTF-16 code units, a row
per line, decoded once. An int8 grid holds the token of each (mode, layer)
cell: a bare rail, a tie or a glyph, the tokens numbered in order of width
so that a layer's column is as wide as its largest token. Each token's cell
is its text between two rails, padded with rail to the widest cell, so its
first width + 2 units are its cell in a column of that width: one gather
over the grid gives every cell, and one column mask keeps the first
width + 2 units of each layer's. The labels (the path bits, then ",H" or
",V" on a polarized space; on the right, those of the relabeled path), the
spacers, the closing rail and the newline are columns of the same array.
This relies on one code unit per character: every token, rail and label
character is in the Basic Multilingual Plane (BMP), which _units checks
once at import, so a wider glyph fails loudly instead of misaligning rails.
"""

from __future__ import annotations

import numpy as np

from .optics import (
    POL_CODE_BOTH,
    POL_H,
    POL_V,
    PS,
    _POL_FILTERS,
    ModeSpace,
    OpticalNetlist,
    _footprint,
    _row_layers,
)

_TIE = "┆"
_RAIL = "─"
# A bare rail, a tie, then the glyphs, in order of width: a column's widest
# token is its largest.
_TOKENS = ("", _TIE, "φ", "R", "✕", "BS", "φh", "φv", "PBS")
_WIDTHS = np.array([len(token) for token in _TOKENS], np.int8)
_CELL = int(_WIDTHS.max()) + 2  # the widest cell: a token between two rails
# _GLYPHS[kind code, pol code]: an element's glyph token; only a phase
# shifter's H or V filter shows.
_GLYPHS = np.array([[_TOKENS.index(glyph)] * len(_POL_FILTERS)
                    for glyph in ("BS", "φ", "R", "PBS", "✕")], np.int8)
_GLYPHS[PS, :POL_CODE_BOTH] = _TOKENS.index("φh"), _TOKENS.index("φv")


def _units(text: str) -> np.ndarray:
    """text's UTF-16 code units, one per character: a character outside the
    BMP, which takes two, raises."""
    units = np.frombuffer(text.encode("utf-16-le"), np.uint16)
    if len(units) != len(text):
        raise ValueError(f"{text!r} has a character outside the Basic Multilingual Plane")
    return units


# _CELLS[token]: the token's cell, rail + token + rail, padded with rail to
# _CELL units, as one item of _CELL * 2 bytes, so a gather copies whole cells.
_CELLS = np.stack([_units((_RAIL + token).ljust(_CELL, _RAIL)) for token in _TOKENS]).view(
    f"V{_CELL * 2}")[:, 0]
_SPACE, _NEWLINE, _RAIL_UNIT = _units(" \n" + _RAIL)
_POL_UNITS = np.stack([_units("," + pol) for pol in (POL_H, POL_V)])


def _labels(space: ModeSpace, paths: np.ndarray) -> np.ndarray:
    """The (dim, label width) code units of each mode's label, its path
    renamed to paths[path]: the bits, then ",H" or ",V" if polarized."""
    bits = (paths[:, None] >> np.arange(space.n_loc - 1, -1, -1)) & 1 | ord("0")
    if not space.uses_pol:
        return bits
    return np.hstack([np.repeat(bits, 2, axis=0), np.tile(_POL_UNITS, (len(paths), 1))])


def _token_grid(netlist: OpticalNetlist) -> np.ndarray:
    """The (modes, layers) int8 token of every cell: a tie on every mode an
    element occupies, then its glyph on the lowest of them. An element that
    occupies no mode (an identity crossing) puts its glyph on a spare last
    row, which the grid returned leaves out."""
    space, table = netlist.space, netlist.table
    layer = _row_layers(table.offsets)
    rows, modes = _footprint(table, space)
    lowest = np.full(netlist.n_elements, space.dim)
    np.minimum.at(lowest, rows, modes)
    grid = np.zeros((space.dim + 1, netlist.n_layers), np.int8)
    grid[modes, layer[rows]] = 1
    grid[lowest, layer] = _GLYPHS[table.kind, table.pol]
    return grid[:-1]


def render_diagram(netlist: OpticalNetlist) -> str:
    space = netlist.space
    paths = np.arange(space.n_paths)
    relabel = paths if netlist.output_relabel is None else np.array(netlist.output_relabel)
    left, right = _labels(space, paths), _labels(space, relabel)
    grid = _token_grid(netlist)
    widths = _WIDTHS[grid.max(axis=0)] + 2
    n, body = left.shape[1], widths.sum() if netlist.n_layers else 4
    # Rail everywhere first: the closing rail, and the whole body of a netlist with no layers.
    text = np.full((space.dim, 2 * n + body + 4), _RAIL_UNIT, np.uint16)
    text[:, :n] = left
    text[:, n] = text[:, -n - 2] = _SPACE
    text[:, -n - 1:-1] = right
    text[:, -1] = _NEWLINE
    if netlist.n_layers:  # every cell, then the first widths[layer] units of each
        cells = _CELLS.take(grid).view(np.uint16).reshape(space.dim, -1)
        keep = (np.arange(_CELL) < widths[:, None]).ravel()
        np.compress(keep, cells, axis=1, out=text[:, n + 1:n + 1 + body])
    return str(text.data, "utf-16-le")

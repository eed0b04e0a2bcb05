"""Text diagram of a netlist: one rail per mode, one column per layer.

Each element draws its glyph on the first rail it touches and a dotted tie
mark on the rest of its footprint, so vertical extent shows exactly which
modes interfere; an empty footprint (an identity crossing) draws nothing,
and a layer with no marks is a plain-rail column. Output labels on the
right account for any terminal relabeling stored on the netlist.
"""

from __future__ import annotations

import numpy as np

from .optics import POL_CODE_BOTH, PS, OpticalNetlist, _mode_labels

_TIE = "┆"
_RAIL = "─"
# Token 0 is a bare rail and 1 a tie; an element's glyph is token 2 + its
# kind code, or 7 + its pol code for an H or V filtered phase shifter.
_TOKENS = ("", _TIE, "BS", "φ", "R", "PBS", "✕", "φh", "φv")
_WIDTHS = np.array([len(token) for token in _TOKENS], np.int8)
# _CELLS[token, width]: the token on its rail, padded to a column width.
_CELLS = np.array([[_RAIL + token + _RAIL * (width - len(token) + 1)
                    for width in range(_WIDTHS.max() + 1)] for token in _TOKENS], dtype=object)


def render_diagram(netlist: OpticalNetlist) -> str:
    space, table = netlist.space, netlist.table
    n_rows = space.dim
    left = _mode_labels(space)
    relabel = netlist.output_relabel or tuple(range(space.n_paths))
    w = 2 if space.uses_pol else 1
    right = [left[relabel[m // w] * w + m % w] for m in range(n_rows)]
    label_w = max(len(s) for s in left)

    filtered = (table.kind == PS) & (table.pol != POL_CODE_BOTH)
    glyphs = np.where(filtered, 7 + table.pol, 2 + table.kind)
    layers, rows, modes = netlist.footprints()
    first = np.ones(len(rows), bool)
    first[1:] = rows[1:] != rows[:-1]
    # int8 tokens (and widths): a wide grid stays under NumPy's 4 MiB huge-page request.
    grid = np.zeros((netlist.n_layers, n_rows), np.int8)
    grid[layers, modes] = np.where(first, glyphs[rows], 1)
    widths = _WIDTHS[grid].max(axis=1, initial=0)
    cells = _CELLS[grid, widths[:, None]].T.tolist()

    lines = []
    for m in range(n_rows):
        body = "".join(cells[m]) if netlist.n_layers else _RAIL * 4
        lines.append(f"{left[m]:>{label_w}} {body}{_RAIL} {right[m]}")
    return "\n".join(lines) + "\n"

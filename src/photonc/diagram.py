"""Text diagram of a netlist: one rail per mode, one column per layer.

Each element draws its glyph on the first rail it touches and a dotted tie
mark on the rest of its footprint, so vertical extent shows exactly which
modes interfere. Output labels on the right account for any terminal
relabeling stored on the netlist.
"""

from __future__ import annotations

from .optics import OpticalNetlist

_TIE = "┆"
_RAIL = "─"


def render_diagram(netlist: OpticalNetlist) -> str:
    space = netlist.space
    n_rows = space.dim
    left = [space.mode_label(m) for m in range(n_rows)]
    relabel = netlist.output_relabel or tuple(range(space.n_paths))
    w = 2 if space.uses_pol else 1
    right = [space.mode_label(relabel[m // w] * w + m % w) for m in range(n_rows)]
    label_w = max(len(s) for s in left)

    columns: list[dict[int, str]] = []
    widths: list[int] = []
    for layer in netlist.layers:
        tokens: dict[int, str] = {}
        for element in layer:
            modes = sorted(element.footprint(space))
            tokens[modes[0]] = element.glyph
            for m in modes[1:]:
                tokens[m] = _TIE
        columns.append(tokens)
        widths.append(max(len(t) for t in tokens.values()))

    lines = []
    for m in range(n_rows):
        parts = [f"{left[m]:>{label_w}} "]
        if not columns:
            parts.append(_RAIL * 4)
        for tokens, width in zip(columns, widths):
            token = tokens.get(m, "")
            parts.append(_RAIL + token + _RAIL * (width - len(token) + 1))
        parts.append(f"{_RAIL} {right[m]}")
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"

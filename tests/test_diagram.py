import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonc.circuit import parse_circuit
from photonc.compiler import QubitAssignment, compile_circuit
from photonc.diagram import render_diagram
from photonc.optics import (
    POL_CODE_BOTH,
    PS,
    Crossing,
    ModeSpace,
    OpticalNetlist,
    PhaseShifter,
    PolarizingBeamSplitter,
    Rotator,
    _mode_labels,
)

from test_kernel import layers_on

_TIE = "┆"
_RAIL = "─"
# Token 0 is a bare rail and 1 a tie; an element's glyph is token 2 + its
# kind code, or 7 + its pol code for an H or V filtered phase shifter.
_TOKENS = ("", _TIE, "BS", "φ", "R", "PBS", "✕", "φh", "φv")
_WIDTHS = np.array([len(token) for token in _TOKENS], np.int8)
# _CELLS[token, width]: the token on its rail, padded to a column width.
_CELLS = np.array([[_RAIL + token + _RAIL * (width - len(token) + 1)
                    for width in range(_WIDTHS.max() + 1)] for token in _TOKENS], dtype=object)


def reference_render(netlist: OpticalNetlist) -> str:
    """The diagram a string per cell and an f-string per line: the text
    render_diagram must give byte for byte."""
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
    grid = np.zeros((netlist.n_layers, n_rows), np.int8)
    grid[layers, modes] = np.where(first, glyphs[rows], 1)
    widths = _WIDTHS[grid].max(axis=1, initial=0)
    cells = _CELLS[grid, widths[:, None]].T.tolist()

    lines = []
    for m in range(n_rows):
        body = "".join(cells[m]) if netlist.n_layers else _RAIL * 4
        lines.append(f"{left[m]:>{label_w}} {body}{_RAIL} {right[m]}")
    return "\n".join(lines) + "\n"


@st.composite
def diagram_netlists(draw):
    """Random netlists from no path bits up, some layers empty, some with an
    identity crossing (which occupies no mode), with or without relabeling."""
    space = ModeSpace(draw(st.integers(0, 3)), draw(st.booleans()))
    identity = Crossing(tuple(range(space.n_paths)))
    layers = [layer + (identity,) * draw(st.integers(0, 1)) for layer in draw(layers_on(space))]
    relabel = draw(st.none() | st.permutations(range(space.n_paths)))
    return OpticalNetlist(space, layers, output_relabel=relabel)


def pruned_teleport():
    circ = parse_circuit(
        "qubits 3\npol 1\nh 0\nh 2\ncnot 0 1\ncnot 2 1\nh 0\ncnot 1 2\nh 2\ncnot 0 2\n"
    )
    return compile_circuit(circ, QubitAssignment.for_circuit(circ), input_support={0})


class TestRenderDiagram:
    def test_one_rail_per_mode(self):
        lines = render_diagram(pruned_teleport()).splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("00,H ")
        assert lines[7].startswith("11,V ")

    def test_rails_align(self):
        lines = render_diagram(pruned_teleport()).splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_glyph_census_matches_stats(self):
        text = render_diagram(pruned_teleport())
        # "BS" also appears inside "PBS", so subtract the overlap
        assert text.count("PBS") == 2
        assert text.count("BS") - text.count("PBS") == 7
        assert text.count("R") == 2

    def test_output_relabel_shows_on_right_edge(self):
        lines = render_diagram(pruned_teleport()).splitlines()
        # paths 2 and 3 swap on the way out
        assert lines[4].endswith("11,H")
        assert lines[5].endswith("11,V")
        assert lines[6].endswith("10,H")
        assert lines[7].endswith("10,V")
        assert lines[0].endswith("00,H")

    def test_empty_netlist(self):
        text = render_diagram(OpticalNetlist(ModeSpace(1), ()))
        assert text == "0 ───── 0\n1 ───── 1\n"

    def test_filtered_shifter_glyphs(self):
        space = ModeSpace(1, uses_pol=True)
        net = OpticalNetlist(
            space,
            (
                (PhaseShifter(0, 0.5, "V"),),
                (PhaseShifter(0, 0.5, "H"),),
                (PhaseShifter(1, 0.5),),
            ),
        )
        text = render_diagram(net)
        assert "φv" in text
        assert "φh" in text

    @settings(max_examples=300, deadline=None)
    @given(diagram_netlists())
    # Glyphs of widths 2, 3 and 1 in one layer: the column is as wide as the widest.
    @example(OpticalNetlist(ModeSpace(2, True), [(PhaseShifter(0, 1.0, "V"),
                                                   PolarizingBeamSplitter(1, 2), Rotator(3))],
                            output_relabel=(3, 1, 2, 0)))
    def test_matches_the_reference_render(self, net):
        assert render_diagram(net) == reference_render(net)

    def test_tie_marks_span_element_footprint(self):
        text = render_diagram(pruned_teleport())
        assert "┆" in text

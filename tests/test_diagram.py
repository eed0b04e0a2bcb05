import pytest

from photonc.circuit import parse_circuit
from photonc.compiler import QubitAssignment, compile_circuit
from photonc.diagram import render_diagram
from photonc.optics import ModeSpace, OpticalNetlist, PhaseShifter


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

    def test_tie_marks_span_element_footprint(self):
        text = render_diagram(pruned_teleport())
        assert "┆" in text

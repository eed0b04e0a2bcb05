import argparse
import json
import os
import subprocess
import sys
from functools import reduce
from importlib import resources
from operator import getitem
from pathlib import Path

import pytest

import photonc
from photonc.cli import _COMMANDS, _build_parser, main
from photonc.optics import ELEMENT_KINDS

TELEPORT_TEXT = (
    resources.files("photonc").joinpath("circuits/teleport.qc").read_text(encoding="utf-8")
)


@pytest.fixture
def teleport_qc(tmp_path):
    path = tmp_path / "teleport.qc"
    path.write_text(TELEPORT_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def teleport_netlist(teleport_qc, tmp_path):
    out = tmp_path / "teleport.json"
    assert main(["compile", teleport_qc, "-o", str(out)]) == 0
    return str(out)


class TestCompile:
    def test_stdout_is_json(self, teleport_qc, capsys):
        assert main(["compile", teleport_qc]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["meta"]["output_relabel"] == [0, 1, 3, 2]

    def test_output_is_deterministic(self, teleport_qc, capsys):
        main(["compile", teleport_qc])
        first = capsys.readouterr().out
        main(["compile", teleport_qc])
        assert capsys.readouterr().out == first

    def test_write_file(self, teleport_qc, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["compile", teleport_qc, "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()

    def test_prune_flag(self, teleport_qc, capsys):
        assert main(["compile", teleport_qc, "--prune", "--input", "00,H"]) == 0
        doc = json.loads(capsys.readouterr().out)
        n_elements = sum(len(layer) for layer in doc["layers"])
        assert n_elements == 26

    def test_prune_needs_input(self, teleport_qc, capsys):
        assert main(["compile", teleport_qc, "--prune"]) == 2
        assert "--input" in capsys.readouterr().err

    def test_input_without_prune_is_checked_not_pruned(self, teleport_qc, capsys):
        assert main(["compile", teleport_qc]) == 0
        plain = capsys.readouterr().out
        assert main(["compile", teleport_qc, "--input", "00,H"]) == 0
        assert capsys.readouterr().out == plain
        assert main(["compile", teleport_qc, "--input", "0x,H"]) == 2
        assert "do not fit" in capsys.readouterr().err

    def test_no_relabel(self, teleport_qc, capsys):
        assert main(["compile", teleport_qc, "--no-relabel"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "output_relabel" not in doc["meta"]
        assert any(e["type"] == "perm" for layer in doc["layers"] for e in layer)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path / "nope.qc")]) == 2

    @pytest.mark.parametrize("source", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_netlist_is_input_error(self, tmp_path, capsys, source):
        path = str(tmp_path / source)
        assert main(["stats", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.parametrize("target", ["missing/net.json", "."])
    def test_unwritable_output_is_input_error(self, teleport_qc, tmp_path, capsys, target):
        out = str(tmp_path / target)
        assert main(["compile", teleport_qc, "-o", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "wrote" not in captured.out

    @pytest.mark.parametrize("command", [["compile"], ["stats"], ["verify", "{qc}"]])
    @pytest.mark.parametrize("suffix", [".qc", ".json"])
    def test_input_that_is_not_utf8_is_input_error(self, teleport_qc, tmp_path, capsys, command,
                                                   suffix):
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(b"\xff\xfe")
        argv = [arg.format(qc=teleport_qc) for arg in command] + [str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_text("qubits 2\nfoo 0\n", encoding="utf-8")
        assert main(["compile", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unlowerable_circuit_is_internal_error(self, tmp_path, capsys):
        bad = tmp_path / "polonly.qc"
        bad.write_text("qubits 1\npol 0\nh 0\n", encoding="utf-8")
        assert main(["compile", str(bad)]) == 3

    def test_oversized_circuit_fails_fast(self, tmp_path, capsys):
        # Refused before lowering loops over any of the 2^39 paths.
        big = tmp_path / "big.qc"
        big.write_text("qubits 40\npol 39\nh 0\n", encoding="utf-8")
        assert main(["compile", str(big)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2^39 = 549755813888 paths" in captured.err

    @pytest.mark.parametrize("spec", ["loc=2,0;pol=1", "loc=0,2;;pol=1", "loc=0,2;pol=1;"])
    def test_custom_assignment(self, teleport_qc, capsys, spec):
        assert main(["compile", teleport_qc, "--assignment", spec]) == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("spec, message", [
        ("loc=0;pol=1", "every qubit exactly once"),
        ("bogus", "expected key=value"),
        ("foo=1", "unknown assignment key 'foo'"),
        ("loc=x", "bad assignment value in 'loc=x'"),
        ("pol=1;pol=0", "repeated assignment key 'pol'"),  # was read as pol=0
        ("loc=0,,2;pol=1", "bad assignment value in 'loc=0,,2'"),  # was read as loc=0,2
    ])
    def test_bad_assignment_spec(self, teleport_qc, capsys, spec, message):
        assert main(["compile", teleport_qc, "--assignment", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_bare_loc_lists_no_location_qubit(self, tmp_path, capsys):
        qc = tmp_path / "pol_only.qc"
        qc.write_text("qubits 1\npol 0\nx 0\n", encoding="utf-8")
        assert main(["compile", str(qc), "--assignment", "loc=;pol=0"]) == 0
        assert json.loads(capsys.readouterr().out)["n_loc"] == 0


class TestVerify:
    def test_compiled_netlist_verifies(self, teleport_qc, teleport_netlist, capsys):
        assert main(["verify", teleport_qc, teleport_netlist]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_tampered_netlist_fails(self, teleport_qc, teleport_netlist, tmp_path, capsys):
        doc = json.loads(open(teleport_netlist).read())
        for layer in doc["layers"]:
            for element in layer:
                if element["type"] == "ps":
                    element["phi"] += 0.3
                    break
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", teleport_qc, str(bad)]) == 1
        assert "NOT equivalent" in capsys.readouterr().out

    def test_loose_tolerance_can_pass(self, teleport_qc, teleport_netlist, tmp_path, capsys):
        doc = json.loads(open(teleport_netlist).read())
        for layer in doc["layers"]:
            for element in layer:
                if element["type"] == "ps":
                    element["phi"] += 1e-6
                    break
        nudged = tmp_path / "nudged.json"
        nudged.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", teleport_qc, str(nudged)]) == 1
        assert main(["verify", teleport_qc, str(nudged), "--tol", "1e-3"]) == 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
    def test_tolerance_must_be_finite_and_non_negative(self, teleport_qc, teleport_netlist,
                                                       capsys, tol):
        assert main(["verify", teleport_qc, teleport_netlist, "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "finite, non-negative" in err

    def test_assignment_round_trip(self, teleport_qc, tmp_path, capsys):
        out = tmp_path / "alt.json"
        assert main(["compile", teleport_qc, "--assignment", "loc=2,0;pol=1", "-o", str(out)]) == 0
        assert main(["verify", teleport_qc, str(out), "--assignment", "loc=2,0;pol=1"]) == 0
        # the default assignment orders the paths differently, so it fails
        assert main(["verify", teleport_qc, str(out)]) == 1

    def test_space_mismatch_is_input_error(self, tmp_path, teleport_netlist, capsys):
        plain = tmp_path / "plain.qc"
        plain.write_text("qubits 2\nh 0\n", encoding="utf-8")
        assert main(["verify", str(plain), teleport_netlist]) == 2

    def test_bad_json(self, teleport_qc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["verify", teleport_qc, str(bad)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("uses_pol", "no"), ("uses_pol", 1),
        ("n_loc", True), ("n_loc", 2.0), ("n_loc", -1), ("n_loc", "2"),
        ("version", True), ("version", 1.0),
    ])
    def test_header_types_are_strict(self, teleport_qc, teleport_netlist, tmp_path, capsys, key, value):
        doc = json.loads(open(teleport_netlist).read())
        doc[key] = value
        bad = tmp_path / "bad_header.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", teleport_qc, str(bad)]) == 2
        assert key in capsys.readouterr().err

    def test_fractional_element_path_is_input_error(self, teleport_qc, teleport_netlist, tmp_path,
                                                   capsys):
        doc = json.loads(open(teleport_netlist).read())
        shifter = next(e for layer in doc["layers"] for e in layer if e["type"] == "ps")
        shifter["path"] += 0.9
        bad = tmp_path / "fractional_path.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", teleport_qc, str(bad)]) == 2
        message = f"invalid netlist document: path {shifter['path']!r} is not an int"
        assert message in capsys.readouterr().err

    def test_oversized_circuit_is_input_error(self, teleport_netlist, tmp_path, capsys):
        big = tmp_path / "big.qc"
        big.write_text("qubits 40\nh 0\n", encoding="utf-8")
        assert main(["verify", str(big), teleport_netlist]) == 2
        assert "2^40 = 1099511627776 paths" in capsys.readouterr().err

    def test_oversized_netlist_is_input_error(self, teleport_qc, teleport_netlist, tmp_path,
                                              capsys):
        doc = json.loads(open(teleport_netlist).read())
        doc["n_loc"], doc["layers"], doc["meta"] = 40, [], {}
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["verify", teleport_qc, str(big)], ["stats", str(big)]):
            assert main(argv) == 2
            assert "2^40 = 1099511627776 paths" in capsys.readouterr().err

    @pytest.mark.parametrize("n_qubits", [100_000, 10**12])
    def test_wide_qubits_line_is_refused_at_once(self, n_qubits, teleport_netlist, tmp_path,
                                                  capsys):
        # 2^100000 used to overflow the int-to-str limit (exit 3), and a
        # list of 10^12 qubits ran out of memory.
        wide = tmp_path / "wide.qc"
        wide.write_text(f"qubits {n_qubits}\nh 0\n", encoding="utf-8")
        for argv, n_loc in ((["compile", str(wide)], n_qubits),
                            (["compile", str(wide), "--assignment", "pol=1"], n_qubits - 1),
                            (["verify", str(wide), teleport_netlist], n_qubits)):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: {n_loc} path bits give 2^{n_loc} paths; at most 20" in captured.err

    @pytest.mark.parametrize("n_loc", [100_000, 10**12])
    def test_wide_netlist_is_refused_at_once(self, n_loc, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"version": 1, "n_loc": n_loc, "uses_pol": False,
                                    "layers": []}), encoding="utf-8")
        assert main(["stats", str(wide)]) == 2
        assert f"error: {n_loc} path bits give 2^{n_loc} paths;" in capsys.readouterr().err

    def test_out_of_memory_is_exit_3(self, teleport_qc, teleport_netlist, monkeypatch, capsys):
        def too_big(netlist):
            raise MemoryError

        monkeypatch.setattr("photonc.cli.netlist_unitary", too_big)
        assert main(["verify", teleport_qc, teleport_netlist]) == 3
        assert "out of memory" in capsys.readouterr().err


class TestMalformedNetlist:
    def test_deeply_nested_json_is_input_error(self, teleport_qc, tmp_path, capsys):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        for argv in (["stats", str(nested)], ["verify", teleport_qc, str(nested)]):
            assert main(argv) == 2
            assert "invalid netlist JSON: maximum recursion depth" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        (b"{\x00}\x00", "invalid netlist JSON: Expecting property name"),
        (b"\xef\xbb\xbf{}", "invalid netlist JSON: Unexpected UTF-8 BOM"),
    ], ids=["utf16-without-bom", "utf8-bom"])
    def test_bytes_are_read_as_utf8_only(self, tmp_path, capsys, data, message):
        # json.loads of the bytes would read the first as UTF-16 "{}" and
        # skip the BOM of the second; the file is UTF-8 text, so neither loads.
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert main(["stats", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @staticmethod
    def two_layers():
        return {"version": 1, "n_loc": 1, "uses_pol": False,
                "layers": [[{"type": "bs", "paths": [0, 1], "theta": 0.5}],
                           [{"type": "ps", "path": 0, "pol": "both", "phi": 0.5}]],
                "meta": {"source_gates": ["g0: h 0", "g1: phase 0 0.5"]}}

    @pytest.mark.parametrize("path, value, message", [
        (("meta", "source_gates"), "ab", "source_gates must be a JSON list"),
        (("layers",), {}, "layers must be a JSON list of element lists"),
        (("layers", 1), {}, "layers must be a JSON list of element lists"),
        (("meta",), [], "meta must be a JSON object"),
        (("layers", 1, 0, "pol"), None, "invalid netlist document: missing key 'pol'"),
        (("layers", 0, 0, "paths", 1), 2**70, "invalid netlist document: path out of range"),
        (("layers", 1, 0), 5, "invalid netlist document: element 5 is not a JSON object"),
        (("layers", 0, 0, "paths"), 5, "invalid netlist document: paths 5 is not a list"),
        (("layers", 1, 0), {"type": "perm", "map": 5},
         "invalid netlist document: map 5 is not a list"),
    ], ids=["source-gates-str", "layers-object", "layer-object", "meta-list",
            "missing-pol", "int64-overflow", "element-int", "paths-int", "map-int"])
    def test_malformed_fields_are_named(self, tmp_path, capsys, path, value, message):
        doc = self.two_layers()
        holder = reduce(getitem, path[:-1], doc)
        if value is None:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["stats", str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_well_formed_document_loads(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(self.two_layers()), encoding="utf-8")
        assert main(["stats", str(good)]) == 0


class TestRun:
    def test_basis_input_probabilities(self, teleport_netlist, capsys):
        assert main(["run", teleport_netlist, "--input", "00,H"]) == 0
        out = capsys.readouterr().out
        probs = [float(line.rsplit("= ", 1)[1]) for line in out.strip().splitlines()]
        assert probs == pytest.approx([0.25, 0.25, 0, 0, 0.25, 0.25, 0, 0], abs=1e-9)

    def test_input_requires_pol_when_polarized(self, teleport_netlist, capsys):
        assert main(["run", teleport_netlist, "--input", "00"]) == 2

    def test_rejects_bad_pol(self, teleport_netlist, capsys):
        assert main(["run", teleport_netlist, "--input", "00,Q"]) == 2

    def test_rejects_wrong_bit_count(self, teleport_netlist, capsys):
        assert main(["run", teleport_netlist, "--input", "000,H"]) == 2

    def test_rejects_pol_when_unpolarized(self, tmp_path, capsys):
        qc, netlist = tmp_path / "plain.qc", tmp_path / "plain.json"
        qc.write_text("qubits 2\nh 0\n", encoding="utf-8")
        assert main(["compile", str(qc), "-o", str(netlist)]) == 0
        assert main(["run", str(netlist), "--input", "00,H"]) == 2
        assert "has no polarization" in capsys.readouterr().err


class TestStats:
    def test_pruned_teleport_counts(self, teleport_qc, tmp_path, capsys):
        out = tmp_path / "pruned.json"
        main(["compile", teleport_qc, "--prune", "--input", "00,H", "-o", str(out)])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "beam splitters: 7" in text
        assert "polarizing beam splitters: 2" in text
        assert "phase shifters: 15" in text
        assert "rotators: 2" in text
        assert "crossings: 0" in text
        assert "splitting elements: 9" in text
        assert "total elements: 26" in text
        assert "output relabel: 0,1,3,2" in text


class TestDiagram:
    def test_renders_rails(self, teleport_netlist, capsys):
        assert main(["diagram", teleport_netlist]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 8
        assert "PBS" in out

    @pytest.mark.parametrize("layers", [[[{"type": "perm", "map": [0, 1]}]], [[]]],
                             ids=["identity-crossing", "empty-layer"])
    def test_layer_without_marks_is_a_plain_rail_column(self, tmp_path, capsys, layers):
        # Both netlists are valid; the diagram used to end in an IndexError
        # traceback (exit 1) and in "max() arg is an empty sequence" (exit 3).
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"version": 1, "n_loc": 1, "uses_pol": False, "layers": layers}),
                       encoding="utf-8")
        assert main(["stats", str(net)]) == 0
        capsys.readouterr()
        assert main(["diagram", str(net)]) == 0
        assert capsys.readouterr().out == "0 ─── 0\n1 ─── 1\n"

    def test_identity_crossing_beside_a_splitter_draws_nothing(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        layers = [[{"type": "bs", "paths": [0, 1], "theta": 0.5}],
                  [{"type": "perm", "map": [0, 1]}]]
        net.write_text(json.dumps({"version": 1, "n_loc": 1, "uses_pol": False, "layers": layers}),
                       encoding="utf-8")
        assert main(["diagram", str(net)]) == 0
        assert capsys.readouterr().out == "0 ─BS──── 0\n1 ─┆───── 1\n"


@pytest.mark.parametrize("flags", [[], ["--no-relabel"]], ids=["relabel", "crossing"])
def test_readers_build_no_element_objects(teleport_qc, tmp_path, monkeypatch, capsys, flags):
    # compile lowers gates straight to the columns of the element table, and
    # stats, run, diagram and verify read that table; only the library's
    # net.layers, lower_gate and prepare_* build element objects (as views).
    net = str(tmp_path / "net.json")
    assert main(["compile", teleport_qc, "-o", net, *flags]) == 0
    commands = [["compile", teleport_qc, *flags],
                ["compile", teleport_qc, "--prune", "--input", "00,H", *flags],
                ["stats", net], ["run", net, "--input", "00,H"], ["diagram", net],
                ["verify", teleport_qc, net]]
    expected = []
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    for kind in ELEMENT_KINDS:
        monkeypatch.setattr(kind, "__init__", refuse)
    for argv, out in zip(commands, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == out


class TestDemo:
    def test_mz(self, capsys):
        assert main(["demo", "mz"]) == 0
        out = capsys.readouterr().out
        assert "p = 1.000000" in out
        assert "[dark]" in out

    def test_mz_rotator(self, capsys):
        assert main(["demo", "mz", "--rotator"]) == 0
        assert capsys.readouterr().out.count("p = 0.500000") >= 2

    def test_teleport_default(self, capsys):
        assert main(["demo", "teleport"]) == 0
        out = capsys.readouterr().out
        assert out.count("fidelity = 1.0000000000") == 4

    def test_teleport_custom_amplitudes(self, capsys):
        assert main(["demo", "teleport", "--alpha", "0.5+0.5i", "--beta", "0.5-0.5i"]) == 0
        assert "fidelity = 1.0000000000" in capsys.readouterr().out

    def test_teleport_negative_amplitude_equals_form(self, capsys):
        # leading '-' needs --beta=... so argparse does not read an option
        assert main(["demo", "teleport", "--alpha", "0.28", "--beta=-0.96i"]) == 0
        out = capsys.readouterr().out
        assert out.count("fidelity = 1.0000000000") == 4
        assert "+0.000000-0.960000i" in out

    def test_teleport_rejects_unnormalized(self, capsys):
        assert main(["demo", "teleport", "--alpha", "1", "--beta", "1"]) == 2

    def test_teleport_rejects_nan(self, capsys):
        # It used to exit 0, printing fidelity = nan for each herald.
        assert main(["demo", "teleport", "--alpha", "nan", "--beta", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be normalized" in captured.err

    def test_teleport_rejects_bad_literal(self, capsys):
        assert main(["demo", "teleport", "--alpha", "zz"]) == 2

    def test_output_deterministic(self, capsys):
        main(["demo", "teleport"])
        first = capsys.readouterr().out
        main(["demo", "teleport"])
        assert capsys.readouterr().out == first


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        *([command, "-h"] for command in _COMMANDS), ["-h"], [], ["frobnicate"],
        ["stats", "net.json", "--bogus"], ["run", "--input", "0"],
        ["verify", "c.qc", "net.json", "--tol", "nan"], ["demo", "bogus"],
    ], ids=lambda argv: " ".join(argv) or "(none)")
    def test_messages_are_the_full_parsers(self, capsys, argv):
        # main builds one command's parser when argv names it; what it
        # prints and returns must still be what the full parser gives.
        code = main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            _build_parser().parse_args(argv)
        want = capsys.readouterr()
        assert (got.out, got.err, code) == (want.out, want.err, exit_.value.code or 0)

    @pytest.mark.parametrize("argv", [
        ["compile", "c.qc", "-o", "net.json", "--prune", "--input", "00,H", "--no-relabel"],
        ["verify", "c.qc", "net.json", "--tol", "1e-6", "--assignment", "loc=0"],
        ["run", "net.json", "--input", "0"], ["stats", "net.json"], ["diagram", "net.json"],
        ["demo", "teleport", "--alpha", "1", "--beta=0", "--no-prune"],
    ], ids=lambda argv: argv[0])
    def test_one_command_parser_parses_as_the_full_one(self, argv):
        full = _build_parser()
        (commands,) = (action.choices for action in full._actions
                       if isinstance(action, argparse._SubParsersAction))
        assert tuple(commands) == _COMMANDS
        assert _build_parser(argv[0]).parse_args(argv) == full.parse_args(argv)


def _photonc(argv, **popen):
    """A photonc process running the package under test, its stderr piped."""
    package_root = str(Path(photonc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "photonc.cli", *argv],
                            stderr=subprocess.PIPE, env=env, **popen)


def test_closed_stdout_is_exit_2_without_traceback(tmp_path):
    # A reader that stops after one byte, as `| head -c 1` does: exit 2 and
    # one error line, as for an unwritable -o, never a traceback's exit 1.
    circuit = tmp_path / "wide.qc"
    circuit.write_text("qubits 16\nh 0\n", encoding="utf-8")
    proc = _photonc(["compile", str(circuit)], stdout=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("error: cannot write to stdout: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["compile", "{qc}"], ["demo", "mz"]], ids=["compile", "demo"])
def test_stdout_closed_at_start_is_exit_2(teleport_qc, argv):
    # Started as `photonc ... >&-`: nothing can be written, so no command runs,
    # neither to a traceback nor to a silent exit 0 that lost its output.
    proc = _photonc([arg.format(qc=teleport_qc) for arg in argv], preexec_fn=lambda: os.close(1))
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 2
    assert err == "error: cannot write to stdout: it is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["compile", "{qc}"], ["stats", "{net}"], ["demo", "mz"]],
                         ids=["compile", "stats", "demo"])
def test_full_stdout_is_exit_2_without_traceback(teleport_qc, teleport_netlist, argv):
    # `photonc ... > /dev/full`: every write fails with ENOSPC, which must read
    # as output that cannot be written, not as a traceback's exit 1 (verify's
    # "NOT equivalent"), and leave nothing for the flush at interpreter exit.
    with open("/dev/full", "w") as full:
        proc = _photonc([arg.format(qc=teleport_qc, net=teleport_netlist) for arg in argv],
                        stdout=full)
        err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 2
    assert err.startswith("error: cannot write to stdout: [Errno 28]") and err.count("\n") == 1, err


@pytest.mark.parametrize("source, argv, message", [
    ("qubits 1_0\nh 0\n", ["compile", "{qc}"], "line 1: bad qubit count '1_0'"),
    ("qubits 2\nh \u0661\n", ["compile", "{qc}"], "line 2: bad qubit index"),
    ("qubits 1\nphase 0 1_000\n", ["compile", "{qc}"], "line 2: malformed angle '1_000'"),
    ("qubits 1\nphase 0 pi/\u0662\n", ["compile", "{qc}"], "line 2: malformed angle"),
    (TELEPORT_TEXT, ["compile", "{qc}", "--assignment", "loc=\u0660,1;pol=2"],
     "bad assignment value"),
    (TELEPORT_TEXT, ["verify", "{qc}", "{net}", "--tol", "\u0661"], "--tol: must be"),
    (TELEPORT_TEXT, ["demo", "teleport", "--alpha", "\u0660.6"], "bad amplitude literal"),
], ids=["qubits", "index", "angle", "pi-divisor", "assignment", "tol", "alpha"])
def test_numbers_are_ascii_literals(teleport_netlist, tmp_path, capsys, source, argv, message):
    # Python's int, float and complex take '_' separators and every Unicode
    # digit; a number on the command line or in a circuit file must be ASCII.
    qc = tmp_path / "c.qc"
    qc.write_text(source, encoding="utf-8")
    capsys.readouterr()
    assert main([arg.format(qc=qc, net=teleport_netlist) for arg in argv]) == 2
    assert message in capsys.readouterr().err


def test_ascii_numbers_keep_every_form(teleport_qc, teleport_netlist, tmp_path, capsys):
    # Signs, leading zeros, spaces beside a number, pi multiples and exponents.
    qc = tmp_path / "c.qc"
    qc.write_text("qubits +03\npol 02\nh 01\nphase 0 0.5pi\nphase 1 1e-3\nu2 0 +1 -.5 2. pi/4\n",
                  encoding="utf-8")
    net = str(tmp_path / "net.json")
    assert main(["compile", str(qc), "--assignment", " loc=+01, 00 ;pol= 2", "-o", net]) == 0
    assert main(["verify", str(qc), net, "--assignment", "loc=1,0;pol=2", "--tol", "1E-3"]) == 0
    assert main(["verify", teleport_qc, teleport_netlist, "--tol", " 1e-3 "]) == 0
    assert main(["demo", "teleport", "--alpha", "+0.6", "--beta", "0.8e0i"]) == 0

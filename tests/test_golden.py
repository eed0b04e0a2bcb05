"""CLI output on the bundled circuits and demos, byte for byte against the
files in tests/golden/. Those files pin the JSON form, the stats, diagram
and run text, and the demo reports; change them only with the behaviour."""

from importlib import resources
from pathlib import Path

import pytest

from photonc.cli import main

GOLDEN = Path(__file__).parent / "golden"
PORTS = {"mz": "0", "mz_rotator": "0,H", "teleport": "00,H"}


def _cases():
    for name, port in PORTS.items():
        yield f"{name}.compile.json", ["compile", "{qc}"]
        yield f"{name}.stats.txt", ["stats", "{net}"]
        yield f"{name}.diagram.txt", ["diagram", "{net}"]
        yield f"{name}.run.txt", ["run", "{net}", "--input", port]
    yield "demo_mz.txt", ["demo", "mz"]
    yield "demo_mz_rotator.txt", ["demo", "mz", "--rotator"]
    yield "demo_teleport.txt", ["demo", "teleport"]


CASES = list(_cases())


@pytest.mark.parametrize("golden, argv", CASES, ids=[golden for golden, _ in CASES])
def test_cli_output_matches_golden(golden, argv, tmp_path, capsys):
    qc = resources.files("photonc").joinpath(f"circuits/{golden.split('.')[0]}.qc")
    net = tmp_path / "net.json"
    if "{net}" in argv:
        assert main(["compile", str(qc), "-o", str(net)]) == 0
        capsys.readouterr()
    assert main([arg.format(qc=qc, net=net) for arg in argv]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()

"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics  # noqa: E402

from photonc.cli import main as photonc_main  # noqa: E402
from photonc.compiler import QubitAssignment  # noqa: E402
from photonc.equivalence import basis_bridge  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((ROOT / "bench" / "baseline.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_same_seed_gives_byte_identical_inputs(name):
    first, second = workloads.generate(name, 7), workloads.generate(name, 7)
    assert [j.source() for j in first] == [j.source() for j in second]
    assert workloads.digest(first) == workloads.digest(second)
    assert workloads.digest(workloads.generate(name, 8)) != workloads.digest(first)


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_generator_is_frozen(name):
    recorded = BASELINE["workloads"][name]["inputs_sha256"]
    assert workloads.digest(workloads.generate(name, BASELINE["seed"])) == recorded


def test_generated_circuits_have_the_spec_shape():
    for spec in workloads.SPECS.values():
        jobs = workloads.generate(spec.name, 3)
        assert len(jobs) == spec.n_circuits
        for job in jobs:
            assert len(job.gates) == spec.n_gates
            assert (job.pol_qubit is not None) == (job.index % 2 == 1)
            kinds = [g.kind for g in job.gates]
            assert set(kinds) == set(workloads.ARITY)


@pytest.mark.parametrize("n_qubits,pol", [(1, None), (3, None), (3, 1), (4, 0), (4, 3)])
def test_basis_to_mode_agrees_with_the_bridge(n_qubits, pol):
    # Two independent routes to the documented encoding must agree.
    order = tuple(q for q in range(n_qubits) if q != pol)
    bridge = basis_bridge(QubitAssignment(n_qubits, order, pol))
    for index in range(1 << n_qubits):
        assert bridge[checks.basis_to_mode(index, n_qubits, pol), index] == 1.0


def _mz_job() -> workloads.Job:
    h = workloads.Gate("h", (0,))
    return workloads.Job(0, 1, None, (h, h), False, workloads.COMMANDS)


def _cli(argv, capsys) -> str:
    assert photonc_main(argv) == 0
    return capsys.readouterr().out


def test_oracle_check_fails_on_a_corrupted_phase_shifter(tmp_path, capsys):
    job = _mz_job()
    qc, netlist = tmp_path / "mz.qc", tmp_path / "mz.json"
    qc.write_text(job.source(), encoding="utf-8")
    _cli(["compile", str(qc), "-o", str(netlist)], capsys)
    expected = checks.expected_mode_probabilities(job)
    assert checks.check_run(_cli(["run", "--input", "0", str(netlist)], capsys), expected) is None

    # Change the phase of one shifter between the two splitters.
    doc = json.loads(netlist.read_text(encoding="utf-8"))
    kinds = [[e["type"] for e in layer] for layer in doc["layers"]]
    first_bs = next(i for i, layer in enumerate(kinds) if "bs" in layer)
    shifter = next(e for layer in doc["layers"][first_bs + 1 :] for e in layer if e["type"] == "ps")
    shifter["phi"] += 1.0
    netlist.write_text(json.dumps(doc), encoding="utf-8")

    assert checks.check_run(_cli(["run", "--input", "0", str(netlist)], capsys), expected)
    assert photonc_main(["verify", str(qc), str(netlist)]) == 1
    assert checks.check_verify(capsys.readouterr().out) is not None


def test_a_session_pass_checks_out_and_its_spans_account_for_each_command(tmp_path):
    gates = (
        workloads.Gate("h", (0,)),
        workloads.Gate("cnot", (0, 2)),
        workloads.Gate("u2", (1,), (0.3, -1.2, 2.0, 0.5)),
        workloads.Gate("toffoli", (2, 1, 0)),
    )
    jobs = (
        workloads.Job(0, 3, None, gates, True, workloads.COMMANDS),
        workloads.Job(1, 3, 1, gates, True, workloads.COMMANDS),
    )
    for job in jobs:
        (tmp_path / f"{job.name}.qc").write_text(job.source(), encoding="utf-8")
    session = run.Session(jobs, tmp_path)
    session.run_pass(0)
    tracer = Tracer()
    with tracer.installed():
        session.run_pass(1, tracer)
    tracer.add_bridge_products()
    assert session.failures == []
    assert session.attempted == 2 * 2 * 6
    metrics = layer_metrics(tracer.spans)
    for command in workloads.COMMANDS:
        layers = sum(
            s.seconds
            for s in tracer.spans
            if s.parent is not None and tracer.spans[s.parent].name == f"cli.{command}"
        )
        total = metrics[f"cli.{command}.s"]
        assert metrics[f"cli.{command}.self_s"] + layers == pytest.approx(total, rel=1e-9)
    assert metrics["compiler.prune_dead_paths.kept_ratio"] > 0
    assert metrics["equivalence.bridge_product.s"] > 0
    assert metrics["equivalence.max_deviation"] < 1e-10


def test_a_changed_output_counts_as_failed(tmp_path):
    job = _mz_job()
    (tmp_path / "c00.qc").write_text(job.source(), encoding="utf-8")
    session = run.Session((job,), tmp_path)
    session.run_pass(0)
    (tmp_path / "c00.qc").write_text(job.source() + "z 0\n", encoding="utf-8")
    session.run_pass(1)
    assert session.failures and all("differs" in f for f in session.failures)


def test_self_time_excludes_child_spans():
    spans = [
        Span("cli.verify", 0.0, 10.0, None, "j"),
        Span("statevec.circuit_unitary", 0.5, 0.9, 0, "j"),
        Span("optics.netlist_unitary", 1.0, 8.0, 0, "j"),
    ]
    tracer = Tracer()
    tracer.spans = spans
    tracer.add_bridge_products()
    metrics = layer_metrics(tracer.spans)
    assert metrics["equivalence.bridge_product.s"] == pytest.approx(0.1)
    assert metrics["cli.verify.self_s"] == pytest.approx(10.0 - 0.4 - 0.1 - 7.0)
    assert metrics["optics.self_s"] == pytest.approx(7.0)


def test_metric_names_match_benchmark_json():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert per_layer == set(layer_metrics([])) | {"trace.overhead_ratio"}
    passes = [{("c00", key): 1.0 for key in ("compile", "stats", "run", "diagram")}]
    produced = set(run._end_to_end(passes)) | {"setup_s", "peak_rss_mb"}
    produced |= {"device_elements", "device_splitters", "device_depth"}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == produced
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)

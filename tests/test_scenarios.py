from dataclasses import replace

import numpy as np
import pytest

from photonc.compiler import (
    QubitAssignment,
    decompose_u2,
    device_stats,
    prepare_location_state,
    prepare_path_state,
)
from photonc.optics import ModeAmplitudes, ModeSpace
from photonc.scenarios import (
    ScenarioReport,
    demo_mz,
    demo_teleport,
    mz_circuit,
    mz_rotator_circuit,
    reduced_path_matrix,
    teleport_circuit,
)
from photonc.statevec import StateVector

NAN = float("nan")


def _nan_readings():
    report = demo_mz()
    return replace(report, readings=tuple(replace(r, probability=NAN) for r in report.readings))


@pytest.mark.parametrize("call, message", [
    (lambda: demo_teleport(NAN, 0), "must be normalized"),
    (lambda: prepare_location_state(NAN, 0, 0, QubitAssignment.default(1)), "must be normalized"),
    (lambda: prepare_path_state([NAN, 0, 0, 0], ModeSpace(2)), "must be normalized"),
    (lambda: StateVector(1, [NAN, 0]), "is not 1"),
    (lambda: decompose_u2(np.full((2, 2), NAN)), "not unitary"),
    (_nan_readings, "probabilities sum to nan"),
], ids=["demo_teleport", "prepare_location_state", "prepare_path_state", "StateVector",
        "decompose_u2", "ScenarioReport"])
def test_nan_fails_every_tolerance_guard(call, message):
    # Each guard was abs(x - 1) > tol, which is False for NaN.
    with pytest.raises(ValueError, match=message):
        call()


class TestBundledCircuits:
    def test_mz(self):
        circ = mz_circuit()
        assert circ.n_qubits == 1
        assert circ.pol_qubit is None
        assert len(circ.gates) == 2

    def test_mz_rotator(self):
        circ = mz_rotator_circuit()
        assert circ.n_qubits == 2
        assert circ.pol_qubit == 1
        assert len(circ.gates) == 3

    def test_teleport(self):
        circ = teleport_circuit()
        assert circ.n_qubits == 3
        assert circ.pol_qubit == 1
        assert len(circ.gates) == 8


class TestMz:
    def test_bright_port_takes_everything(self):
        report = demo_mz()
        probs = [r.probability for r in report.readings]
        assert probs[0] == pytest.approx(1.0, abs=1e-10)
        assert probs[1] < 1e-12

    def test_port_tags(self):
        report = demo_mz()
        assert report.readings[0].tag == "light"
        assert report.readings[1].tag == "dark"

    def test_no_branches_without_rotator(self):
        assert demo_mz().branches == ()

    def test_rotator_erases_fringe(self):
        report = demo_mz(rotator=True)
        diag = report.reduced_paths.diagonal().real
        assert np.allclose(diag, [0.5, 0.5], atol=1e-10)

    def test_rotator_reduced_matrix_fully_mixed(self):
        report = demo_mz(rotator=True)
        assert np.max(np.abs(report.reduced_paths - np.eye(2) / 2)) < 1e-10

    def test_rotator_polarization_records_orthogonal(self):
        report = demo_mz(rotator=True)
        first, second = report.branches
        assert first.probability == pytest.approx(0.5, abs=1e-10)
        assert second.probability == pytest.approx(0.5, abs=1e-10)
        overlap = abs(np.vdot(first.conditional, second.conditional)) ** 2
        assert overlap < 1e-20

    def test_rotator_adds_one_rotator(self):
        report = demo_mz(rotator=True)
        assert device_stats(report.netlist).rotators == 1


class TestTeleport:
    def test_four_equal_branches(self):
        report = demo_teleport(0.6, 0.8j)
        assert len(report.branches) == 4
        for branch in report.branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-10)
            assert branch.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_random_inputs_keep_fidelity(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            vec = rng.normal(size=2) + 1j * rng.normal(size=2)
            vec /= np.linalg.norm(vec)
            report = demo_teleport(vec[0], vec[1])
            for branch in report.branches:
                assert branch.fidelity > 1 - 1e-10

    def test_basis_input_dark_ports(self):
        report = demo_teleport(1.0, 0.0)
        dark = sum(r.probability for r in report.readings if r.mode in (2, 3, 6, 7))
        assert dark < 1e-12

    def test_pruned_element_counts(self):
        # with no preparation hardware for (1,0) the pruned netlist is the
        # bare teleport one: 7 splitters + 2 polarizing splitters
        stats = device_stats(demo_teleport(1.0, 0.0).netlist)
        assert stats.splitting_elements == 9
        # a generic input adds one preparation splitter
        stats = device_stats(demo_teleport(0.6, 0.8j).netlist)
        assert stats.splitting_elements == 10

    def test_unpruned_keeps_dead_hardware(self):
        pruned = device_stats(demo_teleport(0.6, 0.8j).netlist)
        unpruned = device_stats(demo_teleport(0.6, 0.8j, prune=False).netlist)
        assert unpruned.splitting_elements == pruned.splitting_elements + 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            demo_teleport(1.0, 1.0)

    def test_herald_labels(self):
        report = demo_teleport(0.6, 0.8j)
        assert report.branches[0].herald == "carrier bit 0, pol H"
        assert report.branches[3].herald == "carrier bit 1, pol V"


class TestReport:
    def test_text_is_deterministic(self):
        a = demo_teleport(0.6, 0.8j).as_text()
        b = demo_teleport(0.6, 0.8j).as_text()
        assert a == b

    def test_text_contents(self):
        text = demo_mz(rotator=True).as_text()
        assert "scenario: mz_rotator" in text
        assert "p = 0.500000" in text
        assert text.endswith("\n")

    def test_probability_sum_invariant(self):
        from photonc.compiler import compile_circuit
        from photonc.scenarios import DetectorReading

        circ = mz_circuit()
        with pytest.raises(ValueError, match="sum"):
            ScenarioReport(
                name="broken",
                circuit=circ,
                netlist=compile_circuit(circ),
                input_mode=0,
                final=ModeAmplitudes(ModeSpace(1), np.array([0.5, 0.0], dtype=complex)),
                readings=(
                    DetectorReading(0, "0", 0.25, "light"),
                    DetectorReading(1, "1", 0.0, "dark"),
                ),
                reduced_paths=np.eye(2) / 2,
            )


class TestReducedPathMatrix:
    def test_plain_space_projector(self):
        space = ModeSpace(1)
        amps = ModeAmplitudes(space, np.array([0.6, 0.8j]))
        rho = reduced_path_matrix(amps)
        assert rho[0, 0] == pytest.approx(0.36)
        assert rho[1, 1] == pytest.approx(0.64)
        assert rho[0, 1] == pytest.approx(-0.48j)

    def test_traces_out_polarization(self):
        space = ModeSpace(1, uses_pol=True)
        amps = ModeAmplitudes(space, np.array([0.5, 0.5, 0.5, -0.5]))
        rho = reduced_path_matrix(amps)
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12

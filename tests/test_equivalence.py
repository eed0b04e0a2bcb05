import itertools
from importlib import resources

import numpy as np
import pytest

from photonc.circuit import parse_circuit
from photonc.compiler import QubitAssignment
from photonc.equivalence import (
    EquivalenceReport,
    basis_bridge,
    basis_order,
    bridge_conjugate,
    global_phase_distance,
    state_fidelity,
)
from photonc.statevec import StateVector, circuit_unitary
from conftest import haar_u2, random_assignment, random_circuit


class TestGlobalPhaseDistance:
    def test_identical(self):
        rng = np.random.default_rng(89)
        u = haar_u2(rng)
        report = global_phase_distance(u, u)
        assert report.distance < 1e-15
        assert report.passed
        assert report.aligning_phase == pytest.approx(0.0)

    def test_pure_global_phase_is_free(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            u = haar_u2(rng)
            phi = float(rng.uniform(-np.pi, np.pi))
            report = global_phase_distance(u, np.exp(1j * phi) * u)
            assert report.distance < 1e-12
            assert report.aligning_phase == pytest.approx(phi, abs=1e-10)

    def test_genuine_mismatch_fails(self):
        report = global_phase_distance(np.eye(2), np.array([[0, 1], [1, 0]]))
        assert not report.passed
        assert report.distance > 0.5

    def test_orthogonal_overlap_fallback(self):
        # trace inner product vanishes for diag(1,-1) vs identity; the
        # fallback alignment still reports the honest distance of 2.
        report = global_phase_distance(np.diag([1.0, -1.0]), np.eye(2))
        assert not report.passed
        assert report.distance == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            global_phase_distance(np.eye(2), np.eye(3))

    def test_works_on_vectors(self):
        v = np.array([0.6, 0.8j])
        report = global_phase_distance(v, 1j * v)
        assert report.passed

    def test_tolerance_respected(self):
        u = np.eye(2)
        v = u + 1e-6
        assert not global_phase_distance(u, v, tolerance=1e-10).passed
        assert global_phase_distance(u, v, tolerance=1e-2).passed

    def test_report_text(self):
        report = EquivalenceReport(1e-12, 0.5, 1e-10, True)
        assert "equivalent" in str(report)
        report = EquivalenceReport(0.3, 0.5, 1e-10, False)
        assert "NOT equivalent" in str(report)


class TestStateFidelity:
    def test_arrays(self):
        v = np.array([1.0, 0.0])
        assert state_fidelity(v, v) == pytest.approx(1.0)
        assert state_fidelity(v, np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_phase_insensitive(self):
        v = np.array([0.6, 0.8])
        assert state_fidelity(v, np.exp(0.3j) * v) == pytest.approx(1.0)

    def test_accepts_amplitude_carriers(self):
        a = StateVector.basis(1, 0)
        b = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        assert state_fidelity(a, b) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            state_fidelity(np.zeros(2), np.zeros(4))


class TestBasisBridge:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_is_each_modes_basis_index(self, n):
        # Every assignment of n qubits, against the per-index bit shuffle.
        for pol in (None, *range(n)):
            for order in itertools.permutations([q for q in range(n) if q != pol]):
                asg = QubitAssignment(n, order, pol)
                mode_qubits = (*order, *(() if pol is None else (pol,)))
                expected = np.zeros(1 << n, np.int64)
                for index in range(1 << n):
                    bits = "".join(str((index >> (n - 1 - q)) & 1) for q in mode_qubits)
                    expected[int(bits, 2)] = index
                assert basis_order(asg).tolist() == expected.tolist()
                assert np.array_equal(np.argmax(basis_bridge(asg), axis=1), expected)

    def test_identity_layout(self):
        bridge = basis_bridge(QubitAssignment.default(2))
        assert np.array_equal(bridge, np.eye(4))

    def test_permutation_matrix(self):
        rng = np.random.default_rng(101)
        for n in (1, 2, 3):
            pol = int(rng.integers(n)) if n >= 2 else None
            order = tuple(int(q) for q in rng.permutation(n) if q != pol)
            bridge = basis_bridge(QubitAssignment(n, order, pol))
            dim = 2**n
            assert bridge.shape == (dim, dim)
            assert np.array_equal(bridge @ bridge.T, np.eye(dim))
            assert np.all(bridge.sum(axis=0) == 1)

    def test_teleport_layout_basis_states(self):
        circ = parse_circuit("qubits 3\npol 1\nh 0\n")
        asg = QubitAssignment.for_circuit(circ)
        bridge = basis_bridge(asg)
        # |010>: carrier path bits (q0,q2) = 00, pol bit q1 = 1 -> mode 1
        assert bridge[1, 2] == 1.0
        # |100>: path bits 10 -> path 2, pol 0 -> mode 4
        assert bridge[4, 4] == 1.0
        # |001>: path bits 01 -> path 1, pol 0 -> mode 2
        assert bridge[2, 1] == 1.0

    def test_swapped_location_order(self):
        bridge = basis_bridge(QubitAssignment(2, (1, 0)))
        # |01>: qubit 1 set -> high path bit set -> mode 2
        assert bridge[2, 1] == 1.0
        assert bridge[1, 2] == 1.0


class TestBridgeConjugate:
    def check(self, circuit, assignment):
        bridge = basis_bridge(assignment)
        u = circuit_unitary(circuit)
        assert np.array_equal(bridge_conjugate(u, bridge), bridge @ u @ bridge.T)

    def test_bundled_circuits(self):
        for qc in resources.files("photonc").joinpath("circuits").iterdir():
            circuit = parse_circuit(qc.read_text(encoding="utf-8"))
            self.check(circuit, QubitAssignment.for_circuit(circuit))

    def test_random_circuits(self):
        rng = np.random.default_rng(131)
        for n in (1, 2, 3, 4, 5):
            for _ in range(4):
                self.check(random_circuit(rng, n, 12), random_assignment(rng, n))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonc.circuit import (
    Gate,
    GateKind,
    QuantumCircuit,
    cnot,
    gate_unitary,
    h,
    parse_circuit,
    s,
)
from photonc.statevec import (
    StateVector,
    circuit_unitary,
    run_circuit,
    run_circuit_dense,
)
from conftest import random_circuit, random_gate


class TestStateVector:
    def test_basis_int_label(self):
        st = StateVector.basis(2, 3)
        assert st.amplitudes[3] == 1.0

    def test_basis_string_label(self):
        st = StateVector.basis(3, "101")
        assert st.amplitudes[5] == 1.0

    @pytest.mark.parametrize("label", [2.7, 2.0, True, -1, 4, "1", "111", "1x", "", np.int64(1)],
                             ids=repr)
    def test_basis_refuses_bad_labels(self, label):
        # 2.7 was state 2, True state 1, -1 state 3 and "1" state 1;
        # "111" and 4 ended in an IndexError.
        with pytest.raises(ValueError, match="basis label"):
            StateVector.basis(2, label)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([0.5, 0.5]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_probabilities(self):
        st = StateVector(1, np.array([0.6, 0.8j]))
        assert np.allclose(st.probabilities(), [0.36, 0.64])


class TestRunCircuit:
    def test_h_twice_identity(self):
        circ = parse_circuit("qubits 1\nh 0\nh 0\n")
        out = run_circuit(circ, StateVector.basis(1, 0))
        assert abs(out.amplitudes[0] - 1.0) < 1e-12

    def test_bell_state(self):
        circ = QuantumCircuit(2, (h(0), cnot(0, 1)))
        out = run_circuit(circ, StateVector.basis(2, 0))
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_ghz_state(self):
        circ = QuantumCircuit(3, (h(0), cnot(0, 1), cnot(1, 2)))
        out = run_circuit(circ, StateVector.basis(3, 0))
        assert abs(out.amplitudes[0] - 1 / np.sqrt(2)) < 1e-12
        assert abs(out.amplitudes[7] - 1 / np.sqrt(2)) < 1e-12

    def test_qubit_count_mismatch(self):
        circ = QuantumCircuit(2, (h(0),))
        with pytest.raises(ValueError):
            run_circuit(circ, StateVector.basis(1, 0))

    def test_sparse_matches_dense_per_gate(self):
        rng = np.random.default_rng(31)
        for kind in GateKind:
            n = max(kind.n_qubits, 2)
            for _ in range(8):
                qubits = tuple(int(q) for q in rng.choice(n, size=kind.n_qubits, replace=False))
                params = tuple(float(v) for v in rng.uniform(-np.pi, np.pi, size=kind.n_params))
                gate = Gate(kind, qubits, params)
                circ = QuantumCircuit(n, (gate,))
                amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                amps /= np.linalg.norm(amps)
                st = StateVector(n, amps)
                sparse = run_circuit(circ, st).amplitudes
                dense = gate_unitary(gate, n) @ amps
                assert np.max(np.abs(sparse - dense)) < 1e-12, kind

    def test_sparse_matches_dense_random_circuits(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            circ = random_circuit(rng, n, int(rng.integers(0, 12)))
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            st = StateVector(n, amps)
            a = run_circuit(circ, st).amplitudes
            b = run_circuit_dense(circ, st).amplitudes
            assert np.max(np.abs(a - b)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_circuit_unitary_is_the_gate_unitary_product(self, data):
        # Every gate kind the qubit count allows, on random distinct operands.
        n = data.draw(st.integers(1, 4))
        angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
        gates = []
        for kind in data.draw(st.lists(st.sampled_from([k for k in GateKind if k.n_qubits <= n]),
                                       max_size=12)):
            qubits = data.draw(st.permutations(range(n)))[: kind.n_qubits]
            gates.append(Gate(kind, qubits, data.draw(st.tuples(*[angles] * kind.n_params))))
        circ = QuantumCircuit(n, tuple(gates))
        expected = np.eye(2**n, dtype=complex)
        for gate in gates:
            expected = gate_unitary(gate, n) @ expected
        assert np.max(np.abs(circuit_unitary(circ) - expected)) < 1e-12

    def test_circuit_unitary_composes_left(self):
        circ = QuantumCircuit(1, (h(0), s(0)))
        rng = np.random.default_rng(3)
        expected = gate_unitary(s(0), 1) @ gate_unitary(h(0), 1)
        assert np.max(np.abs(circuit_unitary(circ) - expected)) < 1e-14

    def test_teleport_closed_form(self):
        circ = parse_circuit(
            "qubits 3\nh 0\nh 2\ncnot 0 1\ncnot 2 1\nh 0\ncnot 1 2\nh 2\ncnot 0 2\n"
        )
        a, b = 0.6, 0.8j
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[4] = a, b
        out = run_circuit(circ, StateVector(3, amps)).amplitudes
        expected = 0.5 * np.array([a, b, a, b, a, b, a, b])
        assert np.max(np.abs(out - expected)) < 1e-12

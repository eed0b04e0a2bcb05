import math

import numpy as np
import pytest

from photonc.circuit import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    S_GATE,
    CircuitError,
    CircuitParseError,
    Gate,
    GateKind,
    QuantumCircuit,
    cnot,
    cz,
    fredkin,
    gate_text,
    gate_unitary,
    h,
    parse_angle,
    parse_circuit,
    phase,
    s,
    swap,
    toffoli,
    u2,
    u2_from_params,
    x,
    z,
)
from conftest import random_circuit


def _source(circ: QuantumCircuit) -> str:
    # The circuit's text: its header lines, then one gate_text line per gate.
    pol = [] if circ.pol_qubit is None else [f"pol {circ.pol_qubit}"]
    return "\n".join([f"qubits {circ.n_qubits}", *pol, *map(gate_text, circ.gates)]) + "\n"


class TestParseAngle:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("pi/2", math.pi / 2),
            ("-pi/4", -math.pi / 4),
            ("2pi", 2 * math.pi),
            ("0.5pi", 0.5 * math.pi),
            ("2pi/3", 2 * math.pi / 3),
            ("+pi/2", math.pi / 2),
            ("1.5", 1.5),
            ("-0.25", -0.25),
            ("3", 3.0),
        ],
    )
    def test_values(self, token, value):
        assert parse_angle(token) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("token", ["", "pie", "pi/", "/2", "pi/0x2", "2pi/", "--pi", "nan"])
    def test_rejects(self, token):
        with pytest.raises(ValueError):
            parse_angle(token)


class TestParsing:
    def test_parse_simple(self):
        circ = parse_circuit("qubits 2\nh 0\ncnot 0 1\n")
        assert circ.n_qubits == 2
        assert circ.pol_qubit is None
        assert [g.kind for g in circ.gates] == [GateKind.H, GateKind.CNOT]
        assert circ.gates[1].qubits == (0, 1)

    def test_comments_and_blanks(self):
        text = "# header\n\nqubits 1\n  # indented comment\nh 0  # trailing\n"
        circ = parse_circuit(text)
        assert len(circ.gates) == 1

    def test_pol_directive(self):
        circ = parse_circuit("qubits 3\npol 1\nh 0\n")
        assert circ.pol_qubit == 1

    def test_params(self):
        circ = parse_circuit("qubits 1\nphase 0 pi/2\nu2 0 pi/4 0 pi 0\n")
        assert circ.gates[0].params == (pytest.approx(math.pi / 2),)
        assert len(circ.gates[1].params) == 4

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            circ = random_circuit(rng, n, int(rng.integers(0, 8)))
            assert parse_circuit(_source(circ)) == circ

    def test_round_trip_with_pol(self):
        circ = QuantumCircuit(3, (h(0), cnot(0, 1)), pol_qubit=2)
        text = _source(circ)
        assert "pol 2" in text
        assert parse_circuit(text) == circ

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("h 0\n", 1, "qubits"),
            ("qubits 2 3\n", 1, "qubits takes one argument"),
            ("qubits 2\npol 0 1\n", 2, "pol takes one argument"),
            ("qubits 2\nphase 0 inf\n", 2, "malformed angle 'inf'"),
            ("qubits 2\nqubits 2\n", 2, "duplicate qubits"),
            ("qubits 0\n", 1, "at least 1"),
            ("qubits x\n", 1, "bad qubit count"),
            ("qubits 2\nfoo 0\n", 2, "unknown mnemonic"),
            ("qubits 2\nh 0 1\n", 2, "h takes"),
            ("qubits 2\ncnot 0\n", 2, "cnot takes"),
            ("qubits 2\nh 2\n", 2, "out of range"),
            ("qubits 2\nh -1\n", 2, "out of range"),
            ("qubits 2\nh x\n", 2, "bad qubit index"),
            ("qubits 2\ncnot 1 1\n", 2, "repeated operand"),
            ("qubits 2\nphase 0 zz\n", 2, "malformed angle"),
            ("qubits 2\npol 1\npol 0\n", 3, "duplicate pol"),
            ("qubits 2\npol 5\n", 2, "out of range"),
            ("", 1, "missing 'qubits'"),
            ("# only a comment\n", 2, "missing 'qubits'"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(CircuitParseError) as exc_info:
            parse_circuit(text)
        assert exc_info.value.line == line
        assert fragment in str(exc_info.value)
        assert str(exc_info.value).startswith(f"line {line}:")


class TestRepeatedLines:
    def test_repeated_lines_give_equal_gates(self):
        text = "qubits 3\nh 0\ncnot 0 1\n  h 0  # again\ncnot 1 0\nphase 2 -0.0\nphase 2 0.0\n" \
               "cnot 0 1\nphase 2 -0.0\n"
        assert parse_circuit(text).gates == (
            h(0), cnot(0, 1), h(0), cnot(1, 0), phase(2, -0.0), phase(2, 0.0), cnot(0, 1),
            phase(2, -0.0))
        signs = [math.copysign(1, g.params[0]) for g in parse_circuit(text).gates if g.params]
        assert signs == [-1, 1, -1]

    def test_repeated_bad_line_reports_its_first_line(self):
        with pytest.raises(CircuitParseError) as exc_info:
            parse_circuit("qubits 2\nh 0\nh 5\nh 0\nh 5\n")
        assert exc_info.value.line == 3

    def test_mnemonics_ignore_case(self):
        assert parse_circuit("qubits 2\nH 0\nh 0\nCnot 0 1\n").gates == (h(0), h(0), cnot(0, 1))


class TestGateValidation:
    def test_operand_count(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.CNOT, (0,))

    def test_repeated_operand(self):
        with pytest.raises(CircuitError, match="repeated operand"):
            Gate(GateKind.SWAP, (1, 1))

    def test_negative_qubit(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.H, (-1,))

    def test_param_count(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.PHASE, (0,))
        with pytest.raises(CircuitError):
            Gate(GateKind.H, (0,), (1.0,))

    def test_non_finite_param(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.PHASE, (0,), (float("inf"),))

    @pytest.mark.parametrize("build", [
        lambda: Gate(GateKind.H, (1.9,)), lambda: Gate(GateKind.H, (True,)),
        lambda: Gate(GateKind.PHASE, (0,), ("1.5",)), lambda: Gate(GateKind.PHASE, (0,), (True,)),
        lambda: QuantumCircuit(2.0), lambda: QuantumCircuit(True),
        lambda: QuantumCircuit(2, (), 1.5), lambda: QuantumCircuit(2, (), True),
    ], ids=["float-qubit", "bool-qubit", "str-angle", "bool-angle", "float-count", "bool-count",
            "float-pol", "bool-pol"])
    def test_input_is_refused_never_coerced(self, build):
        # Gate(GateKind.H, (1.9,)) used to become h 1, and "1.5" was parsed.
        with pytest.raises(CircuitError):
            build()

    def test_int_angles_are_stored_as_floats(self):
        assert Gate(GateKind.PHASE, (0,), (2,)).params == (2.0,)
        assert type(Gate(GateKind.PHASE, (0,), (np.float64(0.5),)).params[0]) is float

    def test_validate_for(self):
        cnot(0, 3).validate_for(4)
        with pytest.raises(CircuitError):
            cnot(0, 3).validate_for(3)

    def test_circuit_rejects_out_of_range_gate(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1, (cnot(0, 1),))

    def test_circuit_rejects_bad_pol(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2, (), pol_qubit=2)

    def test_kind_properties(self):
        assert GateKind.H.n_qubits == 1
        assert GateKind.TOFFOLI.n_qubits == 3
        assert GateKind.U2.n_params == 4
        assert GateKind.PHASE.n_params == 1
        assert GateKind.CNOT.n_params == 0


class TestGateText:
    def test_plain(self):
        assert gate_text(cnot(2, 0)) == "cnot 2 0"

    def test_params_round_trip_exactly(self):
        gate = phase(0, 0.1234567890123456789)
        parsed = parse_circuit(f"qubits 1\n{gate_text(gate)}\n").gates[0]
        assert parsed.params == gate.params


class TestUnitaries:
    def test_constants(self):
        for m in (HADAMARD, PAULI_X, PAULI_Z, S_GATE):
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) <= 1e-12
        assert np.allclose(HADAMARD @ HADAMARD, np.eye(2), atol=1e-15)

    def test_u2_from_params_hadamard(self):
        assert np.max(np.abs(u2_from_params(math.pi / 4, 0.0, math.pi, 0.0) - HADAMARD)) < 1e-12

    def test_u2_from_params_gamma_is_global_phase(self):
        base = u2_from_params(0.3, 0.4, 0.5, 0.0)
        shifted = u2_from_params(0.3, 0.4, 0.5, 0.7)
        assert np.max(np.abs(shifted - np.exp(0.7j) * base)) < 1e-12

    def test_u2_from_params_cross_form(self):
        # theta=pi/2 with phi=pi/2, lam=-pi/2 lands on i*X.
        got = u2_from_params(math.pi / 2, math.pi / 2, -math.pi / 2, 0.0)
        assert np.max(np.abs(got - 1j * PAULI_X)) < 1e-12

    def test_u2_random_params_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = u2_from_params(*rng.uniform(-np.pi, np.pi, size=4))
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) <= 1e-12

    def test_gate_unitary_all_kinds_unitary(self):
        rng = np.random.default_rng(17)
        for kind in GateKind:
            n = kind.n_qubits + 1
            qubits = tuple(range(kind.n_qubits))
            params = tuple(rng.uniform(-np.pi, np.pi, size=kind.n_params))
            u = gate_unitary(Gate(kind, qubits, params), n)
            assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-12, kind

    def test_qubit0_is_most_significant(self):
        # X on qubit 0 of two flips the high bit: |00> -> |10>.
        u = gate_unitary(x(0), 2)
        amp = u @ np.eye(4)[0]
        assert np.argmax(np.abs(amp)) == 2

    def test_cnot_truth_table(self):
        u = gate_unitary(cnot(0, 2), 3)
        for i in range(8):
            j = i ^ 1 if i & 4 else i
            assert u[j, i] == 1.0

    def test_cz_phases(self):
        u = gate_unitary(cz(0, 1), 2)
        assert np.allclose(np.diag(u), [1, 1, 1, -1])

    def test_swap_exchanges(self):
        u = gate_unitary(swap(0, 1), 2)
        assert u[1, 2] == 1.0 and u[2, 1] == 1.0

    def test_toffoli_flip(self):
        u = gate_unitary(toffoli(0, 1, 2), 3)
        assert u[7, 6] == 1.0 and u[6, 7] == 1.0
        assert np.allclose(np.diag(u)[:6], 1.0)

    def test_fredkin_exchange(self):
        u = gate_unitary(fredkin(0, 1, 2), 3)
        # control set: |101> <-> |110>
        assert u[6, 5] == 1.0 and u[5, 6] == 1.0
        assert u[5, 5] == 0.0

    def test_single_qubit_embedding_matches_kron(self):
        rng = np.random.default_rng(23)
        params = tuple(rng.uniform(-np.pi, np.pi, size=4))
        gate = u2(1, *params)
        expected = np.kron(np.kron(np.eye(2), u2_from_params(*params)), np.eye(2))
        assert np.max(np.abs(gate_unitary(gate, 3) - expected)) < 1e-14

    def test_constructors_match_kinds(self):
        assert h(0).kind is GateKind.H
        assert x(0).kind is GateKind.X
        assert z(0).kind is GateKind.Z
        assert s(0).kind is GateKind.S
        assert fredkin(0, 1, 2).kind is GateKind.FREDKIN

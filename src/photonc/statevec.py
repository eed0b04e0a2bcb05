"""Reference state-vector simulator for the gate set in :mod:`photonc.circuit`.

Two independent execution routes are kept on purpose:

  - run_circuit applies each gate to the (2,)*n view of the amplitudes as
    one of three primitives: a 2x2 on one qubit's axis (H, X, U2), a phase
    where every operand reads 1 (Z, S, PHASE, CZ), or an exchange of two
    halves where every control reads 1 (CNOT and TOFFOLI flip their last
    operand, SWAP and FREDKIN exchange their last two). Phases and
    exchanges are written in place, an exchange through one copy of one
    half; no 2^n x 2^n matrix is built. circuit_unitary runs the same gates
    over the row-major flat identity, a 2n-qubit vector whose high n qubits
    are the row index, in O(G * 4^n);
  - run_circuit_dense multiplies the embedded gate unitaries together.

Agreement between the two is a standing cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Gate, GateKind, QuantumCircuit, gate_unitary, one_qubit_matrix

_NORM_TOL = 1e-10


@dataclass(eq=False)
class StateVector:
    """Normalized pure state of n_qubits qubits (qubit 0 is the high bit)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if self.n_qubits < 0:
            raise ValueError("negative qubit count")
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got {self.amplitudes.shape[0]}"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if not abs(norm - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm {norm} is not 1")

    @classmethod
    def basis(cls, n_qubits: int, label: int | str) -> StateVector:
        """Computational basis state, from an int index or an n-bit string;
        anything else (a float, a bool, a digit string of the wrong width)
        raises, never truncated or wrapped."""
        dim = 1 << n_qubits
        index = label
        if isinstance(label, str) and len(label) == n_qubits and set(label) <= {"0", "1"}:
            index = int(label or "0", 2)
        if type(index) is not int or not 0 <= index < dim:
            raise ValueError(f"basis label {label!r} is not an index below {dim} "
                             f"or a string of {n_qubits} bit(s)")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _apply_single(amps: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # Amplitudes for qubit q sit at stride 2^(n-1-q); reshape exposes that axis.
    left = 1 << qubit
    right = 1 << (n - 1 - qubit)
    psi = amps.reshape(left, 2, right)
    return np.einsum("ab,xby->xay", matrix, psi).reshape(-1)


_PHASES = {GateKind.Z: -1.0, GateKind.CZ: -1.0, GateKind.S: 1.0j}
_EXCHANGED = {GateKind.CNOT: 1, GateKind.TOFFOLI: 1, GateKind.SWAP: 2, GateKind.FREDKIN: 2}


def _apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """amps after one gate: a 2x2 on one qubit's axis returns a new array;
    a phase or an exchange overwrites amps and returns its flat view."""
    kind, qs = gate.kind, gate.qubits
    if kind in (GateKind.H, GateKind.X, GateKind.U2):
        return _apply_single(amps, one_qubit_matrix(gate), qs[0], n)
    psi = amps.reshape((2,) * n)
    where = [slice(None)] * n
    moved = _EXCHANGED.get(kind, 0)  # the last operands an exchange moves
    for q in qs[:len(qs) - moved]:
        where[q] = 1
    if not moved:
        psi[tuple(where)] *= np.exp(1j * gate.params[0]) if kind is GateKind.PHASE else _PHASES[kind]
        return psi.reshape(-1)
    # The first moved operand reads 0 in first and 1 in second; a pair's
    # other operand reads the opposite bit.
    first, second = list(where), where
    for bit, q in enumerate(qs[-moved:]):
        first[q], second[q] = bit, 1 - bit
    first, second = tuple(first), tuple(second)
    half = psi[first].copy()
    psi[first] = psi[second]
    psi[second] = half
    return psi.reshape(-1)


def run_circuit(circuit: QuantumCircuit, state: StateVector) -> StateVector:
    """Apply the circuit gate by gate to a copy of the state's amplitudes."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit qubit counts differ")
    amps = state.amplitudes.copy()
    for gate in circuit.gates:
        amps = _apply_gate(amps, gate, circuit.n_qubits)
    return StateVector(circuit.n_qubits, amps)


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense unitary of the whole circuit: its gates applied to the flat identity."""
    n, dim = circuit.n_qubits, 1 << circuit.n_qubits
    flat = np.eye(dim, dtype=complex).reshape(-1)
    for gate in circuit.gates:
        flat = _apply_gate(flat, gate, 2 * n)
    return flat.reshape(dim, dim)


def run_circuit_dense(circuit: QuantumCircuit, state: StateVector) -> StateVector:
    """Cross-check route: apply the product of the embedded gate unitaries."""
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("state and circuit qubit counts differ")
    u = np.eye(1 << circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_unitary(gate, circuit.n_qubits) @ u
    return StateVector(circuit.n_qubits, u @ state.amplitudes)

"""Reference state-vector simulator for the gate set in :mod:`photonc.circuit`.

Two independent execution routes are kept on purpose:

  - run_circuit applies each gate sparsely to the amplitude vector using
    stride arithmetic over basis indices (no 2^n x 2^n matrix is built);
    circuit_unitary runs the same gates over the row-major flat identity,
    a 2n-qubit vector whose high n qubits are the row index, in O(G * 4^n);
  - run_circuit_dense multiplies the embedded gate unitaries together.

Agreement between the two is a standing cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        """Computational basis state, from an index or a bitstring."""
        index = int(label, 2) if isinstance(label, str) else int(label)
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over qubit states."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.array(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.max(np.abs(self.entries - self.entries.conj().T)) <= 1e-12:  # NaN fails too
            raise ValueError("density matrix must be hermitian")
        if not abs(np.trace(self.entries).real - 1.0) <= 1e-10:
            raise ValueError("density matrix trace must be 1")
        if float(np.linalg.eigvalsh(self.entries).min()) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _apply_single(amps: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # Amplitudes for qubit q sit at stride 2^(n-1-q); reshape exposes that axis.
    left = 1 << qubit
    right = 1 << (n - 1 - qubit)
    psi = amps.reshape(left, 2, right)
    return np.einsum("ab,xby->xay", matrix, psi).reshape(-1)


def _selector(n: int, fixed: dict[int, int]) -> tuple:
    sel: list = [slice(None)] * n
    for qubit, value in fixed.items():
        sel[qubit] = value
    return tuple(sel)


def _apply_swap(
    amps: np.ndarray, controls: Iterable[int], first: dict, second: dict, n: int
) -> np.ndarray:
    # Exchange the amplitudes reading `first` and `second` where all controls are 1.
    psi = amps.reshape([2] * n).copy()
    base = {c: 1 for c in controls}
    sel0, sel1 = _selector(n, base | first), _selector(n, base | second)
    psi[sel0], psi[sel1] = psi[sel1].copy(), psi[sel0].copy()
    return psi.reshape(-1)


def _apply_phase_where(
    amps: np.ndarray, ones: Iterable[int], factor: complex, n: int
) -> np.ndarray:
    psi = amps.reshape([2] * n).copy()
    psi[_selector(n, {q: 1 for q in ones})] *= factor
    return psi.reshape(-1)


def _apply_gate(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    kind, qs = gate.kind, gate.qubits
    if kind in (GateKind.H, GateKind.X, GateKind.U2):
        return _apply_single(amps, one_qubit_matrix(gate), qs[0], n)
    if kind in (GateKind.Z, GateKind.CZ):
        return _apply_phase_where(amps, qs, -1.0, n)
    if kind is GateKind.S:
        return _apply_phase_where(amps, qs, 1.0j, n)
    if kind is GateKind.PHASE:
        return _apply_phase_where(amps, qs, np.exp(1j * gate.params[0]), n)
    if kind in (GateKind.CNOT, GateKind.TOFFOLI):
        *controls, target = qs
        return _apply_swap(amps, controls, {target: 0}, {target: 1}, n)
    if kind in (GateKind.SWAP, GateKind.FREDKIN):
        *controls, a, b = qs
        return _apply_swap(amps, controls, {a: 0, b: 1}, {a: 1, b: 0}, n)
    raise ValueError(f"unhandled gate kind {kind.value}")


def run_circuit(circuit: QuantumCircuit, state: StateVector) -> StateVector:
    """Apply the circuit gate by gate with per-gate stride arithmetic."""
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


def _check_qubits(qubits: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    qs = tuple(int(q) for q in qubits)
    if len(qs) == 0:
        raise ValueError(f"{what} needs at least one qubit")
    if len(set(qs)) != len(qs):
        raise ValueError(f"repeated qubit in {what}")
    if any(not 0 <= q < n for q in qs):
        raise ValueError(f"qubit out of range in {what}")
    return qs


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qubits (ascending index order)."""
    kept = tuple(sorted(_check_qubits(tuple(keep), state.n_qubits, "keep set")))
    n = state.n_qubits
    traced = tuple(q for q in range(n) if q not in kept)
    psi = state.amplitudes.reshape([2] * n)
    psi = np.transpose(psi, kept + traced)
    m = psi.reshape(1 << len(kept), 1 << len(traced))
    return DensityMatrix(m @ m.conj().T)


def measurement_probs(state: StateVector, qubits: Sequence[int]) -> dict[str, float]:
    """Marginal outcome probabilities for the listed qubits, in listed order."""
    qs = _check_qubits(qubits, state.n_qubits, "measurement list")
    n = state.n_qubits
    probs = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    others = tuple(q for q in range(n) if q not in qs)
    if others:
        probs = probs.sum(axis=others)
    remaining = sorted(qs)
    probs = np.transpose(probs, tuple(remaining.index(q) for q in qs)).reshape(-1)
    width = len(qs)
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(probs)}


def conditional_state(
    state: StateVector, measured: Sequence[int], outcome: str | Sequence[int]
) -> StateVector:
    """Post-measurement state of the unmeasured qubits.

    The result is renormalized and phase-canonicalized: the largest-magnitude
    amplitude is made real and positive. Raises on outcomes with probability
    at or below 1e-12.
    """
    qs = _check_qubits(measured, state.n_qubits, "measured list")
    bits = [int(b) for b in outcome]
    if len(bits) != len(qs) or any(b not in (0, 1) for b in bits):
        raise ValueError(f"outcome {outcome!r} does not match the measured qubits")
    n = state.n_qubits
    psi = state.amplitudes.reshape([2] * n)
    sub = psi[_selector(n, dict(zip(qs, bits)))].reshape(-1)
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob <= 1e-12:
        raise ValueError(f"outcome {outcome!r} has probability {prob}")
    vec = sub / math.sqrt(prob)
    pivot = int(np.argmax(np.abs(vec)))
    ref = vec[pivot]
    vec = vec * (ref.conjugate() / abs(ref))
    return StateVector(n - len(qs), vec)

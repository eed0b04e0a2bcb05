"""Gate-level circuit representation, text format, and reference unitaries.

Conventions:
  - Qubit 0 is the most significant bit of a computational basis index,
    so for n qubits the basis state |q0 q1 ... q(n-1)> has index
    sum(q_k * 2**(n-1-k)).
  - Circuits and gates are immutable values; building a circuit validates
    operand counts, operand distinctness, index ranges, and angle finiteness.

Text format (one statement per line, '#' starts a comment):

    qubits <n>              required first statement
    pol <q>                 optional, marks qubit q as the polarization qubit
    h|x|z|s <q>
    phase <q> <angle>
    u2 <q> <theta> <phi> <lambda> <gamma>
    cnot|cz <control> <target>
    swap <a> <b>
    toffoli <c1> <c2> <target>
    fredkin <control> <a> <b>

Angle literals are decimal radians or multiples of pi ("pi", "pi/2",
"-pi/4", "0.5pi"). Numbers are ASCII literals: a '_' separator or a
non-ASCII digit, which Python's int and float would take, is refused.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np


class CircuitError(ValueError):
    """Invalid gate or circuit construction."""


class CircuitParseError(ValueError):
    """Syntax or validation error in circuit source text."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GateKind(Enum):
    H = "h"
    X = "x"
    Z = "z"
    S = "s"
    PHASE = "phase"
    U2 = "u2"
    CNOT = "cnot"
    CZ = "cz"
    SWAP = "swap"
    TOFFOLI = "toffoli"
    FREDKIN = "fredkin"

    @property
    def n_qubits(self) -> int:
        return _N_QUBITS[self]

    @property
    def n_params(self) -> int:
        return _N_PARAMS[self]


_N_QUBITS = {
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.Z: 1,
    GateKind.S: 1,
    GateKind.PHASE: 1,
    GateKind.U2: 1,
    GateKind.CNOT: 2,
    GateKind.CZ: 2,
    GateKind.SWAP: 2,
    GateKind.TOFFOLI: 3,
    GateKind.FREDKIN: 3,
}

_N_PARAMS = {kind: 0 for kind in GateKind}
_N_PARAMS[GateKind.PHASE] = 1
_N_PARAMS[GateKind.U2] = 4


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        name = self.kind.value
        if set(map(type, self.qubits)) - {int}:  # a bool or float is refused, never truncated
            raise CircuitError(f"qubits of {name} must be ints, got {self.qubits!r}")
        if any(type(p) is bool or not isinstance(p, (int, float)) for p in self.params):
            raise CircuitError(f"angles of {name} must be numbers, got {self.params!r}")
        object.__setattr__(self, "params", tuple(map(float, self.params)))
        n_qubits, n_params = _N_QUBITS[self.kind], _N_PARAMS[self.kind]
        if len(self.qubits) != n_qubits:
            raise CircuitError(
                f"{name} takes {n_qubits} qubit operand(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"repeated operand in {name}")
        if any(q < 0 for q in self.qubits):
            raise CircuitError(f"negative qubit index in {name}")
        if len(self.params) != n_params:
            raise CircuitError(f"{name} takes {n_params} angle(s), got {len(self.params)}")
        if any(not math.isfinite(p) for p in self.params):
            raise CircuitError(f"angle in {name} must be finite")

    def validate_for(self, n_qubits: int) -> None:
        if max(self.qubits) >= n_qubits:
            raise CircuitError(
                f"{self.kind.value} references qubit {max(self.qubits)} "
                f"but the circuit has {n_qubits} qubit(s)"
            )


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def z(q: int) -> Gate:
    return Gate(GateKind.Z, (q,))


def s(q: int) -> Gate:
    return Gate(GateKind.S, (q,))


def phase(q: int, angle: float) -> Gate:
    return Gate(GateKind.PHASE, (q,), (angle,))


def u2(q: int, theta: float, phi: float, lam: float, gamma: float) -> Gate:
    return Gate(GateKind.U2, (q,), (theta, phi, lam, gamma))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate(GateKind.CZ, (a, b))


def swap(a: int, b: int) -> Gate:
    return Gate(GateKind.SWAP, (a, b))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2, target))


def fredkin(control: int, a: int, b: int) -> Gate:
    return Gate(GateKind.FREDKIN, (control, a, b))


@dataclass(frozen=True)
class QuantumCircuit:
    """An ordered gate list over n_qubits qubits.

    pol_qubit is a source-level annotation from the 'pol' directive; the
    compiler reads it when choosing a default qubit assignment.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    pol_qubit: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if type(self.n_qubits) is not int or self.n_qubits < 1:  # a bool or float is refused
            raise CircuitError(f"qubit count must be an int of at least 1, got {self.n_qubits!r}")
        for gate in self.gates:
            gate.validate_for(self.n_qubits)
        pol = self.pol_qubit
        if pol is not None and (type(pol) is not int or not 0 <= pol < self.n_qubits):
            raise CircuitError(f"pol qubit {pol!r} is not an int in range")


_PI_LITERAL = re.compile(r"^([+-]?)(\d+(?:\.\d*)?|\.\d+)?pi(?:/(\d+(?:\.\d*)?|\.\d+))?$",
                         re.ASCII)


def _ascii_number(token: str, parse=int):
    """parse(token) for an ASCII literal only: int, float and complex also
    take '_' separators and any Unicode digit."""
    if not token.strip().isascii() or "_" in token:
        raise ValueError(f"{token!r} is not an ASCII number")
    return parse(token)


def parse_angle(token: str) -> float:
    """Parse an angle literal: decimal radians or a multiple of pi."""
    text = token.strip().lower()
    m = _PI_LITERAL.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise ValueError(f"malformed angle {token!r}")
        return sign * coef * math.pi / div
    try:
        value = _ascii_number(text, float)
    except ValueError:
        raise ValueError(f"malformed angle {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"malformed angle {token!r}")
    return value


_MNEMONICS = {kind.value: kind for kind in GateKind}


def _parse_index(token: str, line: int, n_qubits: int) -> int:
    try:
        q = _ascii_number(token)
    except ValueError:
        raise CircuitParseError(line, f"bad qubit index {token!r}") from None
    if not 0 <= q < n_qubits:
        raise CircuitParseError(line, f"qubit index {q} out of range (qubits {n_qubits})")
    return q


def parse_circuit(text: str) -> QuantumCircuit:
    """Parse circuit source text; errors carry the offending line number. Each
    distinct gate line is parsed once per call; its repeats share the Gate."""
    n_qubits: int | None = None
    pol_qubit: int | None = None
    gates: list[Gate] = []
    parsed: dict[str, tuple[Gate, ...]] = {"": ()}  # gate line, comment stripped -> (gate,)
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.split("#", 1)[0].strip()
        if line in parsed:
            gates += parsed[line]
            continue
        parts = line.split()
        mnemonic, args = parts[0].lower(), parts[1:]
        if n_qubits is None:
            if mnemonic != "qubits":
                raise CircuitParseError(line_no, "expected 'qubits <n>' before any other statement")
            if len(args) != 1:
                raise CircuitParseError(line_no, "qubits takes one argument")
            try:
                n_qubits = _ascii_number(args[0])
            except ValueError:
                raise CircuitParseError(line_no, f"bad qubit count {args[0]!r}") from None
            if n_qubits < 1:
                raise CircuitParseError(line_no, "qubit count must be at least 1")
            continue
        if mnemonic == "qubits":
            raise CircuitParseError(line_no, "duplicate qubits statement")
        if mnemonic == "pol":
            if pol_qubit is not None:
                raise CircuitParseError(line_no, "duplicate pol directive")
            if len(args) != 1:
                raise CircuitParseError(line_no, "pol takes one argument")
            pol_qubit = _parse_index(args[0], line_no, n_qubits)
            continue
        kind = _MNEMONICS.get(mnemonic)
        if kind is None:
            raise CircuitParseError(line_no, f"unknown mnemonic {mnemonic!r}")
        arity, n_params = _N_QUBITS[kind], _N_PARAMS[kind]
        if len(args) != arity + n_params:
            raise CircuitParseError(
                line_no, f"{mnemonic} takes {arity} qubit(s) and {n_params} angle(s)")
        qubits = tuple(_parse_index(tok, line_no, n_qubits) for tok in args[:arity])
        try:
            params = tuple(parse_angle(tok) for tok in args[arity:])
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
        try:
            parsed[line] = (Gate(kind, qubits, params),)
        except CircuitError as exc:
            raise CircuitParseError(line_no, str(exc)) from None
        gates += parsed[line]
    if n_qubits is None:
        raise CircuitParseError(last_line + 1, "missing 'qubits' statement")
    return QuantumCircuit(n_qubits, tuple(gates), pol_qubit)


def gate_text(gate: Gate) -> str:
    """One-line source form of a gate."""
    parts = [gate.kind.value]
    parts += [str(q) for q in gate.qubits]
    parts += [repr(p) for p in gate.params]
    return " ".join(parts)


_SQRT1_2 = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)


def u2_from_params(theta: float, phi: float, lam: float, gamma: float) -> np.ndarray:
    """General 2x2 unitary:

    exp(i*gamma) * [[cos(theta),              -exp(i*lam)*sin(theta)],
                    [exp(i*phi)*sin(theta),  exp(i*(phi+lam))*cos(theta)]]
    """
    for a in (theta, phi, lam, gamma):
        if not math.isfinite(a):
            raise CircuitError("u2 angles must be finite")
    ct, st = math.cos(theta), math.sin(theta)
    return cmath.exp(1j * gamma) * np.array(
        [
            [ct, -cmath.exp(1j * lam) * st],
            [cmath.exp(1j * phi) * st, cmath.exp(1j * (phi + lam)) * ct],
        ],
        dtype=complex,
    )


def one_qubit_matrix(gate: Gate) -> np.ndarray:
    """The 2x2 matrix of a single-qubit gate."""
    if gate.kind is GateKind.H:
        return HADAMARD.copy()
    if gate.kind is GateKind.X:
        return PAULI_X.copy()
    if gate.kind is GateKind.Z:
        return PAULI_Z.copy()
    if gate.kind is GateKind.S:
        return S_GATE.copy()
    if gate.kind is GateKind.PHASE:
        return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * gate.params[0])]], dtype=complex)
    if gate.kind is GateKind.U2:
        return u2_from_params(*gate.params)
    raise CircuitError(f"{gate.kind.value} is not a single-qubit gate")


def gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a gate embedded in an n-qubit register.

    A one-qubit gate is a Kronecker product. A multi-qubit gate sends each
    basis index to one index with a sign, read off the operand bits of
    every index at once: CZ negates where both read 1; CNOT and TOFFOLI
    flip the last operand where every control reads 1; SWAP and FREDKIN
    exchange the last two where every control reads 1 and the pair differs.
    """
    gate.validate_for(n_qubits)
    if gate.kind.n_qubits == 1:
        q = gate.qubits[0]
        m = one_qubit_matrix(gate)
        left = np.eye(1 << q, dtype=complex)
        right = np.eye(1 << (n_qubits - 1 - q), dtype=complex)
        return np.kron(np.kron(left, m), right)
    index = np.arange(1 << n_qubits)
    bits = [index >> (n_qubits - 1 - q) & 1 for q in gate.qubits]
    u = np.zeros((index.size, index.size), dtype=complex)
    if gate.kind is GateKind.CZ:
        u[index, index] = np.where(bits[0] & bits[1], -1.0, 1.0)
        return u
    moved = 2 if gate.kind in (GateKind.SWAP, GateKind.FREDKIN) else 1
    flips = bits[-2] ^ bits[-1] if moved == 2 else 1
    for control in bits[:-moved]:
        flips = flips & control
    mask = sum(1 << (n_qubits - 1 - q) for q in gate.qubits[-moved:])
    u[index ^ flips * mask, index] = 1.0
    return u

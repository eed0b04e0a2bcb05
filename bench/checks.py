"""Correctness checks of the benchmark's CLI outputs against the oracle.

The expected photon distribution comes from ``photonc.statevec.run_circuit``
on a circuit built straight from the generator's gate list, so the circuit
parser is checked too. Qubit basis states are mapped to photon modes here,
by the documented encoding (location qubits in qubit order form the path
index, most significant first; mode = path*2 + pol when one qubit rides on
polarization). Nothing here uses ``photonc.equivalence.basis_bridge`` or
any other code of the optics side.
"""

from __future__ import annotations

import numpy as np

from photonc.circuit import Gate, GateKind, QuantumCircuit
from photonc.statevec import StateVector, run_circuit

from workloads import Job

RUN_TOLERANCE = 1e-10


def basis_to_mode(index: int, n_qubits: int, pol_qubit: int | None) -> int:
    """Photon mode that carries qubit basis state `index` (qubit 0 = high bit)."""
    bits = [(index >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
    path = 0
    for q, bit in enumerate(bits):
        if q != pol_qubit:
            path = (path << 1) | bit
    return path if pol_qubit is None else path * 2 + bits[pol_qubit]


def expected_mode_probabilities(job: Job) -> np.ndarray:
    """Detector probabilities for the all-zeros input, from the oracle."""
    circuit = QuantumCircuit(
        job.n_qubits,
        tuple(Gate(GateKind(g.kind), g.qubits, g.params) for g in job.gates),
        job.pol_qubit,
    )
    probs = run_circuit(circuit, StateVector.basis(job.n_qubits, 0)).probabilities()
    by_mode = np.zeros_like(probs)
    for index, p in enumerate(probs):
        by_mode[basis_to_mode(index, job.n_qubits, job.pol_qubit)] = p
    return by_mode


def check_run(stdout: str, expected: np.ndarray) -> str | None:
    """None when `photonc run` printed every mode within RUN_TOLERANCE."""
    lines = stdout.splitlines()
    if len(lines) != len(expected):
        return f"run printed {len(lines)} mode(s), expected {len(expected)}"
    for m, line in enumerate(lines):
        head, _, value = line.partition(": p = ")
        if not head.startswith(f"mode {m} "):
            return f"run line {m} is {line!r}"
        if abs(float(value) - expected[m]) > RUN_TOLERANCE:
            return f"mode {m}: p = {value}, oracle {expected[m]:.12f}"
    return None


def check_verify(stdout: str) -> str | None:
    return None if stdout.startswith("equivalent") else f"verify printed {stdout.strip()!r}"


def parse_stats(stdout: str) -> dict[str, int]:
    """The integer lines of `photonc stats`, keyed by their label."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        if value.isdigit():
            out[key] = int(value)
    return out


def parse_compile(stdout: str) -> tuple[int, int]:
    """(layers, elements) from `photonc compile -o`'s 'wrote' line."""
    words = stdout.split()
    return int(words[-4]), int(words[-2])

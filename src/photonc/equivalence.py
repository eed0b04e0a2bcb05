"""Global-phase-insensitive comparison of unitaries and states.

A compiled netlist acts on photon modes while the reference simulator acts
on qubit basis states, so comparisons go through a basis bridge permutation;
the residual freedom is a single global phase, which is aligned before
measuring any distance.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .compiler import QubitAssignment


@dataclass(frozen=True)
class EquivalenceReport:
    distance: float
    aligning_phase: float
    tolerance: float
    passed: bool

    def __str__(self) -> str:
        verdict = "equivalent" if self.passed else "NOT equivalent"
        return (
            f"{verdict}: max deviation {self.distance:.3e} "
            f"(tolerance {self.tolerance:.1e}, aligned by phase {self.aligning_phase:+.6f} rad)"
        )


def global_phase_distance(
    reference: np.ndarray, candidate: np.ndarray, tolerance: float = 1e-10
) -> EquivalenceReport:
    """Max-entry deviation between candidate and reference after removing
    the best global phase from candidate."""
    u = np.asarray(reference, dtype=complex)
    v = np.asarray(candidate, dtype=complex)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    inner = complex(np.vdot(u, v))
    if abs(inner) < 1e-12:
        # Orthogonal-looking overlap: align on the candidate's largest entry
        # instead so a genuine mismatch still gets a meaningful distance.
        flat_u, flat_v = u.reshape(-1), v.reshape(-1)
        idx = int(np.argmax(np.abs(flat_v)))
        inner = complex(flat_u[idx].conjugate() * flat_v[idx])
    phase = cmath.phase(inner) if abs(inner) > 0 else 0.0
    distance = float(np.max(np.abs(v * cmath.exp(-1j * phase) - u)))
    return EquivalenceReport(distance, phase, tolerance, distance <= tolerance)


def state_fidelity(reference, candidate) -> float:
    """|<reference|candidate>|^2 for vectors or objects carrying .amplitudes."""
    u = np.asarray(getattr(reference, "amplitudes", reference), dtype=complex).reshape(-1)
    v = np.asarray(getattr(candidate, "amplitudes", candidate), dtype=complex).reshape(-1)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(abs(np.vdot(u, v)) ** 2)


def basis_order(assignment: QubitAssignment) -> np.ndarray:
    """The basis index of each photon mode (the basis indices' bit axes in
    mode bit order), so u[order][:, order] is u on the modes, no dim^2 bridge."""
    n = assignment.n_qubits
    pol = () if assignment.pol_qubit is None else (assignment.pol_qubit,)
    return np.arange(1 << n).reshape((2,) * n).transpose((*assignment.location_order, *pol)).ravel()


def basis_bridge(assignment: QubitAssignment) -> np.ndarray:
    """Permutation matrix P with P[mode, basis_index] = 1.

    Columns are qubit basis states (qubit 0 = most significant bit), rows
    are photon modes; bridging lets netlist and circuit unitaries be
    compared entry for entry:  netlist_unitary ~ P . circuit_unitary . P^T.
    """
    order = basis_order(assignment)
    bridge = np.zeros((len(order), len(order)))
    bridge[np.arange(len(order)), order] = 1.0
    return bridge

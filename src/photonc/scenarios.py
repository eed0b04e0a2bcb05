"""Worked end-to-end scenarios: compile, propagate, read the detectors.

Each demo returns a ScenarioReport holding the compiled netlist, the final
mode amplitudes for a single photon fed into mode 0, per-mode detector
readings, and (where heralding is meaningful) per-branch conditional
states. Reports render deterministically so command-line output is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .circuit import QuantumCircuit, parse_circuit
from .compiler import (
    QubitAssignment,
    compile_circuit,
    device_stats,
    prepare_location_state,
    prune_dead_paths,
)
from .equivalence import state_fidelity
from .optics import ModeAmplitudes, OpticalNetlist, propagate

_PROB_SUM_TOL = 1e-9
_LIGHT_THRESHOLD = 1e-9


def _bundled_circuit(name: str) -> QuantumCircuit:
    text = (
        resources.files(__package__)
        .joinpath(f"circuits/{name}.qc")
        .read_text(encoding="utf-8")
    )
    return parse_circuit(text)


def mz_circuit() -> QuantumCircuit:
    return _bundled_circuit("mz")


def mz_rotator_circuit() -> QuantumCircuit:
    return _bundled_circuit("mz_rotator")


def teleport_circuit() -> QuantumCircuit:
    return _bundled_circuit("teleport")


@dataclass(frozen=True)
class DetectorReading:
    mode: int
    label: str
    probability: float
    tag: str  # "light" if the detector can fire, "dark" otherwise


@dataclass(frozen=True)
class BranchOutcome:
    """One heralded detector pattern and the state it leaves behind."""

    herald: str
    probability: float
    conditional: tuple[complex, ...]
    fidelity: float | None = None


@dataclass(eq=False)
class ScenarioReport:
    name: str
    circuit: QuantumCircuit
    netlist: OpticalNetlist
    input_mode: int
    final: ModeAmplitudes
    readings: tuple[DetectorReading, ...]
    reduced_paths: np.ndarray
    branches: tuple[BranchOutcome, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        total = sum(r.probability for r in self.readings)
        if not abs(total - 1.0) <= _PROB_SUM_TOL:  # NaN fails too
            raise ValueError(f"detector probabilities sum to {total!r}, expected 1")

    def as_text(self) -> str:
        stats = device_stats(self.netlist)
        space = self.netlist.space
        lines = [
            f"scenario: {self.name}",
            f"circuit: {len(self.circuit.gates)} gate(s) on {self.circuit.n_qubits} qubit(s)",
            f"netlist: {self.netlist.n_layers} layer(s), "
            f"{stats.splitting_elements} splitting / {self.netlist.n_elements} total element(s) "
            f"on {space.dim} mode(s)",
            f"input: photon in mode {self.input_mode} ({space.mode_label(self.input_mode)})",
            "detectors:",
        ]
        for r in self.readings:
            lines.append(f"  mode {r.mode} ({r.label}): p = {r.probability:.6f}  [{r.tag}]")
        if self.branches:
            lines.append("heralded branches:")
            for b in self.branches:
                parts = [f"  {b.herald}: p = {b.probability:.6f}"]
                amp_text = ", ".join(f"{c.real:+.6f}{c.imag:+.6f}i" for c in b.conditional)
                parts.append(f"state = ({amp_text})")
                if b.fidelity is not None:
                    parts.append(f"fidelity = {b.fidelity:.10f}")
                lines.append("  ".join(parts))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def reduced_path_matrix(final: ModeAmplitudes) -> np.ndarray:
    """Density matrix over paths after tracing out polarization."""
    amps = final.amplitudes
    if final.space.uses_pol:
        by_path = amps.reshape(final.space.n_paths, 2)
        return by_path @ by_path.conj().T
    return np.outer(amps, amps.conj())


def _readings(final: ModeAmplitudes) -> tuple[DetectorReading, ...]:
    probs = final.probabilities()
    return tuple(
        DetectorReading(
            mode=m,
            label=final.space.mode_label(m),
            probability=float(p),
            tag="light" if p > _LIGHT_THRESHOLD else "dark",
        )
        for m, p in enumerate(probs)
    )


def _heralded(final: ModeAmplitudes, kept_bit: int) -> list[tuple[int, float, np.ndarray]]:
    """Split the final state on one bit of the mode index (path bits, most
    significant first, then the polarization bit).

    Each value of the other bits, in mode order, is one herald: its row holds
    the kept bit's two amplitudes. Rows with probability below 1e-12 are
    dropped; the rest come back as (herald, probability, normalized state).
    """
    n_bits = final.space.dim.bit_length() - 1
    by_bit = final.amplitudes.reshape((2,) * n_bits)
    rows = np.moveaxis(by_bit, kept_bit, -1).reshape(-1, 2)
    branches = []
    for herald, row in enumerate(rows):
        prob = float(np.sum(np.abs(row) ** 2))
        if prob >= 1e-12:
            branches.append((herald, prob, row / np.sqrt(prob)))
    return branches


def _report(name: str, circuit: QuantumCircuit, netlist: OpticalNetlist, final: ModeAmplitudes,
            branches: tuple[BranchOutcome, ...] = (), *, notes: tuple[str, ...]) -> ScenarioReport:
    """The report of a photon fed into mode 0, its readings and reduced paths read off final."""
    return ScenarioReport(name, circuit, netlist, 0, final, _readings(final),
                          reduced_path_matrix(final), branches, notes)


def demo_mz(rotator: bool = False) -> ScenarioReport:
    """Balanced interferometer; with rotator=True one arm tags the photon's
    polarization, trading the interference fringe for which-path marking."""
    circuit = mz_rotator_circuit() if rotator else mz_circuit()
    netlist = compile_circuit(circuit)
    final = propagate(netlist, ModeAmplitudes.basis(netlist.space, 0))
    if not rotator:
        return _report("mz", circuit, netlist, final,
                       notes=("with balanced arms the photon always exits its input port",))
    branches = tuple(
        BranchOutcome(herald=f"output path {path}", probability=prob,
                      conditional=tuple(complex(c) for c in state))
        for path, prob, state in _heralded(final, kept_bit=netlist.space.n_loc)
    )
    overlap = abs(np.vdot(branches[0].conditional, branches[1].conditional)) ** 2
    return _report("mz_rotator", circuit, netlist, final, branches, notes=(
        "the rotated arm leaves orthogonal polarization records "
        f"(port overlap {overlap:.3e}), so the ports split 1/2 each",
    ))


def demo_teleport(alpha: complex, beta: complex, prune: bool = True) -> ScenarioReport:
    """Prepare (alpha, beta) on the input path pair, run the teleport
    netlist, and read out every heralded branch of the output qubit."""
    alpha, beta = complex(alpha), complex(beta)
    circuit = teleport_circuit()
    assignment = QubitAssignment.for_circuit(circuit)
    prep = prepare_location_state(alpha, beta, 0, assignment)  # refuses unnormalized amplitudes
    netlist = compile_circuit(circuit, assignment)
    space = netlist.space
    combined = OpticalNetlist(space, [*prep, *netlist.layers],
                              ("input preparation",) * len(prep) + netlist.source_gates,
                              netlist.output_relabel)
    if prune:
        combined = prune_dead_paths(combined, (0,))
    final = propagate(combined, ModeAmplitudes.basis(space, 0))
    # Heralds are the high path bit (input carrier) plus the polarization;
    # the low path bit carries the teleported state.
    branches = tuple(
        BranchOutcome(
            herald=f"carrier bit {herald >> 1}, pol {'HV'[herald & 1]}",
            probability=prob,
            conditional=tuple(complex(c) for c in state),
            fidelity=state_fidelity((alpha, beta), state),
        )
        for herald, prob, state in _heralded(final, kept_bit=1)
    )
    return _report("teleport", circuit, combined, final, branches,
                   notes=("all four heralds deliver the input state without correction",))

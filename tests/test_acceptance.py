"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion,
or `-s` to see the printed details as well. Tolerances are pinned here and
nowhere loosened.
"""

import math
import time

import numpy as np

from photonc.circuit import HADAMARD, PAULI_X, parse_circuit
from photonc.compiler import (
    QubitAssignment,
    compile_circuit,
    decompose_u2,
    device_stats,
    prepare_path_state,
    prune_dead_paths,
    reconstruct_u2,
)
from photonc.equivalence import basis_bridge, global_phase_distance
from photonc.optics import (
    BeamSplitter,
    ModeAmplitudes,
    ModeSpace,
    PhaseShifter,
    element_unitary,
    netlist_unitary,
    propagate,
)
from photonc.scenarios import demo_mz, demo_teleport
from photonc.statevec import (
    StateVector,
    circuit_unitary,
    run_circuit,
    run_circuit_dense,
)
from conftest import haar_u2, random_assignment, random_circuit

TELEPORT = (
    "qubits 3\npol 1\nh 0\nh 2\ncnot 0 1\ncnot 2 1\nh 0\ncnot 1 2\nh 2\ncnot 0 2\n"
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] acceptance {number}: {name}{suffix}")
    assert ok, f"acceptance {number}: {name}{suffix}"


def test_criterion_01_shifter_splitter_shifter_is_hadamard():
    space = ModeSpace(1)
    shifter = element_unitary(PhaseShifter(1, -math.pi / 2), space)
    splitter = element_unitary(BeamSplitter(0, 1, math.pi / 4), space)
    deviation = float(np.max(np.abs(shifter @ splitter @ shifter - HADAMARD)))
    _report(
        1,
        "phase-splitter-phase assembly equals Hadamard",
        deviation <= 1e-12,
        f"max deviation {deviation:.2e}, tol 1e-12",
    )


def test_criterion_02_two_balanced_splitters_are_ix():
    space = ModeSpace(1)
    splitter = element_unitary(BeamSplitter(0, 1, math.pi / 4), space)
    deviation = float(np.max(np.abs(splitter @ splitter - 1j * PAULI_X)))
    _report(
        2,
        "balanced splitter squared equals i*X",
        deviation <= 1e-12,
        f"max deviation {deviation:.2e}, tol 1e-12",
    )


def test_criterion_03_balanced_interferometer_returns_photon():
    report = demo_mz()
    bright = report.readings[0].probability
    _report(
        3,
        "balanced interferometer: input port fires with probability 1",
        abs(bright - 1.0) <= 1e-10,
        f"p = {bright:.12f}, tol 1e-10",
    )


def test_criterion_04_rotator_erases_interference():
    report = demo_mz(rotator=True)
    diag = report.reduced_paths.diagonal().real
    ports_ok = bool(np.all(np.abs(diag - 0.5) <= 1e-10))
    mixed_ok = float(np.max(np.abs(report.reduced_paths - np.eye(2) / 2))) <= 1e-10
    _report(
        4,
        "which-path rotator: ports 1/2 each and path state fully mixed",
        ports_ok and mixed_ok,
        f"ports {diag[0]:.10f}/{diag[1]:.10f}, "
        f"off-diag {abs(report.reduced_paths[0, 1]):.2e}, tol 1e-10",
    )


def test_criterion_05_teleport_branches_and_fidelity():
    rng = np.random.default_rng(107)
    worst_prob = 0.0
    worst_fid = 1.0
    for _ in range(50):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec /= np.linalg.norm(vec)
        report = demo_teleport(vec[0], vec[1])
        for branch in report.branches:
            worst_prob = max(worst_prob, abs(branch.probability - 0.25))
            worst_fid = min(worst_fid, branch.fidelity)
    _report(
        5,
        "teleport: 50 random inputs, four 1/4 branches, output fidelity 1",
        worst_prob <= 1e-10 and worst_fid >= 1 - 1e-10,
        f"max |p-1/4| = {worst_prob:.2e}, min fidelity = {worst_fid:.12f}",
    )


def test_criterion_06_basis_input_keeps_dark_ports_dark():
    report = demo_teleport(1.0, 0.0)
    dark = sum(r.probability for r in report.readings if r.mode in (2, 3, 6, 7))
    _report(
        6,
        "teleporting a basis state leaves its dark ports dark",
        dark < 1e-12,
        f"total dark-port probability {dark:.2e}, tol 1e-12",
    )


def test_criterion_07_pruning_drops_one_splitting_element():
    circuit = parse_circuit(TELEPORT)
    assignment = QubitAssignment.for_circuit(circuit)
    netlist = compile_circuit(circuit, assignment)
    pruned = prune_dead_paths(netlist, [0])
    full_stats = device_stats(netlist)
    pruned_stats = device_stats(pruned)
    ok = (
        full_stats.splitting_elements == 10
        and pruned_stats.splitting_elements == 9
        and pruned_stats.beam_splitters == 7
        and pruned_stats.polarizing_beam_splitters == 2
    )
    _report(
        7,
        "teleport netlist: 10 splitting elements unpruned, 9 pruned",
        ok,
        f"unpruned {full_stats.splitting_elements}, pruned {pruned_stats.splitting_elements} "
        f"({pruned_stats.beam_splitters} BS + {pruned_stats.polarizing_beam_splitters} PBS)",
    )


def test_criterion_08_cascade_counts_and_pol_halving():
    rng = np.random.default_rng(109)
    counts_ok = True
    details = []
    for n in (1, 2, 3, 4):
        space = ModeSpace(n)
        amps = rng.normal(size=space.n_paths) + 1j * rng.normal(size=space.n_paths)
        amps /= np.linalg.norm(amps)
        layers = prepare_path_state(amps, space)
        splitters = sum(isinstance(e, BeamSplitter) for layer in layers for e in layer)
        counts_ok = counts_ok and splitters == 2**n - 1
        details.append(f"n={n}:{splitters}")
    halving_ok = (
        QubitAssignment.default(3, pol_qubit=1).mode_space().n_paths == 4
        and QubitAssignment.default(3).mode_space().n_paths == 8
    )
    _report(
        8,
        "generic cascade uses 2^n - 1 splitters; polarization halves paths",
        counts_ok and halving_ok,
        ", ".join(details) + "; 3 qubits: 8 paths plain vs 4 with pol",
    )


def test_criterion_09_random_circuit_sweep():
    rng = np.random.default_rng(113)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        assignment = random_assignment(rng, n)
        circuit = random_circuit(rng, n, int(rng.integers(1, 11)))
        netlist = compile_circuit(circuit, assignment)
        bridge = basis_bridge(assignment)
        ref_u = bridge @ circuit_unitary(circuit) @ bridge.T
        report = global_phase_distance(ref_u, netlist_unitary(netlist))
        worst = max(worst, report.distance)
    elapsed = time.perf_counter() - started
    _report(
        9,
        "200 random circuits compile and match the reference",
        worst < 1e-10 and elapsed < 30.0,
        f"worst distance {worst:.2e} (tol 1e-10), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_10_pruning_preserves_supported_inputs():
    rng = np.random.default_rng(127)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        assignment = random_assignment(rng, n)
        circuit = random_circuit(rng, n, int(rng.integers(1, 9)))
        netlist = compile_circuit(circuit, assignment)
        space = netlist.space
        mode = int(rng.integers(space.dim))
        pruned = prune_dead_paths(netlist, [mode])
        vin = ModeAmplitudes.basis(space, mode)
        full = propagate(netlist, vin).amplitudes
        cut = propagate(pruned, vin).amplitudes
        worst = max(worst, float(np.max(np.abs(full - cut))))
    _report(
        10,
        "100 random prunes leave supported inputs untouched",
        worst <= 1e-12,
        f"worst deviation {worst:.2e}, tol 1e-12",
    )


def test_criterion_11_u2_decomposition_round_trips():
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(100):
        u = haar_u2(rng)
        worst = max(worst, float(np.max(np.abs(reconstruct_u2(decompose_u2(u)) - u))))
    _report(
        11,
        "100 Haar 2x2 unitaries decompose and reconstruct exactly",
        worst <= 1e-10,
        f"worst deviation {worst:.2e}, tol 1e-10",
    )


def test_criterion_12_sparse_and_dense_simulators_agree():
    rng = np.random.default_rng(137)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, int(rng.integers(0, 12)))
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        sparse = run_circuit(circuit, state).amplitudes
        dense = run_circuit_dense(circuit, state).amplitudes
        worst = max(worst, float(np.max(np.abs(sparse - dense))))
    _report(
        12,
        "100 random circuits: strided and dense simulators agree",
        worst <= 1e-12,
        f"worst deviation {worst:.2e}, tol 1e-12",
    )

"""Frozen, seeded workload generator for the photonc benchmark.

This module imports nothing from photonc or from the test helpers, so an
edit to either cannot shift the benchmark's inputs. It draws every random
number from ``random.Random.random()``, whose sequence Python keeps stable
for a given seed, and writes angles with ``repr``, so one seed gives
byte-identical ``.qc`` files on every platform and Python version.

The gate mix is the one of ``tests/conftest.py::random_gate``: every gate
kind equally likely, distinct random operands, PHASE angles uniform in
[-2pi, 2pi), U2 angles uniform in [-pi, pi). The kinds, and the operand
slots the polarization qubit takes, are dealt from balanced decks (see
``_deal``), so a workload holds the same number of gates of each kind, and
about the same optical cost, whatever the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

# Mnemonic and operand count of every gate kind of the circuit text format.
KINDS: tuple[tuple[str, int], ...] = (
    ("h", 1),
    ("x", 1),
    ("z", 1),
    ("s", 1),
    ("phase", 1),
    ("u2", 1),
    ("cnot", 2),
    ("cz", 2),
    ("swap", 2),
    ("toffoli", 3),
    ("fredkin", 3),
)
ARITY = dict(KINDS)
COMMANDS = ("compile", "stats", "run", "verify", "diagram")


@dataclass(frozen=True)
class WorkloadSpec:
    """n_circuits circuits of n_gates gates over n_qubits qubits, each run
    through `commands` in order; with `prune`, each circuit is also compiled
    with `--prune` for its all-zeros input. `why` goes into BENCHMARK.json."""

    name: str
    n_qubits: int
    n_gates: int
    n_circuits: int
    commands: tuple[str, ...]
    prune: bool
    why: str


SPECS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "verify-dense", 7, 44, 4, COMMANDS, False,
            "n=7 (128 modes), 4 circuits of 44 gates: verify multiplies one dense 128x128 "
            "matrix per element, the path the layer kernel and matrix-free oracle target",
        ),
        WorkloadSpec(
            "wide-compile", 12, 44, 2, ("compile", "stats", "run", "diagram"), False,
            "n=12 (4096 modes, ~88k elements a circuit): compile, JSON, propagate and diagram "
            "on wide netlists and no dense engine, so a verify change should read flat",
        ),
        WorkloadSpec(
            "deep-narrow", 5, 1496, 2, COMMANDS, True,
            "n=5, 2 circuits of 1496 gates (~2.6k thin layers each, also compiled with "
            "--prune): per-gate and per-layer Python overhead dominates every command",
        ),
    )
}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def text(self) -> str:
        return " ".join([self.kind, *map(str, self.qubits), *map(repr, self.params)])


@dataclass(frozen=True)
class Job:
    """One circuit and the CLI commands a user runs on it, in order."""

    index: int
    n_qubits: int
    pol_qubit: int | None
    gates: tuple[Gate, ...]
    prune: bool
    commands: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"c{self.index:02d}"

    @property
    def input_spec(self) -> str:
        """Entry port of the all-zeros basis state, as `run --input` takes it."""
        if self.pol_qubit is None:
            return "0" * self.n_qubits
        return "0" * (self.n_qubits - 1) + ",H"

    def source(self) -> str:
        lines = [f"qubits {self.n_qubits}"]
        if self.pol_qubit is not None:
            lines.append(f"pol {self.pol_qubit}")
        lines += [gate.text() for gate in self.gates]
        return "\n".join(lines) + "\n"


def _below(rng: random.Random, n: int) -> int:
    return min(int(rng.random() * n), n - 1)


def _shuffle(rng: random.Random, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = _below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def _operands(rng: random.Random, arity: int, n_qubits: int, pol_slot: int | None,
              pol_qubit: int | None) -> tuple[int, ...]:
    pool = [q for q in range(n_qubits) if q != pol_qubit]
    qubits = [pool.pop(_below(rng, len(pool))) for _ in range(arity - (pol_slot is not None))]
    if pol_slot is not None:
        qubits.insert(pol_slot, pol_qubit)
    return tuple(qubits)


def _params(rng: random.Random, kind: str) -> tuple[float, ...]:
    if kind == "phase":
        return (-2 * math.pi + 4 * math.pi * rng.random(),)
    if kind == "u2":
        return tuple(-math.pi + 2 * math.pi * rng.random() for _ in range(4))
    return ()


def _deal(rng: random.Random, n_gates: int, n_qubits: int, pol_qubit: int | None) -> list[Gate]:
    """n_gates gates of a balanced kind mix in stratified random order.

    What a gate costs in optics depends mostly on its kind, on which of its
    operands, if any, is the polarization qubit, and (for pruning) on how
    early the mixing gates come. So the kinds come in blocks that each hold
    every kind once, in random order, and each kind puts the polarization
    qubit on each of its operand slots in a fixed share of its gates, close
    to the 1/n_qubits a uniform operand choice gives on average (rounded by
    carrying the remainder from kind to kind). Which gates those are, the
    other operands and the angles are drawn at random.
    """
    kinds: list[str] = []
    while len(kinds) < n_gates:
        block = [kind for kind, _ in KINDS]
        _shuffle(rng, block)
        kinds += block
    del kinds[n_gates:]
    slots: dict[str, list[int | None]] = {}
    carry = 0.5
    for kind, arity in KINDS:
        count = kinds.count(kind)
        deck: list[int | None] = []
        for slot in range(arity if pol_qubit is not None else 0):
            carry += count / n_qubits
            deck += [slot] * int(carry)
            carry -= int(carry)
        deck += [None] * (count - len(deck))
        _shuffle(rng, deck)
        slots[kind] = deck
    return [
        Gate(kind, _operands(rng, ARITY[kind], n_qubits, slots[kind].pop(), pol_qubit),
             _params(rng, kind))
        for kind in kinds
    ]


def generate(workload: str, seed: int) -> tuple[Job, ...]:
    """The workload's jobs for one seed.

    Odd-numbered circuits carry `pol <n//2>`. The gates of each polarization
    class are dealt together (see `_deal`) and split evenly over its
    circuits, so the class's totals do not depend on the seed.
    """
    spec = SPECS[workload]
    rng = random.Random(f"{workload}/{seed}")
    jobs: dict[int, Job] = {}
    for parity in (0, 1):
        pol_qubit = spec.n_qubits // 2 if parity else None
        indices = range(parity, spec.n_circuits, 2)
        gates = _deal(rng, len(indices) * spec.n_gates, spec.n_qubits, pol_qubit)
        for k, c in enumerate(indices):
            jobs[c] = Job(
                index=c,
                n_qubits=spec.n_qubits,
                pol_qubit=pol_qubit,
                gates=tuple(gates[k * spec.n_gates : (k + 1) * spec.n_gates]),
                prune=spec.prune,
                commands=spec.commands,
            )
    return tuple(jobs[c] for c in range(spec.n_circuits))


def digest(jobs: tuple[Job, ...]) -> str:
    """sha256 over every job's circuit text and prune flag, in order."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(f"{job.name} prune={int(job.prune)}\n".encode())
        h.update(job.source().encode())
    return h.hexdigest()

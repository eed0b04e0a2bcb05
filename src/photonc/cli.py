"""Command-line front end.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 bad input (circuit/netlist files, specs, usage) or output that cannot be
written (an -o file, a closed stdout, one whose reader closed it, as
`| head` does, or one on a full device), 3 compile or internal errors and
running out of memory.
Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .circuit import CircuitParseError, QuantumCircuit, _ascii_number, parse_circuit
from .compiler import CompileError, QubitAssignment, compile_circuit, device_stats
from .diagram import render_diagram
from .equivalence import basis_order, global_phase_distance
from .optics import (
    ModeAmplitudes,
    ModeSpace,
    NetlistError,
    NetlistFormatError,
    OpticalNetlist,
    SpaceTooLargeError,
    _json_pieces,
    _mode_labels,
    netlist_from_json,
    netlist_unitary,
    propagate,
)
from .scenarios import demo_mz, demo_teleport
from .statevec import circuit_unitary


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _load_circuit(path: str) -> QuantumCircuit:
    return parse_circuit(_read_text(path))


def _load_netlist(path: str) -> OpticalNetlist:
    """The netlist in a file, loaded from its bytes: the one copy of the file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    try:
        return netlist_from_json(data)
    except UnicodeDecodeError as exc:  # raised where the document reader decodes the bytes
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _parse_assignment(text: str, n_qubits: int) -> QubitAssignment:
    """Parse 'loc=0,2;pol=1' (either part optional, neither repeated)."""
    loc: tuple[int, ...] | None = None
    pol: int | None = None
    seen: set[str] = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise _UsageError(f"bad assignment part {part!r}, expected key=value")
        if key in seen:
            raise _UsageError(f"repeated assignment key {key!r}")
        seen.add(key)
        try:
            if key == "loc":  # int("") refuses the empty entry of "0,,1"; a bare "loc=" is ()
                loc = tuple(map(_ascii_number, value.split(","))) if value.strip() else ()
            elif key == "pol":
                pol = _ascii_number(value)
            else:
                raise _UsageError(f"unknown assignment key {key!r}")
        except ValueError:
            raise _UsageError(f"bad assignment value in {part!r}") from None
    try:
        if loc is None:
            return QubitAssignment.default(n_qubits, pol)
        return QubitAssignment(n_qubits, loc, pol)
    except CompileError as exc:
        raise _UsageError(str(exc)) from None


def _assignment_for(circuit: QuantumCircuit, spec: str | None) -> QubitAssignment:
    if spec is None:
        return QubitAssignment.for_circuit(circuit)
    return _parse_assignment(spec, circuit.n_qubits)


def _parse_input_mode(space: ModeSpace, text: str) -> int:
    bits, _, pol = text.strip().partition(",")
    pol = pol.strip().upper() or None
    if space.uses_pol and pol is None:
        raise _UsageError(f"polarized device: input needs a polarization, like {bits!r} + ',H'")
    if not space.uses_pol and pol is not None:
        raise _UsageError("this device has no polarization; use just the path bits")
    if pol is not None and pol not in ("H", "V"):
        raise _UsageError(f"polarization must be H or V, got {pol!r}")
    try:
        return space.mode_of(bits.strip(), pol)
    except NetlistError as exc:
        raise _UsageError(str(exc)) from None


def _parse_amplitude(text: str) -> complex:
    try:
        return _ascii_number(text.strip().replace("i", "j"), complex)
    except ValueError:
        raise _UsageError(f"bad amplitude literal {text!r} (examples: 0.6, 0.8i, 0.5+0.5i)") from None


def _tolerance(text: str) -> float:
    try:
        tol = _ascii_number(text, float)
    except ValueError:
        tol = math.nan  # refused below with the same message
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite, non-negative number, got {text!r}")
    return tol


def _cmd_compile(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    assignment = _assignment_for(circuit, args.assignment)
    support = None
    if args.input is not None:
        support = frozenset({_parse_input_mode(assignment.mode_space(), args.input)})
    if args.prune and support is None:
        raise _UsageError("--prune needs --input to say where the photon enters")
    netlist = compile_circuit(circuit, assignment, input_support=support if args.prune else None,
                              relabel_terminal_crossings=not args.no_relabel)
    if args.output:  # written a block at a time: the whole text is never held
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                out.writelines(_json_pieces(netlist))
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc}") from None
        print(f"wrote {args.output}: {netlist.n_layers} layer(s), {netlist.n_elements} element(s)")
    else:
        sys.stdout.writelines(_json_pieces(netlist))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    netlist = _load_netlist(args.netlist)
    assignment = _assignment_for(circuit, args.assignment)
    if assignment.mode_space() != netlist.space:
        raise _UsageError(
            f"netlist mode space ({netlist.space.n_loc} path bit(s), "
            f"pol={netlist.space.uses_pol}) does not match the circuit assignment"
        )
    order = basis_order(assignment)
    reference = circuit_unitary(circuit)[order][:, order]
    report = global_phase_distance(reference, netlist_unitary(netlist), args.tol)
    print(report)
    return 0 if report.passed else 1


def _cmd_run(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args.netlist)
    space = netlist.space
    mode = _parse_input_mode(space, args.input)
    final = propagate(netlist, ModeAmplitudes.basis(space, mode))
    labels = _mode_labels(space)
    sys.stdout.write("".join(f"mode {m} ({labels[m]}): p = {p:.10f}\n"
                             for m, p in enumerate(final.probabilities().tolist())))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    netlist = _load_netlist(args.netlist)
    stats = device_stats(netlist)
    print(f"paths: {stats.n_paths}")
    print(f"modes: {stats.n_modes}")
    print(f"layers: {netlist.n_layers}")
    print(f"beam splitters: {stats.beam_splitters}")
    print(f"polarizing beam splitters: {stats.polarizing_beam_splitters}")
    print(f"phase shifters: {stats.phase_shifters}")
    print(f"rotators: {stats.rotators}")
    print(f"crossings: {stats.crossings}")
    print(f"splitting elements: {stats.splitting_elements}")
    print(f"total elements: {netlist.n_elements}")
    if netlist.output_relabel is not None:
        print(f"output relabel: {','.join(str(p) for p in netlist.output_relabel)}")
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    sys.stdout.write(render_diagram(_load_netlist(args.netlist)))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.which == "mz":
        report = demo_mz(rotator=args.rotator)
    else:
        alpha = _parse_amplitude(args.alpha)
        beta = _parse_amplitude(args.beta)
        try:
            report = demo_teleport(alpha, beta, prune=not args.no_prune)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    sys.stdout.write(report.as_text())
    return 0


_COMMANDS = ("compile", "verify", "run", "stats", "diagram", "demo")


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser; given only, with that one command's subparser and
    no other: each subparser costs about as much to build as the rest."""
    parser = argparse.ArgumentParser(
        prog="photonc",
        description="Compile small quantum circuits to single-photon linear-optical networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    if p := command("compile", "lower a circuit file to a netlist JSON", _cmd_compile):
        p.add_argument("circuit", help="circuit text file")
        p.add_argument("-o", "--output", help="write the netlist here instead of stdout")
        p.add_argument("--assignment", help="qubit assignment, e.g. 'loc=0,2;pol=1'")
        p.add_argument("--prune", action="store_true", help="drop elements dead for the given input")
        p.add_argument("--input", help="photon entry port as path bits plus optional pol, e.g. '00,H'")
        p.add_argument("--no-relabel", action="store_true",
                       help="keep trailing crossings instead of relabeling output ports")

    if p := command("verify", "check a netlist against its circuit", _cmd_verify):
        p.add_argument("circuit")
        p.add_argument("netlist")
        p.add_argument("--tol", type=_tolerance, default=1e-10,
                       help="largest entry deviation that passes (default 1e-10)")
        p.add_argument("--assignment", help="qubit assignment used at compile time")

    if p := command("run", "propagate a single photon through a netlist", _cmd_run):
        p.add_argument("netlist")
        p.add_argument("--input", required=True, help="entry port, e.g. '10' or '10,V'")

    if p := command("stats", "element counts for a netlist", _cmd_stats):
        p.add_argument("netlist")

    if p := command("diagram", "text rail diagram of a netlist", _cmd_diagram):
        p.add_argument("netlist")

    if p := command("demo", "built-in worked scenarios", _cmd_demo):
        p.add_argument("which", choices=("mz", "teleport"))
        p.add_argument("--rotator", action="store_true", help="mz: tag one arm's polarization")
        p.add_argument("--alpha", default="0.6", help="teleport: first input amplitude")
        p.add_argument("--beta", default="0.8i", help="teleport: second input amplitude")
        p.add_argument("--no-prune", action="store_true", help="teleport: keep dead elements")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        # A command's subparser takes every argument after its name; the full
        # parser refuses those it does not know, with a usage naming every command.
        args, unknown = _build_parser(only).parse_known_args(argv)
        if unknown:
            _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if sys.stdout is None:  # started with stdout closed, as `>&-` does
            raise _UsageError("cannot write to stdout: it is closed")
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except OSError as exc:
        # Reads and -o writes turn their OSError into a _UsageError where they
        # happen, so this one is stdout's: a closed pipe, a full disk. The exit
        # flush then writes what is left to devnull, not to the failed stdout.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, CircuitParseError, NetlistFormatError, SpaceTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CompileError, NetlistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: a dense 2^n x 2^n operation does not fit; "
              "use fewer qubits", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

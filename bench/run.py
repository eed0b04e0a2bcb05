"""photonc benchmark: seeded CLI workloads, timed end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process per workload runs a closed loop with one client: every job is
a ``photonc.cli.main(argv)`` call made in-process, on files in a work
directory, with stdout captured, and each waits for the one before. A pass
runs every job of the workload once; passes repeat until ``--seconds`` is
used up (at least three). The first pass's outputs are checked against the
state-vector oracle (see checks.py); later passes must print byte-identical
output. An operation fails if its exit code is
not 0, its check fails, or its output changes.

Times are scaled to a reference machine speed. On a shared two-vCPU box a
fixed pure-Python loop switched between about 95 and 160 ms every few
seconds, and whole runs of the workloads slowed by the same factor of about
1.6, which no count of passes averages away. So a short probe loop is timed
right before and right after every timed operation, and the operation's
time is reported as ``seconds * PROBE_REFERENCE_S / mean probe seconds``:
what it would take where the probe takes PROBE_REFERENCE_S. An operation's
time is the median of those over the passes; a command's time
(``compile_s`` ...) is that summed over the workload's jobs, and
``session_s`` sums every operation. setup_s, scaled the same way, is the
median of several set-ups. Raw seconds and probe times are kept in the
record under ``.bench_out/``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
tracing.py) of the fastest traced pass, in raw seconds so that they add
up, plus ``trace.overhead_ratio``: the median scaled traced pass time over
the median scaled untraced one. A layer a workload never calls
reads 0 in the per-layer metrics. The spans, the environment and every
operation's time are written to ``.bench_out/`` when the run ends. The last
line of stdout is one JSON object: correct, attempted, failed and metrics.

OpenBLAS, OpenMP and MKL are held to one thread each, so that dense verify
times do not flip between thread schedules.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import SPECS, Job, digest, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
SETUP_REPEATS = 7
PROBE_ITERATIONS = 200_000
PROBE_REFERENCE_S = 0.01


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*SPECS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _sha(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


def _environment() -> dict:
    import ctypes
    import glob

    import numpy

    blas_threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit,
    }


def _probe_s() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i
    return time.perf_counter() - start


def _setup(workload: str, seed: int, work: Path, env: dict) -> tuple[float, tuple[Job, ...], str]:
    """Import photonc in a fresh interpreter, then generate and write the
    inputs; repeated, and the median scaled time is setup_s."""
    times, digests = [], set()
    for attempt in range(SETUP_REPEATS):
        target = work / f"inputs{attempt}"
        before = _probe_s()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import photonc"], env=env, check=True)
        jobs = generate(workload, seed)
        target.mkdir()
        for job in jobs:
            (target / f"{job.name}.qc").write_text(job.source(), encoding="utf-8")
        seconds = time.perf_counter() - start
        times.append(seconds * PROBE_REFERENCE_S * 2 / (before + _probe_s()))
        digests.add(digest(jobs))
        if attempt:
            shutil.rmtree(target)
    (work / "inputs0").rename(work / "inputs")
    if len(digests) != 1:
        raise RuntimeError("the generator gave different inputs for one seed")
    return statistics.median(times), jobs, digests.pop()


def _operations(job: Job, inputs: Path) -> list[tuple[str, str, list[str]]]:
    """(key, command, argv) of every CLI call a job makes, in order."""
    qc, netlist = str(inputs / f"{job.name}.qc"), str(inputs / f"{job.name}.json")
    ops = []
    for command in job.commands:
        if command == "compile":
            ops.append(("compile", command, ["compile", qc, "-o", netlist]))
            if job.prune:
                pruned = str(inputs / f"{job.name}.pruned.json")
                argv = ["compile", qc, "-o", pruned, "--prune", "--input", job.input_spec]
                ops.append(("compile-prune", command, argv))
        elif command == "run":
            ops.append((command, command, ["run", "--input", job.input_spec, netlist]))
        elif command == "verify":
            ops.append((command, command, ["verify", qc, netlist]))
        else:
            ops.append((command, command, [command, netlist]))
    return ops


class Session:
    """The closed loop over one workload's jobs, with its checks."""

    def __init__(self, jobs: tuple[Job, ...], inputs: Path):
        import checks
        from photonc import cli

        self.cli, self.checks = cli, checks
        self.jobs, self.inputs = jobs, inputs
        self.expected = {job.name: checks.expected_mode_probabilities(job) for job in jobs}
        self.fingerprints: dict[tuple[str, str], str] = {}
        self.compiled: dict[str, tuple[int, int]] = {}
        self.device = {"device_elements": 0, "device_splitters": 0, "device_depth": 0}
        self.failures: list[str] = []
        self.attempted = 0
        self.samples: list[dict] = []

    def _call(self, argv: list[str], tracer=None, span: str = "", job: str = ""):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            if tracer is None:
                code = self.cli.main(argv)
            else:
                with tracer.span(span, job):
                    code = self.cli.main(argv)
            seconds = time.perf_counter() - start
        return seconds, code, out.getvalue(), err.getvalue()

    def run_pass(self, index: int, tracer=None) -> dict[tuple[str, str], float]:
        """Every job once; returns each operation's scaled seconds."""
        scaled = {}
        for job in self.jobs:
            for key, command, argv in _operations(job, self.inputs):
                label = f"p{index}.{job.name}.{key}"
                gc.collect()
                before = _probe_s()
                seconds, code, out, err = self._call(argv, tracer, f"cli.{command}", label)
                probe = (before + _probe_s()) / 2
                scaled[(job.name, key)] = seconds * PROBE_REFERENCE_S / probe
                self.samples.append({"op": label, "seconds": seconds, "probe_s": probe})
                self.attempted += 1
                try:
                    problem = self._check(job, key, argv, out) if code == 0 else f"exit {code}"
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problem = f"unreadable output: {exc!r}"
                if problem is not None:
                    self.failures.append(f"{label}: {problem} {err.strip()}".rstrip())
        return scaled

    def _check(self, job: Job, key: str, argv: list[str], out: str) -> str | None:
        """Full check the first time; byte-identical output after that."""
        written = Path(argv[argv.index("-o") + 1]).read_bytes() if "-o" in argv else b""
        fingerprint = _sha(out, written)
        if (job.name, key) in self.fingerprints:
            same = self.fingerprints[(job.name, key)] == fingerprint
            return None if same else "output differs from the first pass"
        self.fingerprints[(job.name, key)] = fingerprint
        checks, expected = self.checks, self.expected[job.name]
        if key == "compile":
            self.compiled[job.name] = checks.parse_compile(out)
        elif key == "compile-prune":
            _, code, run_out, _ = self._call(["run", "--input", job.input_spec, argv[3]])
            return checks.check_run(run_out, expected) if code == 0 else "pruned netlist failed to run"
        elif key == "run":
            return checks.check_run(out, expected)
        elif key == "verify":
            return checks.check_verify(out)
        elif key == "stats":
            stats = checks.parse_stats(out)
            layers, elements = self.compiled[job.name]
            if (stats["layers"], stats["total elements"]) != (layers, elements):
                return f"stats disagree with compile's {layers} layer(s), {elements} element(s)"
            self.device["device_elements"] += elements
            self.device["device_splitters"] += stats["splitting elements"]
            self.device["device_depth"] += layers
        elif key == "diagram" and len(out.splitlines()) != len(expected):
            return "diagram does not draw one rail per mode"
        return None


def _measure(session: Session, seconds: float, trace: bool):
    """Passes until `seconds` are used; with `trace`, every other pass is
    traced. Returns the untraced passes, the traced passes with their layer
    metrics, and the spans."""
    from tracing import Tracer, layer_metrics

    untraced, traced, spans = [], [], []
    start = time.perf_counter()
    while True:
        index = len(untraced) + len(traced)
        if trace and index % 2 == 1:
            tracer = Tracer()
            with tracer.installed():
                scaled = session.run_pass(index, tracer)
            tracer.add_bridge_products()
            traced.append((scaled, layer_metrics(tracer.spans)))
            spans += tracer.spans
        else:
            untraced.append(session.run_pass(index))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES + trace and elapsed * (done + 1) / done > seconds:
            return untraced, traced, spans


def _end_to_end(untraced: list[dict]) -> dict[str, float]:
    median = {k: statistics.median(p[k] for p in untraced) for k in untraced[0]}
    by_command = lambda c: sum(v for (_, key), v in median.items() if key.startswith(c))  # noqa: E731
    return {
        "session_s": sum(median.values()),
        **{f"{c}_s": by_command(c) for c in ("compile", "stats", "run", "diagram")},
    }


def _per_layer(untraced: list[dict], traced: list[tuple[dict, dict]]) -> dict[str, float]:
    metrics = dict(min(traced, key=lambda t: sum(t[0].values()))[1])
    metrics["trace.overhead_ratio"] = statistics.median(
        sum(scaled.values()) for scaled, _ in traced
    ) / statistics.median(sum(p.values()) for p in untraced)
    return metrics


def run_workload(args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **{var: "1" for var in THREAD_VARS})
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setup_s, jobs, inputs_digest = _setup(args.workload, args.seed, work, env)
        import photonc

        if not Path(photonc.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"photonc was imported from {photonc.__file__}, not {SRC}")
        session = Session(jobs, work / "inputs")
        untraced, traced, spans = _measure(session, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics = _per_layer(untraced, traced)
    else:
        metrics = {
            "setup_s": setup_s,
            **_end_to_end(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **session.device,
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "why": SPECS[args.workload].why,
        "inputs_sha256": inputs_digest,
        "environment": _environment(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "probe_reference_s": PROBE_REFERENCE_S,
        "failures": session.failures,
        "metrics": metrics,
        "operations": session.samples,
        "spans": [vars(s) for s in spans],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": metrics,
        "record": record,
    }


def _units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _report(result: dict, units: dict[str, str]) -> None:
    record = result.pop("record")
    print(f"workload {record['workload']} seed {record['seed']}: {record['why']}")
    print(f"  inputs sha256 {record['inputs_sha256']}")
    print(f"  environment {json.dumps(record['environment'])}")
    print(f"  passes {record['passes']}, operations {result['attempted']}, "
          f"failed {result['failed']}")
    probes = [s["probe_s"] * 1000 for s in record["operations"]]
    print(f"  probe {min(probes):.2f}-{statistics.median(probes):.2f}-{max(probes):.2f} ms "
          f"(min-median-max; times are scaled to {PROBE_REFERENCE_S * 1000:g} ms)")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name, "")} for name, value in result["metrics"].items()
    }


def _run_all(args) -> dict:
    """Each workload in its own process, so that peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in SPECS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "photonc" / "__init__.py").is_file():
        print(f"error: no photonc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = _run_all(args)
    else:
        result = run_workload(args)
        _report(result, _units())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

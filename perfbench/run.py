"""floquet-ep benchmark: seeded CLI workloads, timed end to end or per module.

    python3 perfbench/run.py --workload {grid,dynamics,desk,all} --seed N --seconds S --trace {0,1}

Closed loop with one client: every invocation is a fresh
``python -m floquet_ep`` process, and the next starts only after the previous
one has exited.  A pass runs the workload's invocation list once; passes
repeat until another one would overrun ``--seconds``.  Every output is read
back and checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics: pass wall time, pass CPU time,
per-invocation set-up time (``--help`` probes) and peak RSS.  ``--trace 1``
alternates untraced passes with passes run through ``tracer.py`` and reports
the per-module metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SOURCE_DATE_EPOCH = "1600000000"
SETUP_PROBES = 8
INVOCATION_TIMEOUT_S = 90
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "linalg.scipy_loaded": "flag",
    "cli.parse_config_s": "s",
    "cli.run_self_s": "s",
    "sweep.compute_heatmap_s": "s",
    "sweep.cells": "count",
    "sweep.cells_per_s": "1/s",
    "sweep.parallel_speedup": "ratio",
    "sweep.trace_contours_s": "s",
    "sweep.contour_points": "count",
    "floquet.floquet_hamiltonian_s": "s",
    "floquet.floquet_hamiltonian_calls": "count",
    "floquet.on_contour_fallbacks": "count",
    "linalg.logm_2x2_calls": "count",
    "linalg.eig_calls": "count",
    "bloch.evolve_state_s": "s",
    "bloch.substeps": "count",
    "bloch.substeps_per_s": "1/s",
    "two_qubit.entanglement_timeseries_s": "s",
    "two_qubit.timepoints": "count",
    "two_qubit.timepoints_per_s": "1/s",
    "two_qubit.validate_density_calls": "count",
    "two_qubit.evolve_density_s": "s",
    "two_qubit.concurrence_s": "s",
    "two_qubit.entropy_s": "s",
    "envelope.make_envelope_s": "s",
    "envelope.render_s": "s",
    "envelope.write_self_s": "s",
    "envelope.values": "count",
    "envelope.bytes": "B",
    "envelope.render_values_per_s": "1/s",
    "trace.overhead_s": "s",
}

VERSIONS_SNIPPET = (
    "import json, platform, floquet_ep.cli, numpy, scipy; "
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__}))"
)


class BenchError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    errors: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FLOQUET_EP_THREADS"}  # --workers alone sets the pool
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], cwd: Path, env: dict, log_path: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, user+sys CPU s, max RSS MB).

    The rusage from wait4 covers the process and the children it reaped
    (the sweep's worker pool)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_out/ for outputs and logs, removed afterwards."""
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Runs and checks the passes of one workload in a scratch directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, env: dict):
        self.workload = workload
        self.seed = seed
        self.invocations = workloads.generate(workload, seed)
        self.workdir = workdir
        self.env = env
        self.verdicts: dict[str, tuple[str, str]] = {}  # key -> (output digest, check error)

    def _status(self, inv, rc: int, log: Path, digests: dict) -> tuple[str, bool]:
        """(error or "", whether the command itself failed); records the output digest."""
        text = log.read_text(encoding="utf-8", errors="replace")
        if rc != 0 or "Traceback (most recent call last)" in text:
            last = text.strip().splitlines()[-1:] or [""]
            return f"exit status {rc}: {last[0][:160]}", True
        out = self.workdir / inv.output
        if not out.is_file():
            return "missing output", True
        digests[inv.key] = sha256(out)
        if inv.same_as is not None and digests.get(inv.same_as) != digests[inv.key]:
            return f"output differs from {inv.same_as}", False
        if inv.key in self.verdicts and self.verdicts[inv.key][0] != digests[inv.key]:
            return "output differs from the first pass", False
        return "", False

    def _check(self, keys: list[str]) -> dict[str, str]:
        """Full output checks, in a separate process: the max-RSS of a child
        includes the RSS of the process that spawned it, so the benchmark
        itself must stay small."""
        cmd = [sys.executable, "-B", str(HERE / "checks.py"), self.workload, str(self.seed), str(self.workdir),
               *keys]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
        if proc.returncode != 0:
            return {key: f"output checker failed: {proc.stderr.strip()[-300:]}" for key in keys}
        return json.loads(proc.stdout)

    def run_pass(self, traced: bool, number: int) -> Pass:
        result = Pass(traced)
        outcomes = []
        for inv in self.invocations:
            log = self.workdir / f"{inv.key}.log"
            spans = self.workdir / f"{inv.key}.spans.json"
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), f"{number}:{inv.key}", "--", *inv.argv]
            else:
                cmd = [sys.executable, "-m", "floquet_ep", *inv.argv]
            rc, wall, cpu, rss = spawn(cmd, self.workdir, self.env, log)
            result.wall += wall
            result.cpu += cpu
            result.rss_mb = max(result.rss_mb, rss)
            outcomes.append((inv, rc, log, spans))
        digests: dict[str, str] = {}
        statuses = [self._status(inv, rc, log, digests) for inv, rc, log, _ in outcomes]
        unchecked = [inv.key for (inv, *_), (error, _) in zip(outcomes, statuses)
                     if not error and inv.key not in self.verdicts]
        if unchecked:
            errors = self._check(unchecked)
            for key in unchecked:
                self.verdicts[key] = (digests[key], errors.get(key, "not checked"))
        for (inv, _, log, spans), (error, crashed) in zip(outcomes, statuses):
            error = error or self.verdicts[inv.key][1]
            result.attempted += 1
            if error:
                result.failed += 1
                result.errors.append(f"{inv.key}: {error}")
                # known strong-gain failures count as failed, not as wrong
                if not (inv.known_failing and crashed):
                    result.incorrect += 1
            if traced and spans.is_file():
                result.spans.append(json.loads(spans.read_text(encoding="utf-8")))
            for path in (log, spans, self.workdir / inv.output):
                path.unlink(missing_ok=True)
        return result


def warm_up(workdir: Path, env: dict) -> dict:
    """Import the package once (fills the bytecode cache) and read versions."""
    log = workdir / "warmup.log"
    rc, *_ = spawn([sys.executable, "-c", VERSIONS_SNIPPET], workdir, env, log)
    text = log.read_text(encoding="utf-8", errors="replace")
    if rc != 0:
        raise BenchError(f"cannot import floquet_ep from {SRC}:\n{text}")
    return json.loads(text.strip().splitlines()[-1])


def probe_setup(commands: list[str], workdir: Path, env: dict) -> list[float]:
    """Wall times of ``python -m floquet_ep COMMAND --help``, cycling through
    the commands the workload uses."""
    walls = []
    for i in range(SETUP_PROBES):
        rc, wall, _, _ = spawn([sys.executable, "-m", "floquet_ep", commands[i % len(commands)], "--help"],
                               workdir, env, workdir / "probe.log")
        if rc != 0:
            raise BenchError(f"'{commands[i % len(commands)]} --help' exited with status {rc}")
        walls.append(wall)
    return walls


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **versions,
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "source_date_epoch": SOURCE_DATE_EPOCH,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def span_times(spans: list[list]) -> list[tuple[str, float, float, int]]:
    """(name, duration, self time, work count) per span; self time is the
    duration minus that of the span's direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(name, end - start, end - start - child, n)
            for (name, start, end, _, n), child in zip(spans, covered)]


def pass_layers(docs: list[dict]) -> dict[str, float]:
    """Per-module totals of one traced pass, from its spans."""
    total, own, calls, work = Counter(), Counter(), Counter(), Counter()
    heatmap_s = Counter()
    for doc in docs:
        key = doc["invocation"].split(":", 1)[1]
        for name, duration, self_time, n in span_times(doc["spans"]):
            total[name] += duration
            own[name] += self_time
            calls[name] += 1
            work[name] += n
            if name == "compute_heatmap":
                heatmap_s[key] += duration
    serial, parallel = (heatmap_s[k] for k in workloads.PARALLEL_PAIR)
    render_s = total["render_csv"] + total["render_json"]
    values = work["render_csv"] + work["render_json"]
    return {
        "cli.run_self_s": own["run"],
        "sweep.compute_heatmap_s": total["compute_heatmap"],
        "sweep.cells": work["compute_heatmap"],
        "sweep.cells_per_s": _rate(work["compute_heatmap"], total["compute_heatmap"]),
        "sweep.parallel_speedup": _rate(serial, parallel),
        "sweep.trace_contours_s": total["trace_contours"],
        "sweep.contour_points": work["trace_contours"],
        "floquet.floquet_hamiltonian_s": total["floquet_hamiltonian"],
        "floquet.floquet_hamiltonian_calls": calls["floquet_hamiltonian"],
        "floquet.on_contour_fallbacks": calls["floquet_hamiltonian_on_contour"],
        "linalg.logm_2x2_calls": calls["logm_2x2"],
        "linalg.eig_calls": calls["eig"],
        "bloch.evolve_state_s": total["evolve_state"],
        "bloch.substeps": work["evolve_state"],
        "bloch.substeps_per_s": _rate(work["evolve_state"], total["evolve_state"]),
        "two_qubit.entanglement_timeseries_s": total["entanglement_timeseries"],
        "two_qubit.timepoints": work["entanglement_timeseries"],
        "two_qubit.timepoints_per_s": _rate(work["entanglement_timeseries"], total["entanglement_timeseries"]),
        "two_qubit.validate_density_calls": calls["validate_density"],
        "two_qubit.evolve_density_s": own["evolve_density"],
        "two_qubit.concurrence_s": own["concurrence"],
        "two_qubit.entropy_s": own["entropy"],
        "envelope.make_envelope_s": total["make_envelope"],
        "envelope.render_s": render_s,
        "envelope.write_self_s": own["write_result"],
        "envelope.values": values,
        "envelope.bytes": work["write_result"],
        "envelope.render_values_per_s": _rate(values, render_s),
    }


def layer_metrics(passes: list[Pass]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    docs = [doc for p in traced for doc in p.spans]
    per_pass = [pass_layers(p.spans) for p in traced]
    metrics = {name: statistics.median(layers[name] for layers in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(doc["import_s"] for doc in docs)
    metrics["linalg.scipy_loaded"] = float(any(doc["scipy_loaded"] for doc in docs))
    metrics["cli.parse_config_s"] = statistics.median(
        sum(d for name, d, _, _ in span_times(doc["spans"]) if name == "parse_config") for doc in docs
    )
    metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                   - statistics.median(p.wall for p in untraced))
    return metrics


# spans shown per invocation in the traced summary: (label, span name, self time?)
BREAKDOWN = (("parse_config", "parse_config", False), ("run_self", "run", True),
             ("compute_heatmap", "compute_heatmap", False), ("trace_contours", "trace_contours", False),
             ("floquet_hamiltonian", "floquet_hamiltonian", False), ("evolve_state", "evolve_state", False),
             ("entanglement_timeseries", "entanglement_timeseries", False),
             ("make_envelope", "make_envelope", False), ("render", "render_csv", False),
             ("render", "render_json", False), ("write_self", "write_result", True))


def invocation_breakdown(passes: list[Pass]) -> dict[str, dict[str, float]]:
    """Median per-invocation import and span times over the traced passes."""
    samples: dict[str, list[Counter]] = {}
    for p in passes:
        for doc in p.spans:
            row = Counter({"import": doc["import_s"]})
            for name, duration, self_time, _ in span_times(doc["spans"]):
                for label, span_name, use_self in BREAKDOWN:
                    if name == span_name:
                        row[label] += self_time if use_self else duration
            samples.setdefault(doc["invocation"].split(":", 1)[1], []).append(row)
    return {key: {label: statistics.median(r[label] for r in rows) for label in rows[0]}
            for key, rows in samples.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, env: dict) -> dict:
    runner = Runner(name, seed, workdir, env)
    invocations = runner.invocations
    ticks_before = cpu_ticks()
    commands = sorted({inv.argv[0] for inv in invocations})
    setup = [] if trace else probe_setup(commands, workdir, env)
    kinds = (False, True) if trace else (False,)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(kinds[len(passes) % len(kinds)], len(passes)))
        elapsed = time.perf_counter() - start
        cycle_s = elapsed / len(passes) * len(kinds)
        if len(passes) % len(kinds) == 0 and elapsed + cycle_s > seconds:
            break
    ticks_after = cpu_ticks()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {name}  seed {seed}  passes {len(passes)}  invocations/pass {len(invocations)}  "
          f"attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.4f}")
    for error in sorted({e for p in passes for e in p.errors}):
        print(f"  failure  {error}")
    if ticks_before and ticks_after:
        steal, total = (b - a for a, b in zip(ticks_before, ticks_after))
        print(f"  steal    {steal} of {total} CPU ticks ({_rate(100 * steal, total):.2f} %)")

    if trace:
        metrics = layer_metrics(passes)
        units = PER_LAYER
        for key, row in invocation_breakdown(passes).items():
            print(f"  trace    {key:<18}" + "  ".join(f"{k} {v:.4f}" for k, v in row.items() if v))
    else:
        samples = {
            "wall_s": [p.wall for p in passes],
            "cpu_s": [p.cpu for p in passes],
            "setup_s": setup,
            "peak_rss_mb": [p.rss_mb for p in passes],
        }
        metrics = {}
        for metric, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[metric] = med
            print(f"  {metric:<12} {END_TO_END[metric]:<3} median {med:.4f}  "
                  f"q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}")
        units = END_TO_END
    return {
        "correct": not any(p.incorrect for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "floquet_ep" / "__init__.py").is_file():
        print(f"error: {SRC / 'floquet_ep'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        with scratch_dir() as workdir:
            env = child_env()
            print("env " + json.dumps(environment(warm_up(workdir, env))))
            results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), workdir, env) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

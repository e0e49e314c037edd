#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the entroflux command line.

Run from the root of a checkout (no install needed; the package is imported
from ``src/``):

    python3 bench/run_bench.py --workload dense_diag --seed 1 --seconds 25 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client: each in-process call of
``entroflux.cli.main`` starts after the previous one returned, as a batch
user runs the tool.  Every invocation passes the correctness gate (exit code,
byte-identical outputs across repeats, closed-form checks); a failing one
counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
alternates untraced and traced invocations and reports the per-layer metrics
(see ``spans.py``).  Human-readable lines come first, including the
environment; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See ``README.md`` for the
workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# the script's own directory is first on sys.path
from spans import Tracer, layer_metrics, missing_targets
from workloads import WORKLOADS, Workload, make

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 5  # timed invocations per run, even if --seconds runs out
SETUP_PAIRS = 12  # setup and reference interpreters per run (after one warm-up)
# setup_s is in reference seconds: each fresh interpreter's time divided by
# that of a bare `import numpy` interpreter timed beside it, times this
# reference's median on the host the bounds were set on (2-core Xeon,
# Python 3.11.7, numpy 2.4.6)
REF_CHILD_S = 0.2
DELTA_I_TOL = 1e-9  # nats; the measured gaps are ~1e-12
EXPONENT_TOL = 0.1  # |fitted exponent - 2|, acceptance criterion 8

SETUP_CHILD = (
    "import sys\n"
    "from pathlib import Path\n"
    "import entroflux.cli as cli\n"
    "getattr(cli, sys.argv[1])(Path(sys.argv[2]).read_text(encoding='utf-8'))\n"
)
# the part of set-up that is not the program's: the interpreter and numpy
REF_CHILD = "import numpy\n"
RSS_CHILD = (
    "import resource, sys\n"
    "from entroflux.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "sys.exit(code)\n"
)


def environment(threads_env: str | None) -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    pocketfft = importlib.util.find_spec("numpy.fft._pocketfft_umath") is not None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "fft_backend": "numpy.fft (pocketfft)" if pocketfft else "numpy.fft",
        "ENTROFLUX_THREADS": ("unset" if threads_env is None
                              else f"unset for the run (was {threads_env!r})"),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "loadavg_start": os.getloadavg(),
    }


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _run_child(code: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run `python -c code args` from the checkout root and wait for it to end.

    The wait blocks in waitpid, so the measured wall time is not rounded to
    the polling interval subprocess uses when given a timeout; a timer kills
    a child that outlives `timeout`.
    """
    argv = [sys.executable, "-c", code, *args]
    with subprocess.Popen(argv, env=_child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Gate:
    """Correctness gate applied to every invocation of one workload."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.digests: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy: dict = {}
        self.bytes_written = 0
        self.sweep_counts = (0, 0)

    def check(self, code, out_dir: Path) -> None:
        problems = []
        if code != 0:
            problems.append(f"exit code {code!r}")
        files = sorted(p for p in out_dir.rglob("*") if p.is_file()) if out_dir.is_dir() else []
        digests = {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("output files differ from the first invocation")
        try:
            accuracy, more = self._reference_checks(out_dir)
            problems += more
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")
            accuracy = {}
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("; ".join(problems))
        else:
            self.accuracy = accuracy
            self.bytes_written = sum(p.stat().st_size for p in files)

    def _reference_checks(self, out: Path) -> tuple[dict, list]:
        wl, ref, problems = self.workload, self.workload.reference, []
        if wl.command == "sweep":
            return self._sweep_checks(out)
        summary = json.loads((out / "summary.json").read_text())
        n_rows = len((out / "series.csv").read_text().splitlines()) - 1
        if n_rows != ref["n_rows"]:
            problems.append(f"{n_rows} series rows, expected {ref['n_rows']}")
        if not summary["checks"]["norm"]:
            problems.append("norm check failed")
        accuracy = {
            "eq16_rel_err": summary["eq16_rel_err"],
            "residual13_l2_max": summary["max_residual13_l2"],
        }
        if "delta_I" in ref:
            err = abs(summary["delta_I"] - ref["delta_I"])
            accuracy["delta_I_err"] = err
            if not err <= DELTA_I_TOL:
                problems.append(f"|delta_I - closed form| = {err:.3g} > {DELTA_I_TOL:g}")
        if wl.name == "oracle_dump":
            n_snap = len(list((out / "snapshots").glob("snapshot_*.csv")))
            if n_snap != ref["n_rows"]:
                problems.append(f"{n_snap} snapshot files, expected {ref['n_rows']}")
        return accuracy, problems

    def _sweep_checks(self, out: Path) -> tuple[dict, list]:
        ref, problems = self.workload.reference, []
        summary = json.loads((out / "sweep_summary.json").read_text())
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if summary["n_failed"] != 0:
            problems.append(f"{summary['n_failed']} sweep rows failed")
        if not abs(summary["exponent"] - 2.0) <= EXPONENT_TOL:
            problems.append(f"fitted exponent {summary['exponent']:.4g} not within "
                            f"{EXPONENT_TOL} of 2")
        if len(rows) != ref["n_rows"]:
            problems.append(f"{len(rows)} sweep rows, expected {ref['n_rows']}")
        errs = []
        for row, eps, expected in zip(rows, ref["epsilons"], ref["delta_I_rows"]):
            if float(row["epsilon"]) != eps or row["error"]:
                problems.append(f"sweep row {row['epsilon']}: {row['error'] or 'wrong epsilon'}")
                continue
            errs.append(abs(float(row["delta_I"]) - expected))
        if errs and not max(errs) <= DELTA_I_TOL:
            problems.append(f"max |delta_I - closed form| = {max(errs):.3g} > {DELTA_I_TOL:g}")
        self.sweep_counts = (summary["n_rows"], summary["n_failed"])
        accuracy = {
            "delta_I_err": max(errs, default=math.nan),
            "eq16_rel_err": max(float(r["eq16_rel_err"]) for r in rows),
            "residual13_l2_max": max(float(r["residual13_l2_max"]) for r in rows),
        }
        return accuracy, problems


class Bench:
    """One workload's config on disk, the CLI it drives, and its gate."""

    def __init__(self, workload: Workload):
        import entroflux.cli

        self.cli = entroflux.cli
        self.workload = workload
        self.gate = Gate(workload)
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "run.cfg"
        self.config.write_text(workload.config, encoding="utf-8")
        self.out = self.dir / "out"

    def argv(self) -> list[str]:
        return [self.workload.command, "--config", str(self.config),
                "--out", str(self.out), "--quiet"]

    def invoke(self, tracer: Tracer | None = None) -> float:
        """One checked in-process CLI call; returns its wall time in seconds."""
        gc.collect()
        start = time.perf_counter()
        try:
            code = tracer.run(self.cli.main, self.argv()) if tracer else self.cli.main(self.argv())
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            traceback.print_exc()
            code = exc
        wall = time.perf_counter() - start
        self.gate.check(code, self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        return wall

    def setup_pair(self, setup_first: bool) -> tuple[float, float]:
        """Seconds from spawning a fresh interpreter to its exit, for the set-up
        child (import entroflux.cli, parse the config) and for the reference
        child (import numpy), one right after the other."""
        parser = "parse_sweep_config" if self.workload.command == "sweep" else "parse_config"
        children = [(SETUP_CHILD, parser, str(self.config)), (REF_CHILD,)]
        times = []
        for code, *args in (children if setup_first else children[::-1]):
            start = time.perf_counter()
            proc = _run_child(code, *args, timeout=60)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
        return (times[0], times[1]) if setup_first else (times[1], times[0])

    def peak_rss_mb(self) -> float:
        """Peak resident memory of a child process running one checked invocation."""
        proc = _run_child(RSS_CHILD, *self.argv(), timeout=120)
        self.gate.check(proc.returncode, self.out)
        shutil.rmtree(self.out, ignore_errors=True)
        # printed after main() returns, so an exit code of 2 still reports it
        lines = proc.stdout.split()
        return int(lines[-1]) / 1024.0 if lines and lines[-1].isdigit() else math.nan


class FftPair:
    """A bare numpy ifft(fft(x)) at the workload's n, timed around each invocation.

    It is the propagator's reference cost, and it gauges the speed of the
    shared cores at that moment: dividing an invocation's wall time by it
    cancels the slow phases of a busy host, which last tens of seconds.  With
    threads > 1 every thread runs the pairs at once, so the reference also
    contends for the interpreter lock the way a threaded command does.
    """

    def __init__(self, n: int, threads: int = 1):
        import numpy as np

        self.fft, self.ifft = np.fft.fft, np.fft.ifft
        self.x = np.random.default_rng(0).standard_normal(n) * (1 + 1j)
        self.reps = max(4, 2**18 // n)  # about 15 ms on one core
        self.threads = threads

    def _loop(self) -> None:
        for _ in range(self.reps):
            self.ifft(self.fft(self.x))

    def seconds(self) -> float:
        """Wall time of one round of pairs (one per thread), over a fixed count."""
        workers = [threading.Thread(target=self._loop) for _ in range(self.threads - 1)]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        self._loop()
        for worker in workers:
            worker.join()
        return (time.perf_counter() - start) / self.reps


def run_end_to_end(workload: Workload, seconds: float) -> tuple[Gate, dict, list[str]]:
    bench = Bench(workload)
    pair = FftPair(workload.grid_n, workload.threads)
    rss = bench.peak_rss_mb()
    bench.setup_pair(True)  # warm-up: bytecode caches and the OS file cache
    bench.invoke()  # warm-up: caches and lazy imports, checked but not timed
    walls, norms, setup = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        before = pair.seconds()
        wall = bench.invoke()
        walls.append(wall)
        norms.append(wall / ((before + pair.seconds()) / 2))
        # spread the fresh interpreters evenly over the run, not in one burst
        due = min(SETUP_PAIRS, math.ceil(SETUP_PAIRS * (time.perf_counter() - start) / seconds))
        while len(setup) < due:
            setup.append(bench.setup_pair(len(setup) % 2 == 0))
    while len(setup) < SETUP_PAIRS:
        setup.append(bench.setup_pair(len(setup) % 2 == 0))
    gate = bench.gate
    acc = gate.accuracy
    w1, wall, w3 = _quartiles(walls)
    n1, norm, n3 = _quartiles(norms)
    s1, setup_s, s3 = (REF_CHILD_S * q for q in _quartiles([a / b for a, b in setup]))
    raw_setup = statistics.median(a for a, _ in setup)
    raw_ref = statistics.median(b for _, b in setup)
    # The metrics BENCHMARK.json lists.  The other three are printed only:
    # raw wall_s drifts by about 20% between runs on a shared core, whatever
    # the run length, so wall_norm stands in for it; failed_frac is 0 at a
    # correct commit; delta_I_err has no closed form on wide_barrier.
    metrics = {
        "wall_norm": (norm, "fft_pair"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "eq16_rel_err": (acc.get("eq16_rel_err", math.nan), "ratio"),
        "residual13_l2_max": (acc.get("residual13_l2_max", math.nan), "1/s"),
    }
    notes = [
        f"wall_s            {wall:.6g} s  median of {len(walls)} warm invocations, "
        f"quartiles {w1:.6g} .. {w3:.6g}",
        f"wall_norm         {norm:.6g} fft_pair  median of wall / FFT pair at n="
        f"{workload.grid_n} in {workload.threads} thread(s), quartiles {n1:.6g} .. {n3:.6g}",
        f"setup_s           {setup_s:.6g} s  in reference seconds: median over {len(setup)} "
        f"pairs of set-up / `import numpy` interpreter x {REF_CHILD_S} s, "
        f"quartiles {s1:.6g} .. {s3:.6g}; raw medians {raw_setup:.6g} s and {raw_ref:.6g} s",
        f"peak_rss_mb       {rss:.6g} MB  one child process",
        f"failed_frac       {gate.failed / gate.attempted:.6g} ratio  "
        f"{gate.failed} of {gate.attempted} invocations",
        "delta_I_err       " + (f"{acc['delta_I_err']:.6g} nats" if "delta_I_err" in acc
                                else "absent (no closed form)"),
        f"eq16_rel_err      {metrics['eq16_rel_err'][0]:.6g} ratio",
        f"residual13_l2_max {metrics['residual13_l2_max'][0]:.6g} 1/s",
    ]
    return gate, metrics, notes


def run_traced(workload: Workload, seconds: float) -> tuple[Gate, dict, list[str]]:
    bench = Bench(workload)
    pair = FftPair(workload.grid_n)
    bench.invoke()  # warm-up, untraced
    overheads, samples = [], []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        before = pair.seconds()
        untraced = bench.invoke()
        tracer = Tracer()
        traced = bench.invoke(tracer)
        pair_us = (before + pair.seconds()) / 2 * 1e6
        overheads.append(traced / untraced - 1.0)
        rows, rows_failed = bench.gate.sweep_counts
        samples.append(layer_metrics(tracer, pair_us, bench.gate.bytes_written,
                                     rows, rows_failed))
    # counts repeat exactly, so take one of them rather than a mean of two
    metrics = {name: ((statistics.median_low if unit in ("count", "B") else statistics.median)(
                   [s[name][0] for s in samples]), unit)
               for name, (_, unit) in samples[0].items()}
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
    notes = [f"{name:37s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    notes.append(f"medians over {len(samples)} pairs of untraced and traced invocations")
    notes += [f"target missing, its metrics read 0: {target}" for target in missing_targets()]
    return bench.gate, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entroflux" / "cli.py").is_file():
        print(f"error: no entroflux package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One process, at most nproc threads: pin any BLAS/OpenMP pool before
    # numpy loads (children inherit it), and let the sweep pick its default
    # worker count.
    for var in THREAD_PINS:
        os.environ[var] = "1"
    threads_env = os.environ.pop("ENTROFLUX_THREADS", None)

    print("env " + json.dumps(environment(threads_env), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = run_traced if args.trace else run_end_to_end
    attempted = failed = 0
    all_metrics = {}
    try:
        for name in names:
            workload = make(name, args.seed)
            gate, metrics, notes = run(workload, args.seconds)
            print(f"{name} ({workload.command}, seed {args.seed}, "
                  f"{'traced' if args.trace else 'untraced'}):")
            for note in notes:
                print("  " + note)
            for problem in gate.problems:
                print("  FAILED: " + problem)
            attempted += gate.attempted
            failed += gate.failed
            prefix = f"{name}." if len(names) > 1 else ""
            # NaN marks a value no invocation produced; JSON has no NaN
            all_metrics.update({prefix + k: {"value": v, "unit": u}
                                for k, (v, u) in metrics.items() if not math.isnan(v)})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of entroflux's layers from outside the package.

The traced run replaces each layer's public function at the module (or class)
attribute its caller looks up, records a span per call (name, start, end,
parent span, thread), and puts the originals back afterwards.  Nothing under
``src/`` is edited, and the untraced runs never see a wrapper.  A target whose
attribute no longer exists is skipped; its metrics read 0, and the run names
the missing target.

The FFT entry points get counters, not spans, so layer self times still
include the FFTs they call.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

# (span name, owner, attribute): the attribute each caller resolves at call time
SPAN_TARGETS = (
    ("config.parse", "entroflux.cli", "parse_config"),
    ("config.parse", "entroflux.cli", "parse_sweep_config"),
    ("report.run", "entroflux.cli", "run_simulation"),
    ("report.run", "entroflux.cli", "run_oracle"),
    ("report.write", "entroflux.cli", "write_series_csv"),
    ("report.write", "entroflux.cli", "write_summary_json"),
    ("report.write", "entroflux.cli", "write_sweep_csv"),
    ("report.write_snapshots", "entroflux.cli", "write_snapshots"),
    ("climit.run_sweep", "entroflux.cli", "run_sweep"),
    ("propagate.evolve", "entroflux.report", "evolve"),
    ("propagate.evolve", "entroflux.climit", "evolve"),
    ("entropy.take_snapshot", "entroflux.report", "take_snapshot"),
    ("entropy.take_snapshot", "entroflux.climit", "take_snapshot"),
    ("entropy.entropy_rate_check", "entroflux.report", "entropy_rate_check"),
    ("entropy.entropy_rate_check", "entroflux.climit", "entropy_rate_check"),
    ("entropy.balance_residual", "entroflux.entropy", "balance_residual"),
    ("entropy.rate_identity_residual", "entroflux.report", "rate_identity_residual"),
    ("madelung.fields", "entroflux.entropy", "fields"),
    ("oracle.fields", "entroflux.oracle:GaussianOracle", "fields"),
    ("oracle.fields", "entroflux.oracle:CoherentOracle", "fields"),
)

FFT_TARGETS = (("numpy.fft", "fft"), ("numpy.fft", "ifft"))

ROOT = "cli"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    thread: int


def _resolve(owner: str):
    """The module or class named "module[:Class]", or None if it is gone."""
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    return getattr(obj, cls, None) if cls else obj


def _evolve_steps(args, kwargs) -> int:
    # evolve(wf, potential, dt, n_steps, observer=None, stride=1)
    return int(kwargs["n_steps"] if "n_steps" in kwargs else args[3])


class Tracer:
    """Collects spans and FFT counts for one traced CLI invocation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.steps = 0
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_bytes = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        # a worker thread's first span was caused by the span the main
        # thread is waiting in (the sweep)
        source = stack or self._main_stack
        span = Span(name, time.perf_counter(), 0.0,
                    source[-1] if source else None, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "propagate.evolve":
                steps = _evolve_steps(args, kwargs)
                with self._lock:
                    self.steps += steps
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            computed = getattr(a, "nbytes", 0) + out.nbytes
            with self._lock:
                self.fft_calls += 1
                self.fft_points += out.size
                self.fft_bytes += computed
            return out
        return wrapper

    # -- installing ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for name, owner_path, attr in SPAN_TARGETS:
            owner = _resolve(owner_path)
            if owner is not None and attr in vars(owner):
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for owner_path, attr in FFT_TARGETS:
            owner = _resolve(owner_path)
            self._patch(owner, attr, self._fft_wrapper(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, fn, *args):
        """Call fn(*args) inside the root span with every wrapper installed."""
        self._main_stack = self._stack()
        self.install()
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.uninstall()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [
            (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(self.spans)
        ]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, fft_pair_us: float, bytes_written: int,
                  sweep_rows: int, sweep_failed: int) -> dict:
    """Per-layer metrics of one traced invocation, as name -> (value, unit).

    Every metric is always reported.  A layer that does not run on the
    workload reads 0 in its times and counts, and so do its ratios, which
    are undefined there (a zero denominator).  A wrapped name that is
    missing from the package also reads 0; ``missing_targets`` names it.
    """
    spans = tracer.spans
    self_t = tracer.self_times()

    def self_s(name):
        return sum(t for s, t in zip(spans, self_t) if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out: dict[str, tuple[float, str]] = {}
    out["config.parse_s"] = (self_s("config.parse"), "s")

    evolve_self = self_s("propagate.evolve")
    us_per_step = ratio(evolve_self * 1e6, tracer.steps)
    out["propagate.evolve.self_s"] = (evolve_self, "s")
    out["propagate.steps"] = (tracer.steps, "count")
    out["propagate.us_per_step"] = (us_per_step, "us")
    out["propagate.fft_pair_us"] = (fft_pair_us, "us")
    out["propagate.step_over_fft"] = (ratio(us_per_step, fft_pair_us), "ratio")

    diag = ("madelung.fields", "entropy.take_snapshot", "entropy.entropy_rate_check",
            "entropy.balance_residual", "entropy.rate_identity_residual")
    for name in diag:
        out[f"{name}.self_s"] = (self_s(name), "s")
        out[f"{name}.calls"] = (calls(name), "count")
    snapshot_total = sum(s.end - s.start for s in spans if s.name == "entropy.take_snapshot")
    out["entropy.take_snapshot.us_per_call"] = (
        ratio(snapshot_total * 1e6, calls("entropy.take_snapshot")), "us")
    out["entropy.diag_over_prop"] = (
        ratio(sum(self_s(name) for name in diag), evolve_self), "ratio")

    out["oracle.fields.self_s"] = (self_s("oracle.fields"), "s")
    out["oracle.fields.calls"] = (calls("oracle.fields"), "count")

    for name in ("report.run", "report.write", "report.write_snapshots"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["report.bytes_written"] = (bytes_written, "B")
    write_s = self_s("report.write") + self_s("report.write_snapshots")
    out["report.write_MB_per_s"] = (ratio(bytes_written / 1e6, write_s), "MB/s")

    sweeps = [i for i, s in enumerate(spans) if s.name == "climit.run_sweep"]
    rows = [s for s in spans if s.parent in sweeps]
    sweep_wall = sum(spans[i].end - spans[i].start for i in sweeps)
    out["climit.run_sweep.self_s"] = (self_s("climit.run_sweep"), "s")
    out["climit.rows"] = (sweep_rows, "count")
    out["climit.rows_failed"] = (sweep_failed, "count")
    out["climit.workers"] = (len({s.thread for s in rows}), "count")
    out["climit.span_sum_over_wall"] = (
        ratio(sum(s.end - s.start for s in rows), sweep_wall), "ratio")

    out["numpy.fft.calls"] = (tracer.fft_calls, "count")
    out["numpy.fft.points"] = (tracer.fft_points, "count")
    out["numpy.fft.bytes_computed"] = (tracer.fft_bytes, "B")

    root = next(i for i, s in enumerate(spans) if s.name == ROOT)
    out["trace.unattributed_s"] = (self_t[root], "s")
    return out


def missing_targets() -> list[str]:
    """The "owner.attribute" of each span target the package no longer has."""
    missing = []
    for _, owner_path, attr in SPAN_TARGETS:
        owner = _resolve(owner_path)
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr}")
    return missing

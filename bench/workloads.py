"""Seeded workload generator for the entroflux benchmark.

Each workload is one CLI command and one config file.  The seed jitters the
physical parameters (packet width, centre, wavenumber, barrier centre and
height, oscillator frequency and amplitude) within about 1% of their scales,
narrow enough that the accuracy metrics stay comparable across seeds.  The
grid, the step count, the observation stride and the grid spacing that the
time-step check depends on never change, so every seed costs the same work.
The ranges keep every packet far from the periodic seam.

The closed-form reference values are computed here from the textbook
formulas, not from ``entroflux.oracle``, so a defect in the package's oracle
cannot hide a defect in its propagator.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("dense_diag", "wide_barrier", "sweep_climit", "oracle_dump")

SWEEP_EPSILONS = (0.8, 0.4, 0.2, 0.1, 0.05, 0.025)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    config: str  # config file text; the program sees only this
    grid_n: int  # grid size, for the bare FFT reference timing
    # threads the command computes in; the reference runs in as many
    threads: int
    # closed-form values the correctness gate compares against
    reference: dict


def _fmt(x: float) -> str:
    return repr(float(x))


def _config(entries: dict) -> str:
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _free_gaussian_delta_i(hbar: float, mass: float, sigma0: float, t: float) -> float:
    """Entropy gain of a freely spreading Gaussian: 0.5 ln(1 + (hbar t / 2 m sigma0^2)^2)."""
    spread = hbar * t / (2.0 * mass * sigma0**2)
    return 0.5 * math.log1p(spread**2)


def _check_clear_of_seam(
    x_min: float, x_max: float, hbar: float, mass: float,
    sigma0: float, x0: float, k0: float, t: float,
) -> None:
    """Refuse a free packet whose 12-sigma envelope reaches the domain edge by time t."""
    sigma_t = sigma0 * math.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)
    lo = min(x0, x0 + hbar * k0 * t / mass) - 12.0 * sigma_t
    hi = max(x0, x0 + hbar * k0 * t / mass) + 12.0 * sigma_t
    if not (x_min < lo and hi < x_max):
        raise ValueError(f"packet envelope [{lo:.3g}, {hi:.3g}] reaches the seam")


def _dense_diag(rng: random.Random) -> Workload:
    # Free Gaussian observed after every step with a subvolume: the
    # per-snapshot diagnostics dominate, propagation is a small share.
    dt, n_steps = 5e-4, 1000
    sigma0 = rng.uniform(0.99, 1.01)
    x0 = rng.uniform(-0.1, 0.1)
    k0 = rng.uniform(-0.1, 0.1)
    half = 2.0 * math.sqrt(2.0)
    _check_clear_of_seam(-20.0, 20.0, 1.0, 1.0, sigma0, x0, k0, n_steps * dt)
    cfg = _config({
        "x_min": -20.0, "x_max": 20.0, "n": 1024,
        "sigma0": sigma0, "x0": x0, "k0": k0,
        "dt": dt, "t_final": n_steps * dt, "observe_stride": 1,
        "subvolume_a": -half, "subvolume_b": half,
        "eq16_rel_tol": 1e-3,
    })
    return Workload("dense_diag", "simulate", cfg, 1024, 1, {
        "delta_I": _free_gaussian_delta_i(1.0, 1.0, sigma0, n_steps * dt),
        "n_rows": n_steps + 1,
    })


def _wide_barrier(rng: random.Random) -> Workload:
    # Scattering off a Gaussian barrier on a wide grid: propagation of a
    # 256 KB field dominates, and V != 0 defeats any free-particle shortcut.
    dt, n_steps, stride = 1e-4, 1000, 20
    sigma0 = rng.uniform(0.998, 1.002)
    x0 = rng.uniform(-2.01, -1.99)
    k0 = rng.uniform(9.99, 10.01)
    cfg = _config({
        "x_min": -160.0, "x_max": 160.0, "n": 16384,
        "sigma0": sigma0, "x0": x0, "k0": k0,
        "potential": "gaussian_barrier",
        "barrier_height": rng.uniform(49.9, 50.1),
        "barrier_width": 0.5,
        "barrier_center": rng.uniform(-0.005, 0.005),
        "dt": dt, "t_final": n_steps * dt, "observe_stride": stride,
    })
    # the barrier only slows or reflects the packet, so the free envelope
    # at full speed bounds where it can be
    _check_clear_of_seam(-160.0, 160.0, 1.0, 1.0, sigma0, x0, k0, n_steps * dt)
    return Workload("wide_barrier", "simulate", cfg, 16384, 1, {
        "n_rows": n_steps // stride + 1,
    })


def _sweep_climit(rng: random.Random) -> Workload:
    # Six independent free runs at n = 1024, one per epsilon, through the
    # sweep's worker pool; eps fixes the spreading, so each row's entropy
    # gain has a closed form that does not depend on the jittered packet.
    t_c = 2.0
    L_c = rng.uniform(0.99, 1.01)
    x0 = rng.uniform(-0.1, 0.1)
    k0 = rng.uniform(-0.1, 0.1)
    for eps in SWEEP_EPSILONS:
        hbar = eps * L_c**2 / t_c
        _check_clear_of_seam(-20.0, 20.0, hbar, 1.0, L_c, x0, k0, t_c)
    cfg = _config({
        "epsilons": ", ".join(_fmt(e) for e in SWEEP_EPSILONS),
        "t_c": t_c, "L_c": L_c,
        "x_min": -20.0, "x_max": 20.0, "n": 1024,
        "x0": x0, "k0": k0, "dt_ref": 5e-4,
    })
    # hbar t_c / (2 m L_c^2) = eps / 2 by construction of the sweep
    expected = [0.5 * math.log1p((e / 2.0) ** 2) for e in SWEEP_EPSILONS]
    # the sweep's default pool: one worker per epsilon, capped at nproc
    workers = min(len(SWEEP_EPSILONS), os.cpu_count() or 1)
    return Workload("sweep_climit", "sweep", cfg, 1024, workers, {
        "epsilons": list(SWEEP_EPSILONS),
        "delta_I_rows": expected,
        "n_rows": len(SWEEP_EPSILONS),
    })


def _oracle_dump(rng: random.Random) -> Workload:
    # Closed-form coherent-state fields written per sample: no propagation
    # at all, and the per-point snapshot writer dominates.
    dt, n_steps, stride = 1e-4, 20000, 500
    omega = _fmt(rng.uniform(0.998, 1.002))
    cfg = _config({
        "x_min": -20.0, "x_max": 20.0, "n": 2048,
        "initial": "coherent", "omega": omega,
        "amplitude": rng.uniform(1.99, 2.01),
        "potential": "harmonic", "potential_omega": omega,
        "dt": dt, "t_final": n_steps * dt, "observe_stride": stride,
        "save_snapshots": "true",
    })
    # a coherent state is a rigid Gaussian: its entropy never changes
    return Workload("oracle_dump", "oracle", cfg, 2048, 1, {
        "delta_I": 0.0,
        "n_rows": n_steps // stride + 1,
    })


_MAKERS = {
    "dense_diag": _dense_diag,
    "wide_barrier": _wide_barrier,
    "sweep_climit": _sweep_climit,
    "oracle_dump": _oracle_dump,
}


def make(name: str, seed: int) -> Workload:
    """The workload `name` with its physical parameters drawn from `seed`."""
    if name not in _MAKERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _MAKERS[name](random.Random(f"{name}:{seed}"))

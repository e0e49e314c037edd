"""Classical-limit sweep over the dimensionless parameter eps = hbar*t_c/(m*L_c^2).

eps is realized by scaling hbar with m, L_c (the initial packet width) and t_c
fixed, so grid and time-step economics stay put.  The sweep observable is the
entropy change over [0, t_c] of a free Gaussian packet; for that scenario the
closed form is delta_I = 0.5*ln(1 + eps^2/4), vanishing quadratically as
eps -> 0.  The per-step kinetic phase is held eps-independent by scaling
dt ~ 1/hbar.

Since only hbar*dt enters a free step, the rows' step factors often come out
equal byte for byte (as for epsilons a power of two apart, such as 0.4, 0.2,
0.1), and rows with equal factors make the same states step by step: a
shorter row's trajectory is a prefix of a longer one's.  Such rows share one
run of the longest row's steps, which each row observes at its own times, so
a sweep of halving epsilons costs the steps of its first row alone and every
output keeps its bits.  A free step is one product in Fourier space
(`split_steps`), and the run hands out only the states some row observes, as
their transforms: 401 of the 4001 states (step 0 included) of the halving
sweep 0.8 ... 0.025.  Each row's consumer takes one batched inverse transform
per block for the states and one for their derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import CHUNK_POINTS, Diagnostics, check_reg_floor, summarize
# SpecError is re-exported: an invalid SweepSpec raises it
from .grid import (
    Grid1D, PhysicalParams, SpecError, about, check_rows, check_work, positive, step_count,
)
from .oracle import GaussianOracle
from .propagate import (
    Potential, check_dt, check_wavenumber, check_width, init_gaussian, split_steps, step_factors,
)


@dataclass(frozen=True)
class SweepSpec:
    epsilons: tuple
    t_c: float
    L_c: float
    x_min: float = -20.0
    x_max: float = 20.0
    n: int = 1024
    mass: float = 1.0
    x0: float = 0.0
    k0: float = 0.0
    dt_ref: float = 2e-3
    n_samples: int = 100
    reg_floor: float = 1e-12

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        with about("epsilons"):
            if len(eps) == 0:
                raise ValueError("epsilons must be nonempty")
            if any(not e > 0.0 for e in eps):
                raise ValueError("epsilons must be positive")
            if any(nxt >= prv for prv, nxt in zip(eps[:-1], eps[1:])):
                raise ValueError("epsilons must be strictly descending")
        positive(**{key: getattr(self, key)
                    for key in ("t_c", "L_c", "mass", "dt_ref", "n_samples")})
        grid = Grid1D(self.x_min, self.x_max, self.n)
        with about("reg_floor"):
            check_reg_floor(grid, self.reg_floor)
        with about("L_c", "n", "x_max", "x_min"):
            check_width(grid, self.L_c)
        with about("x0", "x_min", "x_max"):
            grid.check_inside("x0", self.x0)
        with about("k0"):
            check_wavenumber(grid, self.L_c, self.k0)
        with about("dt_ref"):
            rows = [self.time_grid(e) for e in eps]
            for hbar, dt, n_steps, _ in rows:
                check_dt(grid, PhysicalParams(hbar=hbar, mass=self.mass), dt)
                check_work(n_steps, self.n)
        with about("n_samples"):
            for _, _, n_steps, stride in rows:
                check_rows(n_steps // stride + 1)

    def hbar_for(self, eps: float) -> float:
        return eps * self.mass * self.L_c**2 / self.t_c

    def time_grid(self, eps: float) -> tuple[float, float, int, int]:
        """hbar, dt, n_steps and stride of the row at eps.

        dt scales as 1/hbar, which holds the per-step kinetic phase fixed
        across the sweep; the steps are whole strides, so the last sample is
        at t_c.
        """
        hbar = self.hbar_for(eps)
        dt = self.dt_ref * self.epsilons[0] / eps
        n_steps = max(1, step_count(self.t_c / dt))
        stride = max(1, int(round(n_steps / self.n_samples)))
        n_steps = stride * max(1, int(round(n_steps / stride)))
        return hbar, self.t_c / n_steps, n_steps, stride


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    hbar: float
    dt: float
    n_steps: int
    delta_I: float
    delta_I_expected: float
    residual13_l2_max: float
    eq16_rel_err: float
    sign_fraction: float
    error: str = ""


@dataclass(frozen=True)
class SweepReport:
    rows: list
    exponent: float


def _finish(stream: Diagnostics) -> dict:
    """The summary of a row whose last state has arrived; raises if its packet
    reached the periodic seam."""
    seam = max(stream.last_rho[0], stream.last_rho[-1])
    if seam > 1e-20:
        raise ValueError(f"packet reached domain boundary (seam density {seam:.3g})")
    return summarize(stream.columns())


def _run_group(spec: SweepSpec, grid: Grid1D, times: dict) -> dict:
    """Run the rows of one group along one trajectory: {epsilon: summary or error}.

    times maps each row's epsilon to its time grid (`SweepSpec.time_grid`).  The
    rows' step factors are equal byte for byte, so the state after step i of the
    longest row is the state each row would reach alone after its own step i.
    The run observes the union of the rows' steps, step 0 included, and each
    row's `Diagnostics` takes the state's transform at the row's own t = i*dt
    and hbar, every `stride` steps up to the row's n_steps; then the row is
    summarized and its consumer freed.
    The live consumers split one CHUNK_POINTS block budget.
    A ValueError of one row fails that row only; one of the step loop fails
    the rows still running.
    """
    outcomes, sizes = {}, {}
    for eps, (_, _, n_steps, stride) in times.items():
        n_rows = n_steps // stride + 1
        if n_rows < 3:
            outcomes[eps] = f"{n_rows} samples leave no centred difference"
        else:
            sizes[eps] = n_rows
    if not sizes:
        return outcomes
    block_points = CHUNK_POINTS // len(sizes)
    streams = {eps: Diagnostics(grid, n_rows, spec.reg_floor, block_points=block_points)
               for eps, n_rows in sizes.items()}
    params = {eps: PhysicalParams(hbar=times[eps][0], mass=spec.mass) for eps in streams}
    longest = max(streams, key=lambda eps: times[eps][2])

    def on_row(i: int, psi, psi_hat) -> None:
        for eps, stream in list(streams.items()):
            _, dt, n_steps, stride = times[eps]
            if i % stride:
                continue
            try:
                stream.add_state(wf.t + i * dt, psi, params[eps], psi_hat)
                if i < n_steps:
                    continue
                outcomes[eps] = _finish(stream)
            except ValueError as exc:
                outcomes[eps] = str(exc)
            del streams[eps]

    _, dt_longest, steps_longest, _ = times[longest]
    observed = set().union(*(range(0, times[eps][2] + 1, times[eps][3]) for eps in streams))
    try:
        wf = init_gaussian(grid, params[longest], sigma0=spec.L_c, x0=spec.x0, k0=spec.k0)
        split_steps(wf, Potential.free(), dt_longest, steps_longest, on_row, sorted(observed))
    except ValueError as exc:
        outcomes.update(dict.fromkeys(streams, str(exc)))
    return outcomes


def _row(spec: SweepSpec, eps: float, time_grid: tuple, outcome) -> SweepRow:
    """The row at eps from its time grid and its summary or error message."""
    hbar, dt, n_steps, _ = time_grid
    params = PhysicalParams(hbar=hbar, mass=spec.mass)
    oracle = GaussianOracle(sigma0=spec.L_c, x0=spec.x0, k0=spec.k0, params=params)
    expected = oracle.entropy(spec.t_c) - oracle.entropy(0.0)
    common = dict(epsilon=eps, hbar=hbar, dt=dt, n_steps=n_steps, delta_I_expected=expected)
    if isinstance(outcome, str):
        nan = float("nan")
        return SweepRow(**common, delta_I=nan, residual13_l2_max=nan,
                        eq16_rel_err=nan, sign_fraction=nan, error=outcome)
    return SweepRow(
        **common,
        delta_I=outcome["delta_I"],
        residual13_l2_max=outcome["max_residual13_l2"],
        eq16_rel_err=outcome["eq16_rel_err"],
        sign_fraction=outcome["sign_witness_fraction"],
    )


def run_sweep(spec: SweepSpec, max_workers: int = 1) -> SweepReport:
    """Run one free simulation per epsilon (descending) and fit delta_I ~ eps^p.

    Rows whose step factors (`step_factors`) are equal byte for byte form a
    group and share one trajectory: every row's states are a prefix of the
    longest row's, so the group runs that row's steps once and each row
    observes them (`_run_group`).  Sharing changes no bit: each row's values
    are those it would have run alone.  Groups run one after another in the
    calling thread; max_workers must be 1.  Failed rows carry an error
    string and are excluded from the fit; the sweep continues past them.
    """
    if max_workers != 1:
        raise ValueError(f"the sweep runs serially: max_workers must be 1, got {max_workers}")
    grid = Grid1D(spec.x_min, spec.x_max, spec.n)
    times = {eps: spec.time_grid(eps) for eps in spec.epsilons}
    groups = {}
    for eps, (hbar, dt, _, _) in times.items():
        factors = step_factors(grid, PhysicalParams(hbar=hbar, mass=spec.mass),
                               Potential.free(), dt)
        groups.setdefault(b"".join(f.tobytes() for f in factors), {})[eps] = times[eps]
    outcomes = {}
    for group in groups.values():
        outcomes.update(_run_group(spec, grid, group))
    rows = [_row(spec, eps, times[eps], outcomes[eps]) for eps in spec.epsilons]
    good = [r for r in rows if not r.error and r.delta_I > 0.0]
    if len(good) >= 2:
        exponent = float(
            np.polyfit(
                np.log([r.epsilon for r in good]),
                np.log([r.delta_I for r in good]),
                1,
            )[0]
        )
    else:
        exponent = float("nan")
    return SweepReport(rows=rows, exponent=exponent)

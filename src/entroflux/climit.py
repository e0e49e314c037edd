"""Classical-limit sweep over the dimensionless parameter eps = hbar*t_c/(m*L_c^2).

eps is realized by scaling hbar with m, L_c (the initial packet width) and t_c
fixed, so grid and time-step economics stay put.  The sweep observable is the
entropy change over [0, t_c] of a free Gaussian packet; for that scenario the
closed form is delta_I = 0.5*ln(1 + eps^2/4), vanishing quadratically as
eps -> 0.  The per-step kinetic phase is held eps-independent by scaling
dt ~ 1/hbar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import collect, diagnose, summarize
# SpecError is re-exported: an invalid SweepSpec raises it
from .grid import Grid1D, PhysicalParams, SpecError, about, positive, step_count
from .oracle import GaussianOracle
from .propagate import Potential, check_dt, check_wavenumber, check_width, init_gaussian


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
                    for key in ("t_c", "L_c", "mass", "dt_ref", "n_samples", "reg_floor")})
        grid = Grid1D(self.x_min, self.x_max, self.n)
        with about("L_c", "n", "x_max", "x_min"):
            check_width(grid, self.L_c)
        with about("x0", "x_min", "x_max"):
            grid.check_inside("x0", self.x0)
        with about("k0"):
            check_wavenumber(grid, self.L_c, self.k0)
        with about("dt_ref"):
            for e in eps:
                hbar, dt, _, _ = self.time_grid(e)
                check_dt(grid, PhysicalParams(hbar=hbar, mass=self.mass), dt)

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


def _run_one(spec: SweepSpec, eps: float) -> SweepRow:
    hbar, dt, n_steps, stride = spec.time_grid(eps)
    params = PhysicalParams(hbar=hbar, mass=spec.mass)
    grid = Grid1D(spec.x_min, spec.x_max, spec.n)
    oracle = GaussianOracle(sigma0=spec.L_c, x0=spec.x0, k0=spec.k0, params=params)
    expected = oracle.entropy(spec.t_c) - oracle.entropy(0.0)
    common = dict(epsilon=eps, hbar=hbar, dt=dt, n_steps=n_steps, delta_I_expected=expected)
    try:
        wf = init_gaussian(grid, params, sigma0=spec.L_c, x0=spec.x0, k0=spec.k0)
        series = collect(wf, Potential.free(), dt, n_steps, stride, spec.reg_floor)
        if len(series.t) < 3:
            raise ValueError(f"{len(series.t)} samples leave no centred difference")
        seam = max(series.rho[-1, 0], series.rho[-1, -1])
        if seam > 1e-20:
            raise ValueError(f"packet reached domain boundary (seam density {seam:.3g})")
        summary = summarize(diagnose(series))
    except ValueError as exc:
        nan = float("nan")
        return SweepRow(**common, delta_I=nan, residual13_l2_max=nan,
                        eq16_rel_err=nan, sign_fraction=nan, error=str(exc))
    return SweepRow(
        **common,
        delta_I=summary["delta_I"],
        residual13_l2_max=summary["max_residual13_l2"],
        eq16_rel_err=summary["eq16_rel_err"],
        sign_fraction=summary["sign_witness_fraction"],
    )


def run_sweep(spec: SweepSpec, max_workers: int = 1) -> SweepReport:
    """Run one simulation per epsilon (descending) and fit delta_I ~ eps^p.

    Rows run one after another in the calling thread; max_workers must be 1.
    Failed rows carry an error string and are excluded from the fit; the sweep
    continues past them.
    """
    if max_workers != 1:
        raise ValueError(f"the sweep runs serially: max_workers must be 1, got {max_workers}")
    rows = [_run_one(spec, e) for e in spec.epsilons]
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

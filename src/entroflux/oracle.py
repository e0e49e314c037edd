"""Closed-form reference solutions for oracle-vs-numeric comparisons.

Two analytic families:
  * free spreading Gaussian packet: sigma^2(t) = sigma0^2 (1 + (hbar t / 2 m sigma0^2)^2)
  * harmonic coherent state: rigid Gaussian of width sigma^2 = hbar/(2 m omega)
    whose center oscillates, so its entropy is exactly constant.

Fields are evaluated pointwise on the caller's grid, into a diagnostics block for
`report.run_oracle`, so comparisons against the simulator are sample-exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import DEFAULT_REG_FLOOR, Series, Snapshot
from .grid import Grid1D, PhysicalParams, SpecError, check_positive


def _normal_density(x: np.ndarray, center: float, sigma2: float) -> np.ndarray:
    return np.exp(-((x - center) ** 2) / (2.0 * sigma2)) / np.sqrt(2.0 * np.pi * sigma2)


class _Oracle:
    """Closed-form rho and v at time t of a Gaussian packet of variance sigma2(t)."""

    def entropy(self, t: float = 0.0) -> float:
        """I of the density at time t: 1/2 ln(2 pi e sigma2(t)) + 1."""
        return 0.5 * np.log(2.0 * np.pi * np.e * self.sigma2(t)) + 1.0

    def fields(
        self, grid: Grid1D, t: float, reg_floor: float = DEFAULT_REG_FLOOR
    ) -> Snapshot:
        """The fields at time t: rho and v, j = rho v, and rho_I of rho."""
        rho, v = self.density_velocity(grid, t)
        return Series.of(grid, [t], rho[np.newaxis], (rho * v)[np.newaxis], v[np.newaxis], 0,
                         reg_floor).snapshot(0)


@dataclass(frozen=True)
class GaussianOracle(_Oracle):
    """Free Gaussian packet with initial width sigma0, center x0, wavenumber k0."""

    sigma0: float
    x0: float = 0.0
    k0: float = 0.0
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        check_positive("sigma0", self.sigma0)

    def sigma2(self, t: float) -> float:
        h, m = self.params.hbar, self.params.mass
        spread = h * t / (2.0 * m * self.sigma0**2)
        return self.sigma0**2 * (1.0 + spread**2)

    def dsigma2_dt(self, t: float) -> float:
        h, m = self.params.hbar, self.params.mass
        return h**2 * t / (2.0 * m**2 * self.sigma0**2)

    def center(self, t: float) -> float:
        return self.x0 + self.params.hbar * self.k0 * t / self.params.mass

    def entropy_rate(self, t: float) -> float:
        return self.dsigma2_dt(t) / (2.0 * self.sigma2(t))

    def density_velocity(self, grid: Grid1D, t: float) -> tuple[np.ndarray, np.ndarray]:
        s2 = self.sigma2(t)
        xc = self.center(t)
        rho = _normal_density(grid.x, xc, s2)
        drift = self.params.hbar * self.k0 / self.params.mass
        v = drift + (grid.x - xc) * self.dsigma2_dt(t) / (2.0 * s2)
        return rho, v


@dataclass(frozen=True)
class CoherentOracle(_Oracle):
    """Harmonic-oscillator coherent state: rigidly transported Gaussian."""

    omega: float
    amplitude: float
    params: PhysicalParams = field(default_factory=PhysicalParams)

    def __post_init__(self):
        check_positive("omega", self.omega)

    def sigma2(self, t: float = 0.0) -> float:
        return self.params.hbar / (2.0 * self.params.mass * self.omega)

    def center(self, t: float) -> float:
        return self.amplitude * np.cos(self.omega * t)

    def entropy_rate(self, t: float = 0.0) -> float:
        return 0.0

    def density_velocity(self, grid: Grid1D, t: float) -> tuple[np.ndarray, np.ndarray]:
        rho = _normal_density(grid.x, self.center(t), self.sigma2(t))
        v = np.full(grid.n, -self.amplitude * self.omega * np.sin(self.omega * t))
        return rho, v


def closed_form(cfg) -> _Oracle:
    """The closed-form oracle of a run config's scenario.

    Two scenarios have one: a gaussian initial state under the free potential,
    and a coherent state under its own harmonic well (potential_omega = omega,
    potential_center = 0).  Any other raises a SpecError naming the key at
    fault, or `initial` where that key keeps its default.
    """
    pot = cfg.potential
    if cfg.initial_kind == "gaussian":
        if pot.kind != "free":
            raise SpecError("oracle for a gaussian initial state requires potential = free",
                            ("potential",))
        return GaussianOracle(sigma0=cfg.sigma0, x0=cfg.x0, k0=cfg.k0, params=cfg.params)
    if pot.kind != "harmonic":
        raise SpecError("oracle for a coherent state requires potential = harmonic",
                        ("potential", "initial"))
    if pot.omega != cfg.omega:
        raise SpecError(f"oracle for a coherent state requires potential_omega = omega "
                        f"= {cfg.omega}, got {pot.omega}", ("potential_omega", "omega"))
    if pot.x0 != 0.0:
        raise SpecError(f"oracle for a coherent state requires potential_center = 0, "
                        f"got {pot.x0}", ("potential_center",))
    return CoherentOracle(omega=cfg.omega, amplitude=cfg.x0, params=cfg.params)

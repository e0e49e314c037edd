"""Hydrodynamic fields of the wavefunction: density, current, velocity, phase.

The decomposition psi = sqrt(rho) exp(i S / hbar) gives a velocity field
v = S'/m, which we evaluate as j/rho (with a density floor) to avoid
branch-cut artifacts of the unwrapped phase in low-density regions.  The
unwrapped phase is retained as a cross-check only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField, derivative
from .propagate import WaveFunction

DEFAULT_REG_FLOOR = 1e-12


@dataclass(frozen=True)
class DensityFields:
    """Madelung snapshot of one wavefunction: rho, j, v."""

    t: float
    rho: RealField
    current: RealField
    velocity: RealField
    floored_points: int


def density(wf: WaveFunction) -> RealField:
    """rho = |psi|^2."""
    return RealField(wf.grid, np.abs(wf.psi.values) ** 2)


def current(wf: WaveFunction) -> RealField:
    """Probability current j = (hbar/m) Im(psi* dpsi/dx), spectral derivative."""
    return RealField(wf.grid, madelung_arrays(wf)[1])


def madelung_arrays(
    wf: WaveFunction, reg_floor: float = DEFAULT_REG_FLOOR
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """rho, j and v = j/rho (0 where rho < reg_floor) from one FFT pair.

    Returns the three arrays and the count of floored points.
    """
    if not reg_floor > 0.0:
        raise ValueError(f"reg_floor must be positive, got {reg_floor}")
    psi = wf.psi.values
    rho = np.abs(psi) ** 2
    j = (wf.params.hbar / wf.params.mass) * np.imag(np.conj(psi) * derivative(wf.psi).values)
    mask = rho >= reg_floor
    v = np.zeros_like(rho)
    v[mask] = j[mask] / rho[mask]
    return rho, j, v, int(np.count_nonzero(~mask))


def velocity(
    wf: WaveFunction, reg_floor: float = DEFAULT_REG_FLOOR
) -> tuple[RealField, int]:
    """Bohmian velocity v = j/rho where rho >= reg_floor, 0 elsewhere.

    Returns the field and the count of floored points.
    """
    _, _, v, floored = madelung_arrays(wf, reg_floor)
    return RealField(wf.grid, v), floored


def phase_unwrap(wf: WaveFunction, reg_floor: float = DEFAULT_REG_FLOOR) -> RealField:
    """Unwrapped phase S = hbar * arg(psi) on the connected support rho >= reg_floor.

    S is continuous (no 2*pi*hbar jumps) on the support, fixed so that
    S(density peak) lies in [0, 2*pi*hbar), and set to zero off support.
    Raises if the support above the floor is disconnected (mod the wrap).
    """
    hbar = wf.params.hbar
    rho = np.abs(wf.psi.values) ** 2
    mask = rho >= reg_floor
    if not mask.any():
        raise ValueError("phase not unwrappable: no density above floor")
    n = wf.grid.n
    transitions = int(np.count_nonzero(mask != np.roll(mask, 1)))
    if transitions > 2:
        raise ValueError("phase not unwrappable: support above floor is disconnected")
    if transitions == 0:
        block = np.arange(n)
    else:
        # single connected run, possibly wrapping the seam
        starts = np.flatnonzero(mask & ~np.roll(mask, 1))
        start = int(starts[0])
        count = int(np.count_nonzero(mask))
        block = (start + np.arange(count)) % n
    s = hbar * np.unwrap(np.angle(wf.psi.values[block]))
    peak = int(np.argmax(rho[block]))
    two_pi_h = 2.0 * np.pi * hbar
    s -= two_pi_h * np.floor(s[peak] / two_pi_h)
    out = np.zeros(n)
    out[block] = s
    return RealField(wf.grid, out)


def fields(wf: WaveFunction, reg_floor: float = DEFAULT_REG_FLOOR) -> DensityFields:
    """Assemble all Madelung fields of one snapshot."""
    rho, j, v, floored = madelung_arrays(wf, reg_floor)
    return DensityFields(
        t=wf.t,
        rho=RealField(wf.grid, rho),
        current=RealField(wf.grid, j),
        velocity=RealField(wf.grid, v),
        floored_points=floored,
    )

"""Hydrodynamic fields of the wavefunction: density, current and velocity.

The decomposition psi = sqrt(rho) exp(i S / hbar) gives a velocity field
v = S'/m, which we evaluate as j/rho (with a density floor) to avoid
branch-cut artifacts of the unwrapped phase in low-density regions.
"""
from __future__ import annotations

import numpy as np

from .grid import PhysicalParams, RealField, check_positive
from .propagate import WaveFunction

DEFAULT_REG_FLOOR = 1e-12


def density(wf: WaveFunction) -> RealField:
    """rho = |psi|^2."""
    return RealField(wf.grid, np.abs(wf.psi) ** 2)


def madelung_arrays(
    psi: np.ndarray,
    dpsi: np.ndarray,
    params: PhysicalParams,
    reg_floor: float = DEFAULT_REG_FLOOR,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rho, the current j = (hbar/m) Im(psi* dpsi/dx) and v = j/rho of a (B, n) psi stack.

    The one computation of these fields.  dpsi is dpsi/dx (`grid._state_derivative`
    of the states' transforms), and is overwritten; each row's values are those
    of the row taken alone.  v is 0 where rho < reg_floor; the per-row counts
    of those floored points are returned last.
    """
    check_positive("reg_floor", reg_floor)
    rho = np.abs(psi) ** 2
    conj = np.conj(psi)
    # np.multiply keeps the operand order fixed: numpy may swap the operands
    # of `a * temporary` on large arrays, and the complex product's last bit
    # depends on that order.  The product takes the derivative's place.
    j = (params.hbar / params.mass) * np.imag(np.multiply(conj, dpsi, out=dpsi))
    mask = rho >= reg_floor
    v = np.zeros_like(rho)
    np.divide(j, rho, out=v, where=mask)
    return rho, j, v, np.count_nonzero(~mask, axis=-1)

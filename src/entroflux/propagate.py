"""Split-step Fourier propagator for the 1-D time-dependent Schrödinger equation.

    i*hbar dpsi/dt = -(hbar^2 / 2m) psi'' + V(x) psi

Second-order Strang splitting: half potential kick, full kinetic step in
Fourier space, half potential kick.  Norm-exact by construction (every factor
is unit-modulus and the FFT pair preserves the discrete 2-norm).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import ComplexField, Grid1D, PhysicalParams, check_positive, fft, ifft


@dataclass(frozen=True)
class Potential:
    """Static potential: free, harmonic well, or Gaussian barrier."""

    kind: str
    omega: float = 0.0
    x0: float = 0.0
    height: float = 0.0
    width: float = 0.0
    center: float = 0.0

    @staticmethod
    def free() -> "Potential":
        return Potential(kind="free")

    @staticmethod
    def harmonic(omega: float, x0: float = 0.0) -> "Potential":
        check_positive("omega", omega)
        return Potential(kind="harmonic", omega=omega, x0=x0)

    @staticmethod
    def gaussian_barrier(height: float, width: float, center: float = 0.0) -> "Potential":
        check_positive("barrier width", width)
        return Potential(kind="gaussian_barrier", height=height, width=width, center=center)

    def values(self, x: np.ndarray, mass: float = 1.0) -> np.ndarray:
        """V(x).  omega and width are squared in float64, so a square that
        overflows is inf: a harmonic V is then inf (or nan at its centre), a
        barrier's V its height everywhere."""
        with np.errstate(over="ignore"):
            omega2, width2 = np.float64(self.omega) ** 2, np.float64(self.width) ** 2
        if self.kind == "free":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return 0.5 * mass * omega2 * (x - self.x0) ** 2
        if self.kind == "gaussian_barrier":
            return self.height * np.exp(-((x - self.center) ** 2) / (2.0 * width2))
        raise ValueError(f"unknown potential kind {self.kind!r}")


@dataclass(frozen=True)
class WaveFunction:
    grid: Grid1D
    params: PhysicalParams
    psi: ComplexField
    t: float = 0.0

    def __post_init__(self):
        check_norms(self.norm())

    def norm(self) -> float:
        return float(self.grid.dx * np.sum(np.abs(self.psi.values) ** 2))


def check_norms(norms) -> None:
    """Raise unless every norm is finite and within 1e-8 of 1.

    A non-finite norm means a non-finite psi, which `ComplexField` rejects with
    the same message; the norm check is the one `WaveFunction` runs.
    """
    norms = np.atleast_1d(norms)
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite field")
    off = np.abs(norms - 1.0) > 1e-8
    if np.any(off):
        raise ValueError(f"wavefunction not normalized: norm = {float(norms[off][0])!r}")


def init_gaussian(
    grid: Grid1D,
    params: PhysicalParams,
    sigma0: float,
    x0: float = 0.0,
    k0: float = 0.0,
) -> WaveFunction:
    """Normalized Gaussian packet (2 pi sigma0^2)^(-1/4) exp(-(x-x0)^2/4sigma0^2 + i k0 x)."""
    check_width(grid, sigma0)
    check_wavenumber(grid, sigma0, k0)
    x = grid.x
    psi = (2.0 * np.pi * sigma0**2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (4.0 * sigma0**2) + 1j * k0 * x
    )
    psi /= np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
    return WaveFunction(grid=grid, params=params, psi=ComplexField(grid, psi), t=0.0)


def check_width(grid: Grid1D, sigma0: float) -> None:
    """Raise unless 3*dx < sigma0 and 4*sigma0 is below half the domain length."""
    if not sigma0 > 3.0 * grid.dx:
        raise ValueError(
            f"grid too coarse: packet width {sigma0:.6g} must exceed "
            f"3*dx = {3.0 * grid.dx:.6g}"
        )
    if not 4.0 * sigma0 < 0.5 * grid.length:
        raise ValueError(
            f"packet too wide: 4*width = {4.0 * sigma0:.6g} must be below the "
            f"domain half-width {0.5 * grid.length:.6g}"
        )


def check_wavenumber(grid: Grid1D, sigma0: float, k0: float) -> None:
    """Raise unless |k0| + 3/sigma0 < k_max: the packet's momentum density, of
    standard deviation 1/(2 sigma0), fits on the grid to six deviations."""
    top = abs(k0) + 3.0 / sigma0
    if not top < grid.k_max:
        raise ValueError(f"k0 = {k0} is not resolved: |k0| + 3/sigma0 = {top:.6g} "
                         f"must be below the grid's k_max = pi/dx = {grid.k_max:.6g}")


def kinetic_phase(grid: Grid1D, params: PhysicalParams, dt: float) -> float:
    """Kinetic phase advance of the Nyquist mode per step, |dt| hbar k_max^2 / 2m."""
    return abs(dt) * params.hbar * grid.k_max**2 / (2.0 * params.mass)


def check_dt(grid: Grid1D, params: PhysicalParams, dt: float) -> None:
    if dt == 0.0:
        raise ValueError("time step must be nonzero")
    phase = kinetic_phase(grid, params, dt)
    if not phase < np.pi:
        raise ValueError(
            f"time step too large: |dt|*hbar*k_max^2/(2m) = {phase:.6g} >= pi"
        )


def check_potential(grid: Grid1D, params: PhysicalParams, potential: Potential,
                    dt: float) -> None:
    """Raise unless the potential's phase per step, V(x)*dt/hbar, is finite on the grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = potential.values(grid.x, mass=params.mass)
        phase *= dt
        phase /= params.hbar
        if not np.isfinite(phase).all():
            raise ValueError("V(x)*dt/hbar, the potential's phase per step, overflows on "
                             "the grid")


def step(wf: WaveFunction, potential: Potential, dt: float) -> WaveFunction:
    """One Strang split step.  Local error O(dt^3); norm preserved to roundoff."""
    return evolve(wf, potential, dt, 1)


def step_factors(grid: Grid1D, params: PhysicalParams, potential: Potential,
                 dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The factors of a Strang step of dt: the half kick exp(-i V dt / 2 hbar)
    on the grid and the kinetic step exp(-i hbar k^2 dt / 2m) on its wavenumbers.

    `split_steps` applies these arrays and nothing else (a half kick equal to
    1 everywhere it skips), so two runs from one state on one grid whose
    factors are equal byte for byte make the same states.
    """
    hbar, m = params.hbar, params.mass
    v = potential.values(grid.x, mass=m)
    exp_v_half = np.exp(-0.5j * v * dt / hbar)
    exp_t = np.exp(-0.5j * hbar * grid.k**2 * dt / m)
    return exp_v_half, exp_t


def split_steps(
    wf: WaveFunction,
    potential: Potential,
    dt: float,
    n_steps: int,
    on_row=None,
    stride: int = 1,
) -> np.ndarray:
    """Apply n_steps Strang split steps to wf.psi and return the final psi array.

    Each step is a half potential kick, a kinetic step in Fourier space and
    another half kick, with the factors of `step_factors` computed once per
    call.  A half kick equal to 1 everywhere, as a free potential's is, is
    not applied: multiplying by it changes no nonzero value.  The loop
    allocates no array: psi lives in buffer `a`, its transform in buffer `b`,
    and every product and transform writes into one of them (`out=`).
    on_row(i, psi) is called after every `stride`-th step i with a copy of the
    state at t = wf.t + i*dt, so the loop never writes to an array it has
    passed out.

    The complex product's last bit depends on the order of its operands, and
    numpy evaluates the expression `exp_t * fft(psi)` as
    `fft(psi) * exp_t` once the transform's temporary reaches 256 KiB (it
    reuses the temporary and swaps the operands).  The kinetic product keeps
    the order that expression has at this grid size, so the states are those
    of the expression loop bit for bit.
    """
    if n_steps == 0:
        return wf.psi.values
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    check_dt(wf.grid, wf.params, dt)
    check_potential(wf.grid, wf.params, potential, dt)
    exp_v_half, exp_t = step_factors(wf.grid, wf.params, potential, dt)
    kick = not (exp_v_half == 1).all()
    a, b = np.empty_like(wf.psi.values), np.empty_like(wf.psi.values)
    kinetic = (b, exp_t) if b.nbytes >= 256 * 1024 else (exp_t, b)
    psi = wf.psi.values
    for i in range(1, n_steps + 1):
        if kick:
            psi = np.multiply(exp_v_half, psi, out=a)
        fft(psi, out=b)
        np.multiply(*kinetic, out=b)
        psi = ifft(b, out=a)
        if kick:
            np.multiply(exp_v_half, psi, out=psi)
        if on_row is not None and i % stride == 0:
            on_row(i, psi.copy())
    return psi


def evolve(
    wf: WaveFunction,
    potential: Potential,
    dt: float,
    n_steps: int,
    observer=None,
    stride: int = 1,
) -> WaveFunction:
    """Apply n_steps Strang split steps; call observer(wf) after every `stride` steps."""
    if n_steps == 0:
        return wf

    def state(i: int, psi: np.ndarray) -> WaveFunction:
        return replace(wf, psi=ComplexField(wf.grid, psi), t=wf.t + i * dt)

    on_row = None if observer is None else (lambda i, psi: observer(state(i, psi)))
    return state(n_steps, split_steps(wf, potential, dt, n_steps, on_row, stride))

"""Split-step Fourier propagator for the 1-D time-dependent Schrödinger equation.

    i*hbar dpsi/dt = -(hbar^2 / 2m) psi'' + V(x) psi

Second-order Strang splitting: half potential kick, full kinetic step in
Fourier space, half potential kick.  Norm-exact by construction (every factor
is unit-modulus and the FFT pair preserves the discrete 2-norm).  A free run
has no kicks, so it stays in Fourier space, reaches each step it needs by
products of the kinetic factors of dt times powers of two, and writes each
state it observes, as its transform, into a block buffer of its caller's
(`split_steps`).  A kicked run steps its one state buffer in place, with
single-row transforms below `grid.FOUR_STEP_POINTS` points and four-step FFTs
(`grid.FourStep`) from it, whose spectrum, and kinetic factor, stay in
transposed order, in buffers whose rows are padded by one point.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from .grid import (FOUR_STEP_POINTS, FourStep, Grid1D, PhysicalParams, check_length,
                   check_positive, fft, ifft)


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


@dataclass(frozen=True, eq=False)  # psi is an array: a state equals itself only
class WaveFunction:
    """A state at time t: psi, made a read-only complex array on the grid, of norm 1."""

    grid: Grid1D
    params: PhysicalParams
    psi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        check_length(self.grid, psi)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        check_norms(self.norm())

    def norm(self) -> float:
        return float(self.grid.dx * np.sum(np.abs(self.psi) ** 2))


def check_norms(norms) -> None:
    """Raise unless every norm is finite ("non-finite field") and within 1e-8 of 1."""
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
    return WaveFunction(grid=grid, params=params, psi=psi, t=0.0)


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


def step(wf: WaveFunction, potential: Potential, dt: float) -> WaveFunction:
    """One Strang split step.  Local error O(dt^3); norm preserved to roundoff."""
    return evolve(wf, potential, dt, 1)


def half_kick(grid: Grid1D, params: PhysicalParams, potential: Potential,
              dt: float) -> np.ndarray | None:
    """The half kick of a Strang step of dt, exp(-i V dt / 2 hbar) on the grid,
    which `split_steps` applies, or None where it is 1 at every grid point: a
    V that is 0 on the grid gives None at any hbar, and no kick is built.
    Raises unless the kick is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = potential.values(grid.x, mass=params.mass)
        if not v.any():
            return None
        kick = np.exp(-0.5j * v * dt / params.hbar)
    if not np.isfinite(kick).all():
        raise ValueError("exp(-i V dt / 2 hbar), the half kick per step, is not finite "
                         "on the grid")
    return None if (kick == 1).all() else kick


def kinetic_factor(grid: Grid1D, params: PhysicalParams, dt: float) -> np.ndarray:
    """The kinetic step exp(-i hbar k^2 dt / 2m) on the grid's wavenumbers.
    Raises unless it is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.exp(-0.5j * params.hbar * grid.k**2 * dt / params.mass)
    if not np.isfinite(factor).all():
        raise ValueError("exp(-i hbar k^2 dt / 2m), the kinetic factor per step, is not "
                         "finite on the grid")
    return factor


def split_steps(
    wf: WaveFunction,
    potential: Potential,
    dt: float,
    observe_at,
    rows: np.ndarray,
    on_block,
) -> None:
    """Apply Strang split steps to wf.psi up to the last step of observe_at,
    and write each state it observes into rows.

    Each step is a half potential kick, a kinetic step in Fourier space and
    another half kick, with the `half_kick` and the `kinetic_factor` made
    once per call.  observe_at is a non-empty, strictly ascending iterable of
    steps from 0 (the initial state) on.  The loop copies the state at
    t = wf.t + i*dt of each step i of it into the next row of rows, an (h, n)
    complex buffer that the caller owns, and once the h rows are filled, or
    the last step observed, it calls on_block(steps, spectral) with the int64
    steps of the filled rows, rows[:len(steps)].  A free run holds the state
    in Fourier space and writes its transform psi_hat = fft(psi) (spectral
    True); a kicked run writes psi (spectral False).  The rows are the
    consumer's until on_block returns, and the next block starts again at
    rows[0].  The loop allocates no array and makes no Python call per
    observed row beyond the one that reaches its step.

    `half_kick` is None where the half kick is 1 at every grid point, as it
    is for a V that is 0 on the grid.  That leaves only the kinetic step, so
    i steps are one product by the kinetic factor of i*dt (Feit, Fleck &
    Steiger, J. Comput. Phys. 47, 412, 1982).  psi's transform psi_hat_0 is
    taken once, and the transform at step i is psi_hat_0 * F_b1 * F_b2 * ...
    over the set bits b1 > b2 > ... of i, where F_b is the `kinetic_factor`
    of 2**b * dt, an exact multiple of dt (exponentiation by squaring, Knuth,
    TAOCP Vol. 2, 4.6.3); each product takes the state as its first operand
    and the factor as its second.  Each bit level that an observed step sets
    holds F_b and a buffer for the partial product of the bits at or above
    it, and reaching step i recomputes only the levels below the highest bit
    in which i differs from the step it reached last: one product per set
    bit there.  So the state at step i depends on i alone, and a run observed
    at every step takes one product per step.

    The kicked loop copies psi once into its state buffer `a` and steps it in
    place; it allocates no array per step.  Below `grid.FOUR_STEP_POINTS`
    points its transforms are `fft` and `ifft` into `a`.  From it they are a
    `grid.FourStep`'s `forward` and `inverse`, and `a` is the split's padded
    buffer (`FourStep.pad`), as are the half kick and the kinetic factor, the
    latter in the spectrum's transposed order, so every product runs over the
    whole buffer; the loop copies each observed state out of a's (n1, n2)
    view.  The complex product's last bit depends on the order of its
    operands: the kinetic product takes the factor first below the
    threshold, as the expression `exp_t * fft(psi)` does there, and the state
    first from it.
    """
    steps = np.fromiter(observe_at, dtype=np.int64)
    if not (steps.size and 0 <= steps[0] and (np.diff(steps) > 0).all()):
        raise ValueError("observation steps must be given, from step 0 on, strictly ascending")
    grid, params = wf.grid, wf.params
    check_dt(grid, params, dt)
    exp_v_half = half_kick(grid, params, potential, dt)
    done = 0
    shape = (grid.n,)  # of the state reach returns
    spectral = exp_v_half is None
    if spectral:
        exp_t = kinetic_factor(grid, params, dt)
        b = fft(wf.psi)
        used = int(np.bitwise_or.reduce(steps))
        levels = used.bit_length()
        factors = [exp_t] + [kinetic_factor(grid, params, (1 << level) * dt)
                             if used >> level & 1 else None for level in range(1, levels)]
        buffers = [np.empty_like(b) if used >> level & 1 else None for level in range(levels)]
        # partials[j]: psi_hat_0 times the factors of the set bits >= j of step `done`
        partials = [b] * (levels + 1)

        def reach(i: int) -> np.ndarray:
            nonlocal done
            top = (i ^ done).bit_length()
            psi_hat = partials[top]
            for level in range(top - 1, -1, -1):
                if i >> level & 1:
                    # a positional out skips keyword parsing
                    psi_hat = np.multiply(psi_hat, factors[level], buffers[level])
                partials[level] = psi_hat
            done = i
            return psi_hat
    else:
        if grid.n >= FOUR_STEP_POINTS:
            split = FourStep(grid.n)
            exp_v_half = split.pad(exp_v_half)
            exp_t = split.order(kinetic_factor(grid, params, dt))
            a = split.pad(wf.psi)
            x = split.view(a)
            shape = x.shape
            forward, inverse, kinetic = split.forward, split.inverse, (a, exp_t)
        else:
            exp_t = kinetic_factor(grid, params, dt)
            a = x = wf.psi.copy()
            forward, inverse, kinetic = partial(fft, out=a), partial(ifft, out=a), (exp_t, a)

        def reach(i: int) -> np.ndarray:
            nonlocal done
            for _ in range(i - done):
                np.multiply(exp_v_half, a, out=a)
                forward(a)
                np.multiply(*kinetic, out=a)
                inverse(a)
                np.multiply(exp_v_half, a, out=a)
            done = i
            return x
    # one view per buffer row, in the shape of the state, made once
    block = list(rows.reshape(-1, *shape, copy=False))
    for lo in range(0, len(steps), len(block)):
        filled = steps[lo : lo + len(block)]
        for row, i in zip(block, filled.tolist()):
            row[...] = reach(i)  # a copy in C: np.copyto calls a Python dispatcher
        on_block(filled, spectral)


def evolve(
    wf: WaveFunction,
    potential: Potential,
    dt: float,
    n_steps: int,
    observer=None,
    stride: int = 1,
) -> WaveFunction:
    """Apply n_steps Strang split steps (`split_steps`); call observer(wf)
    after every `stride` steps, and return the state after the last step.

    A free run transforms its state once and steps in Fourier space, while
    each `step` takes a transform pair, so free states match chained `step`
    calls to roundoff, not bit for bit.  A kicked run's match them exactly.
    The loop writes each observed state, and the last, into a one-row buffer
    of evolve's own: a kicked state is copied out of it into its
    `WaveFunction`, and a free run's transform is taken back with `ifft`,
    which makes the new array, so both carry the bits of the Fourier-space
    loop.  Where stride divides n_steps, the state returned is the one the
    observer was given last.
    """
    if n_steps == 0:
        return wf
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    row = np.empty((1, wf.grid.n), complex)
    last = None

    def observe(steps: np.ndarray, spectral: bool) -> None:
        nonlocal last
        i = int(steps[0])
        last = replace(wf, psi=ifft(row[0]) if spectral else row[0].copy(), t=wf.t + i * dt)
        if observer is not None and i % stride == 0:
            observer(last)

    observed = () if observer is None else range(stride, n_steps, stride)
    split_steps(wf, potential, dt, chain(observed, (n_steps,)), row, observe)
    return last

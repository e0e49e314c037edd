"""Uniform periodic 1-D grid, field containers, quadrature, and derivatives,
and the input checks that report which input is at fault (`SpecError`).

All fields live on a ``Grid1D``: n equally spaced samples x_k = x_min + k*dx
with the right endpoint excluded (periodic wrap).  Quadrature is the periodic
rectangle rule, which coincides with the trapezoid rule on periodic data and
is spectrally accurate for smooth periodic fields.  Derivatives are spectral:
a real field goes through a real-input FFT pair (rfft/irfft), a state psi
through its transform psi_hat, as ifft(ik psi_hat) (`_state_derivative`).

The transforms (`fft`, `ifft`, `rfft`, `irfft`) call the pocketfft gufuncs of
`numpy.fft._pocketfft_umath`, the kernels behind `np.fft`, directly: they give
np.fft's results bit for bit along the last axis without its per-call Python
wrapper, which costs about 5 us a call against about 21 us for a complex
transform at n = 1024 (2-core Xeon, numpy 2.4.6).  The module is private to
numpy, so it is imported here, and a numpy without it fails at import.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft


class SpecError(ValueError):
    """An invalid input; `keys` names the inputs at fault, the likeliest first."""

    def __init__(self, message: str, keys: tuple):
        super().__init__(message)
        self.keys = keys


@contextmanager
def about(*keys: str):
    """Report a check failed in the enclosed block as a SpecError on keys.

    A ValueError, or an overflow or division by zero the inputs cause, is
    re-raised on keys; a SpecError keeps the keys it names.
    """
    try:
        yield
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(str(exc), keys) from exc
    except ArithmeticError as exc:
        what = "divides by zero" if isinstance(exc, ZeroDivisionError) else "overflows"
        raise SpecError(f"{keys[0]} is out of range: a value it sets {what}", keys) from exc


def check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def positive(**values) -> None:
    """check_positive each value, reported as a SpecError on its own key."""
    for key, value in values.items():
        with about(key):
            check_positive(key, value)


def step_count(steps: float) -> int:
    """steps rounded to an int; raises unless it is finite and below 2**63."""
    if not abs(steps) < 2.0**63:
        raise ValueError(f"time step too small: {steps:.6g} steps, must be below 2**63")
    return int(round(steps))


# The most work a run may take, in split steps times grid points: about half an
# hour of steps at n = 1024 or n = 16384 on one core of a 2-core Xeon.
MAX_WORK = 2**36
# The most rows a run may observe: its O(rows) scalar columns then stay under
# about 2 GB.
MAX_ROWS = 2**24
# The most grid points: a run holds about 350 B per point, so about 1.5 GB.  A free
# run also holds a factor and a buffer of `propagate.split_steps` per bit level its
# reached steps set, 32 B per point each: 432 B per point more at 2**14 - 1 steps (peak
# RSS at n = 2**16 and 2**18), about 3.4 GB in all at the 2**14 steps MAX_WORK allows.
MAX_POINTS = 2**22


def check_work(n_steps: int, n: int) -> None:
    """Raise unless n_steps steps on n grid points stay within MAX_WORK."""
    if n_steps * n > MAX_WORK:
        raise ValueError(f"time step too small: {n_steps} steps on {n} grid points exceed "
                         f"the work ceiling of 2**36 point-steps")


def check_points(n: int) -> None:
    """Raise a SpecError on n unless it is a power of two from 16 to MAX_POINTS."""
    if n < 16 or int(n) & (int(n) - 1):
        raise SpecError(f"n must be a power of two >= 16, got {n}", ("n",))
    if n > MAX_POINTS:
        raise SpecError(f"n = {n} exceeds the ceiling of 2**22 grid points", ("n",))


def check_rows(n_rows: int) -> None:
    """Raise unless n_rows observed rows stay within MAX_ROWS."""
    if n_rows > MAX_ROWS:
        raise ValueError(f"too many observed rows: {n_rows} exceed the ceiling of 2**24")


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants in natural units."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        check_positive("hbar", self.hbar)
        check_positive("mass", self.mass)


class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with n samples.

    n must be a power of two (>= 16) so the FFT-based machinery has a
    well-defined Nyquist mode, and at most MAX_POINTS.  A bad n or range raises
    a SpecError on its key before any array is made.
    """

    def __init__(self, x_min: float, x_max: float, n: int):
        check_points(n)
        if not x_max > x_min:
            raise SpecError(f"x_max must exceed x_min, got [{x_min}, {x_max})",
                            ("x_max", "x_min"))
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.n = int(n)
        self.length = self.x_max - self.x_min
        self.dx = self.length / self.n
        self.x = self.x_min + self.dx * np.arange(self.n)
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        # Derivative multiplier: the Nyquist mode of an odd-order derivative
        # is ambiguous on a real grid; set it to zero.
        ik = 1j * self.k.copy()
        ik[self.n // 2] = 0.0
        self._ik = ik
        # The same multiplier on the n//2 + 1 non-negative frequencies of rfft.
        ik_r = 2j * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        ik_r[-1] = 0.0
        self._ik_r = ik_r

    @property
    def k_max(self) -> float:
        """Magnitude of the Nyquist wavenumber, pi/dx."""
        return np.pi / self.dx

    def check_inside(self, name: str, value: float) -> None:
        if not self.x_min <= value < self.x_max:
            raise ValueError(
                f"{name} = {value} lies outside the grid [{self.x_min}, {self.x_max})"
            )

    def matches(self, other: "Grid1D") -> bool:
        return (
            self.n == other.n
            and self.x_min == other.x_min
            and self.x_max == other.x_max
        )

    def __repr__(self):
        return f"Grid1D(x_min={self.x_min}, x_max={self.x_max}, n={self.n})"


def check_length(grid: Grid1D, values: np.ndarray) -> None:
    if values.shape != (grid.n,):
        raise ValueError(f"field length {values.shape} does not match grid n={grid.n}")


class RealField:
    """Immutable sampled real field on a Grid1D."""

    def __init__(self, grid: Grid1D, values):
        values = np.asarray(values, dtype=float)
        check_length(grid, values)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite field")
        values.setflags(write=False)
        self.grid = grid
        self.values = values


def integrate(f: RealField) -> float:
    """Periodic rectangle-rule integral dx * sum(f)."""
    return float(f.grid.dx * f.values.sum())


# The transforms along the last axis.  Each passes the normalisation factor
# np.fft passes (1 forward, 1/n inverse) and, unless given one, allocates its
# output, whose length the gufunc cannot infer.
_LAST = [(-1,), (), (-1,)]


def fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.fft(a, out=out)."""
    if out is None:
        out = np.empty(a.shape, complex)
    return _pocketfft.fft(a, 1, axes=_LAST, out=out)


def ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.ifft(a, out=out)."""
    if out is None:
        out = np.empty(a.shape, complex)
    return _pocketfft.ifft(a, 1 / a.shape[-1], axes=_LAST, out=out)


def rfft(a: np.ndarray) -> np.ndarray:
    """np.fft.rfft(a) of a real a whose last axis has even length, as a grid's has."""
    shape = a.shape[:-1] + (a.shape[-1] // 2 + 1,)
    return _pocketfft.rfft_n_even(a, 1, axes=_LAST, out=np.empty(shape, complex))


def irfft(a: np.ndarray, n: int) -> np.ndarray:
    """np.fft.irfft(a, n): the n real values whose rfft is a."""
    return _pocketfft.irfft(a, 1 / n, axes=_LAST, out=np.empty(a.shape[:-1] + (n,)))


def _spectral_derivative(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Spectral d/dx of real values along the last axis, through a real-input FFT
    pair, so a (T, n) stack is one batched transform pair."""
    return irfft(np.multiply(grid._ik_r, rfft(values)), grid.n)


def _state_derivative(psi_hat: np.ndarray, grid: Grid1D) -> np.ndarray:
    """d psi/dx = ifft(ik psi_hat) along the last axis, from the states' transforms
    psi_hat, which are left as they are.  ik is purely imaginary, so ik psi_hat has the
    bits of psi_hat ik, the order numpy takes in `ik * temporary` from 256 KiB, except
    the sign of a product that underflows to zero (entries near 5e-324)."""
    dpsi = np.multiply(grid._ik, psi_hat)
    return ifft(dpsi, out=dpsi)


def derivative(f: RealField) -> RealField:
    """Spectral derivative of a periodic real field: exact for trigonometric
    polynomials below Nyquist, with the Nyquist mode of the derivative set to zero."""
    return RealField(f.grid, _spectral_derivative(f.values, f.grid))

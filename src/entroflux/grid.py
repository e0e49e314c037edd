"""Uniform periodic 1-D grid, field containers, quadrature, and derivatives,
and the input checks that report which input is at fault (`SpecError`).

All fields live on a ``Grid1D``: n equally spaced samples x_k = x_min + k*dx
with the right endpoint excluded (periodic wrap).  Quadrature is the periodic
rectangle rule, which coincides with the trapezoid rule on periodic data and
is spectrally accurate for smooth periodic fields.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


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
        raise SpecError(f"{keys[0]} is out of range: {exc}", keys) from exc


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
    well-defined Nyquist mode.  A bad n or range raises a SpecError on its key.
    """

    def __init__(self, x_min: float, x_max: float, n: int):
        if n < 16 or int(n) & (int(n) - 1):
            raise SpecError(f"n must be a power of two >= 16, got {n}", ("n",))
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


class _Field:
    """Immutable sampled field on a Grid1D."""

    _dtype: type = float

    def __init__(self, grid: Grid1D, values):
        values = np.asarray(values, dtype=self._dtype)
        if values.shape != (grid.n,):
            raise ValueError(
                f"field length {values.shape} does not match grid n={grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite field")
        values.setflags(write=False)
        self.grid = grid
        self.values = values


class RealField(_Field):
    _dtype = float


class ComplexField(_Field):
    _dtype = complex


def integrate(f: _Field) -> float:
    """Periodic rectangle-rule integral dx * sum(f)."""
    if isinstance(f, ComplexField):
        return complex(f.grid.dx * f.values.sum())
    return float(f.grid.dx * f.values.sum())


def _spectral_derivative(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Spectral d/dx along the last axis, so a (T, n) stack is one batched FFT."""
    return np.fft.ifft(grid._ik * np.fft.fft(values))


def derivative(f: _Field) -> _Field:
    """Spectral derivative of a periodic field.

    Exact for trigonometric polynomials below Nyquist, with the Nyquist mode
    of the derivative set to zero.
    """
    d = _spectral_derivative(f.values, f.grid)
    if isinstance(f, RealField):
        return RealField(f.grid, d.real)
    return ComplexField(f.grid, d)

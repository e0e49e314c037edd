"""Uniform periodic 1-D grid, field containers, quadrature, and derivatives,
and the input checks that report which input is at fault (`SpecError`).

All fields live on a ``Grid1D``: n equally spaced samples x_k = x_min + k*dx
with the right endpoint excluded (periodic wrap).  Quadrature is the periodic
rectangle rule, which coincides with the trapezoid rule on periodic data and
is spectrally accurate for smooth periodic fields.  Derivatives are spectral:
a real field goes through a real-input FFT pair (rfft/irfft), a state psi
through its transform psi_hat, as ifft(ik psi_hat) (`_state_derivative`).  An
observed state's derivative is taken relative to its carrier k_c, as
ifft(i(k - k_c) psi_hat) = d psi/dx - i k_c psi (`_carrier_derivative`): a
row whose mean wavenumber <k> is larger than its spread has k_c = <k> rounded
to a grid wavenumber, and every other row k_c = 0 and the bits of
ifft(ik psi_hat).  So the derivative of a packet that moves at k0 carries no
terms of size k0 |psi|, which Re(psi* dpsi), and so d rho/dx, would cancel.

The transforms (`fft`, `ifft`, `rfft`, `irfft`) call the pocketfft gufuncs of
`numpy.fft._pocketfft_umath`, the kernels behind `np.fft`, directly: they give
np.fft's results bit for bit along the last axis without its per-call Python
wrapper, which costs about 5 us a call against about 21 us for a complex
transform at n = 1024 (2-core Xeon, numpy 2.4.6).  The module is private to
numpy, so it is imported here, and a numpy without it fails at import.

A kicked run on n >= FOUR_STEP_POINTS points takes its transforms as a
`FourStep`: a pass over the columns of the state's (n1, n2) view, a twiddle
product and a pass over its rows, in place, with the spectrum left in the
transposed order it comes out in, and the state in a buffer whose rows are
padded by one point.  `FourStep` is the one place that knows that layout.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

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
# The most grid points: a run holds about 307 B per point in numpy arrays
# (tracemalloc's peak of a kicked run at n = 2**20, numpy 2.4.6) and about 345 B of
# peak RSS, so about 1.5 GB.  The diagnostics' window of 3 rows holds rho, j, v, rho_I,
# v drho/dx and ln rho (8 B each) and the floor mask (1 B), 147 B; the held states and
# their derivatives 32 B; the grid 32 B; the kicked loop's four complex arrays 64 B: the
# state buffer, the half kick, the kinetic factor in spectrum order and the `FourStep`
# twiddles, each padded by n1 entries, 64 n1 B in all, 128 KiB at 2**22 (below
# FOUR_STEP_POINTS three unpadded arrays, 48 B: the state buffer, the half kick and the
# kinetic factor in natural order); the initial state 16 B.  The loop copies each
# observed state into the held rows, which take no memory of their own, so the peak
# lies in a block's diagnostics (a barrier run at n = 2**20, 20 steps at stride 4,
# peaks at 275.1 B per point, 275.0 unpadded).  A free run also holds a factor and a
# buffer of `propagate.split_steps` per bit level its observed steps set, 32 B per
# point each: 432 B per point more at 2**14 - 1 steps (peak RSS at
# n = 2**16 and 2**18), about 3.4 GB in all at the 2**14 steps MAX_WORK allows.
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
    well-defined Nyquist mode, and at most MAX_POINTS.  The range's length
    and k_max = pi/dx must be finite.  A bad n or range raises a SpecError on
    its key before any array is made.
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
        # a dx of 0 fails before pi/dx divides by it
        if not (np.isfinite(self.length) and self.dx > 0.0 and np.isfinite(np.pi / self.dx)):
            raise SpecError(f"the grid [{x_min}, {x_max}) on {n} points leaves floating point: "
                            "its length and k_max = pi/dx must be finite", ("x_max", "x_min"))
        self.x = self.x_min + self.dx * np.arange(self.n)
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        # Derivative multiplier: the Nyquist mode of an odd-order derivative
        # is ambiguous on a real grid; set it to zero.
        ik = 1j * self.k.copy()
        ik[self.n // 2] = 0.0
        self._ik = ik
        # The same multiplier on the n//2 + 1 frequencies of rfft: its last, the
        # Nyquist mode, is the zero set above.
        self._ik_r = ik[: self.n // 2 + 1]
        # the spacing of the wavenumbers, to round a mean wavenumber to the grid
        self._dk = 2.0 * np.pi / self.length

    @property
    def k_max(self) -> float:
        """Magnitude of the Nyquist wavenumber, pi/dx."""
        return np.pi / self.dx

    def check_inside(self, name: str, value: float) -> None:
        """Raise a SpecError on name, and on the bound that value crosses, unless
        value lies in [x_min, x_max)."""
        if not self.x_min <= value < self.x_max:
            raise SpecError(f"{name} = {value} lies outside the grid [{self.x_min}, {self.x_max})",
                            (name, "x_min" if value < self.x_min else "x_max"))

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


def rfft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.rfft(a) of a real a whose last axis has even length, as a grid's has."""
    if out is None:
        out = np.empty(a.shape[:-1] + (a.shape[-1] // 2 + 1,), complex)
    return _pocketfft.rfft_n_even(a, 1, axes=_LAST, out=out)


def irfft(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.irfft(a, n): the n real values whose rfft is a."""
    if out is None:
        out = np.empty(a.shape[:-1] + (n,))
    return _pocketfft.irfft(a, 1 / n, axes=_LAST, out=out)


# The grid size from which a kicked run takes its transforms as a `FourStep`.
# A kicked step with the four-step transforms, its rows padded, took 0.80-0.83 of
# the time of one with in-place single-row transforms at n = 8192 and 0.92-0.93 at
# 4096, but 1.14-1.19 at 2048 and 1.35-1.36 at 1024 (medians of 10 alternated
# in-process pairs, two sets; 2-core Xeon, numpy 2.4.6).  Single-row transforms win
# below 4096, and moving the threshold would move the bits of runs at the sizes it
# passes.
FOUR_STEP_POINTS = 4096


def unit_roots(m: np.ndarray, n: int) -> np.ndarray:
    """exp(-2 pi i m/n) of the integers m, for n a power of two >= 8.

    The exponent is reduced mod n as an integer, to a quadrant q and an angle
    phi in [0, pi/2), and each root is made from the cosine and sine of phi
    or of pi/2 - phi, whichever lies in [0, pi/4], as pocketfft makes its own
    twiddles: exp(-i(q pi/2 + phi)) is (cos, -sin), (-sin, -cos), (-cos, sin)
    or (sin, cos) of phi for q = 0..3, so each root is within an ulp of its
    value.  No temporary is complex."""
    quadrant, m = np.divmod(m % n, n // 4)
    swap = 2 * m > n // 4  # phi > pi/4: take the cosine and sine of pi/2 - phi
    np.subtract(n // 4, m, out=m, where=swap)
    angle = m * (2.0 * np.pi / n)
    del m
    roots = np.empty(angle.shape, complex)
    re, im = roots.real, roots.imag
    np.cos(angle, out=re)
    np.sin(angle, out=im)
    # re takes the sine, and im the cosine, of phi in an odd quadrant and of
    # pi/2 - phi in an even one
    odd = swap ^ (quadrant & 1).astype(bool)
    np.copyto(angle, im)
    np.copyto(im, re, where=odd)
    np.copyto(re, angle, where=odd)
    np.negative(re, out=re, where=(quadrant == 1) | (quadrant == 2))
    np.negative(im, out=im, where=quadrant < 2)
    return roots


class FourStep:
    """The four-step split of an n-point transform (Bailey, "FFTs in external
    or hierarchical memory", J. Supercomputing 4, 23, 1990).

    A state psi is held as the (n1, n2) array x[j1, j2] = psi[j1 n2 + j2],
    n1 = 2**floor(log2(n) / 2) and n2 = n / n1.  The forward transform is an
    n1-point transform of each column (`columns`), a product by the twiddles
    w**(k1 j2), w = exp(-2 pi i / n), and an n2-point transform of each row
    (`rows`); numpy's pocketfft does such a batch of short transforms much
    faster per point than one long transform.  The spectrum stays in the
    order it comes out in, x[k1, k2] = psi_hat[k1 + n1 k2], and no step
    transposes.  The inverse undoes the three steps in reverse order as
    ifft(X) = conj(fft(conj X)) / n, with 1/n2 and 1/n1 passed to the two
    passes, so it takes the twiddles themselves and no table of their
    conjugates.

    x lives in a flat buffer of n1 (n2 + 1) points (`pad`): its rows lie
    n2 + 1 points apart, and the point after each row is a pad slot.
    Unpadded, a column at n = 16384 is read at a stride of 2048 B, so its
    128 points fall into 2 of the 64 sets of a 48 KB L1 cache and evict
    each other before the next columns reuse their lines: a column pass
    cost about 1.5 times a row pass, and 1.0 padded (2-core Xeon, numpy
    2.4.6).  The passes work on x, the buffer's (n1, n2) `view`, but every
    product and conjugation runs over the whole buffer as one contiguous
    array, against tables in the same layout whose pad slots hold 0 (a
    product over the strided view took 2.4-3.8 times as long): each point
    of x meets the same operands as unpadded, so no bit of it moves, and
    the pad slots stay 0.  Every stage writes into the array it is given:
    numpy hands identical in and out arrays to pocketfft without copying
    them.  The kicked loop of `propagate.split_steps` calls `forward` and
    `inverse` once a step.
    """

    # the stage calls: columns(x, fct, out=x) and rows(x, fct, out=x) transform
    # each column and each row of x, times fct.  Static, so an instance does not
    # bind itself to them as their first argument where partial is a method
    # descriptor (Python 3.14 on)
    columns = staticmethod(partial(_pocketfft.fft, axes=[(0,), (), (0,)]))
    rows = staticmethod(partial(_pocketfft.fft, axes=[(1,), (), (1,)]))

    def __init__(self, n: int):
        self.n1 = 1 << (n.bit_length() - 1) // 2
        self.n2 = n // self.n1
        # the padded table the products take, and its (n1, n2) view
        self._twiddles = self.pad(unit_roots(np.outer(np.arange(self.n1),
                                                      np.arange(self.n2)), n))
        self.twiddles = self.view(self._twiddles)

    def pad(self, values: np.ndarray) -> np.ndarray:
        """A new flat complex buffer of n1 (n2 + 1) points whose `view` holds
        values, n points in state order or an (n1, n2) array, and whose pad
        slots hold 0."""
        a = np.zeros(self.n1 * (self.n2 + 1), complex)
        self.view(a)[...] = values.reshape(self.n1, self.n2)
        return a

    def view(self, a: np.ndarray) -> np.ndarray:
        """The (n1, n2) view of the flat padded buffer a, its pad slots left out."""
        return a.reshape(self.n1, self.n2 + 1)[:, : self.n2]

    def order(self, values: np.ndarray) -> np.ndarray:
        """A padded buffer of the n values in spectrum order."""
        return self.pad(values.reshape(self.n2, self.n1).T)

    def forward(self, a: np.ndarray) -> np.ndarray:
        """The transform of the state in the padded buffer a, in place, in
        spectrum order: returns a's view."""
        x = self.view(a)
        self.columns(x, 1, out=x)
        np.multiply(a, self._twiddles, out=a)
        return self.rows(x, 1, out=x)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """The state whose transform, in spectrum order, is in the padded
        buffer a, in place: returns a's view."""
        x = self.view(a)
        np.conjugate(a, out=a)
        self.rows(x, 1 / self.n2, out=x)
        np.multiply(a, self._twiddles, out=a)
        self.columns(x, 1 / self.n1, out=x)
        np.conjugate(a, out=a)
        return x


def _spectral_derivative(values: np.ndarray, grid: Grid1D, out: np.ndarray | None = None,
                         work: np.ndarray | None = None) -> np.ndarray:
    """Spectral d/dx of real values along the last axis, through a real-input FFT
    pair, so a (T, n) stack is one batched transform pair.  The transform goes
    into work, of shape (T, n//2 + 1), and the derivative into out, which may be
    values itself, if given."""
    values_hat = rfft(values, out=work)
    return irfft(np.multiply(grid._ik_r, values_hat, out=values_hat), grid.n, out=out)


def _state_derivative(psi_hat: np.ndarray, grid: Grid1D,
                      out: np.ndarray | None = None) -> np.ndarray:
    """d psi/dx = ifft(ik psi_hat) along the last axis, from the states' transforms
    psi_hat, into out if given (which may be psi_hat itself), else a new array.
    ik is purely imaginary, so ik psi_hat has the bits of psi_hat ik, the order
    numpy takes in `ik * temporary` from 256 KiB, except the sign of a product that
    underflows to zero (entries near 5e-324)."""
    dpsi = np.multiply(grid._ik, psi_hat, out=out)
    return ifft(dpsi, out=dpsi)


def _moments(psi_hat: np.ndarray, ik_psi_hat: np.ndarray) -> tuple:
    """sum |psi_hat|^2, sum k |psi_hat|^2 and sum k^2 |psi_hat|^2 of each row, as
    vecdots of psi_hat and ik psi_hat (two of them of their real and imaginary
    parts, a pair of floats per wavenumber): a row's moments depend on that row
    alone."""
    x, y = psi_hat.view(float), ik_psi_hat.view(float)
    return np.vecdot(x, x), np.vecdot(psi_hat, ik_psi_hat).imag, np.vecdot(y, y)


def _carrier_derivative(psi_hat: np.ndarray, grid: Grid1D, out: np.ndarray | None = None,
                        spectrum: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The derivative of each row of the (B, n) states whose transforms are
    psi_hat relative to its carrier k_c, ifft(i(k - k_c) psi_hat) = d psi/dx -
    i k_c psi, into out if given (which may be psi_hat itself), and the carriers.

    A row's carrier is its mean wavenumber <k>, rounded to a grid wavenumber,
    where |<k>| is larger than the row's spread of k, and 0 elsewhere.  A block
    with a carrier takes i(k - k_c) before it multiplies psi_hat, so the product
    carries no terms of size k_c |psi_hat|; a row whose carrier is 0 takes ik
    psi_hat, so it has the bits of `_state_derivative` in any block (ik - 0j
    has the bits of ik).  ik psi_hat goes into spectrum if given, which must not
    be psi_hat's memory, and the moments are taken from it; otherwise they are
    taken from ik psi_hat of one half of the wavenumbers at a time, so no
    temporary is the size of psi_hat, and the product is taken again in out, a
    row at a time if a row has a carrier."""
    n = grid.n
    if spectrum is not None:
        dpsi_hat = np.multiply(grid._ik, psi_hat, out=spectrum)
        m0, m1, m2 = _moments(psi_hat, dpsi_hat)
    else:
        m0, m1, m2 = map(np.add, *(
            _moments(psi_hat[:, half], np.multiply(grid._ik[half], psi_hat[:, half]))
            for half in (slice(0, n // 2), slice(n // 2, n))))
    # |<k>| > spread, that is <k>^2 > <k^2> - <k>^2, without a division
    shifted = 2.0 * m1 * m1 > m0 * m2
    carriers = np.zeros(len(m0))
    if shifted.any():
        index = np.rint(m1[shifted] / m0[shifted] / grid._dk).astype(np.int64)
        carriers[shifted] = grid.k[index % n]
    if spectrum is None:
        if not shifted.any():
            return _state_derivative(psi_hat, grid, out=out), carriers
        dpsi_hat = np.empty(psi_hat.shape, complex) if out is None else out
        for row, k_c in enumerate(carriers.tolist()):
            np.multiply(grid._ik - 1j * k_c, psi_hat[row], out=dpsi_hat[row])
    elif shifted.any():
        multiplier = np.subtract(grid._ik, 1j * carriers[:, np.newaxis], out=dpsi_hat)
        np.multiply(multiplier, psi_hat, out=dpsi_hat)
    return ifft(dpsi_hat, out=out), carriers


def derivative(f: RealField) -> RealField:
    """Spectral derivative of a periodic real field: exact for trigonometric
    polynomials below Nyquist, with the Nyquist mode of the derivative set to zero."""
    return RealField(f.grid, _spectral_derivative(f.values, f.grid))

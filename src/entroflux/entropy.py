"""Madelung fields and information entropy of a wavefunction, with balance-law diagnostics.

Quantities:
  rho   = |psi|^2                        probability density
  j     = (hbar/m) Im(psi* dpsi/dx)      probability current
  v     = j / rho                        Madelung velocity
  rho_I = -rho (ln rho - 1)              information density (nats / length)
  I     = integral of rho_I              information entropy (nats)

For normalized rho this I equals the standard differential entropy plus one.
Natural logarithms throughout; any other base rescales both sides of every
balance law identically.

Diagnostics (all residuals should vanish to discretization order):
  rate identity    d(rho_I)/dt + d(rho)/dt * ln rho = 0   (pure chain rule)
  local balance    d(rho_I)/dt + d/dx[(rho_I - rho) v] + v d(rho)/dx = 0
  integral form    dI/dt = -[(rho_I - rho) v]_boundary - int v d(rho)/dx
with the boundary term vanishing on the full periodic domain.

A run hands its samples to one consumer, `Diagnostics`, a stream of rows of
one kind (states, their transforms, or given fields), staged into blocks of
at most CHUNK_POINTS grid points.  The stream owns the block, and every row
enters it a block at a time: a producer writes its next rows into the block
and hands them over in one call.  A run's split-step loop (`collect`, through
`propagate.split_steps`) writes its observed states there, and the oracle
(`report.run_oracle`) and `diagnose` write given fields.
When a block is flushed, its rows' fields (of states), norms, the masks
rho >= reg_floor and ln rho are taken once, and rho_I, the rate identity and
the norm check read them; an optional hook sees the block (to write snapshot
files); then the rows get their per-row columns and, with the two rows before
the block carried along as a halo, the centred residuals of every row whose
neighbours have arrived, and then the block's buffers take the next rows.
Every row brings its own d rho/dx, which eq 16 and the local balance read: a
state's is 2 Re(psi* dpsi/dx), from the product psi* dpsi/dx its current
takes too, with dpsi/dx taken relative to the state's carrier (see
`madelung_arrays`), so it costs no transform of its own; given fields bring
the spectral derivative of their rho (the oracle's) or their `Series.drho`.
The block's transforms, residuals and subvolume integrals write into buffers
the block owns.  So a run holds
O(CHUNK_POINTS) field values plus O(T) scalar columns, and a block's pass
allocates no array of the block's size.  `diagnose` copies a stored `Series` of
(T, n) arrays into the same consumer, so each column has one implementation; the
per-instant functions (`take_snapshot`, `balance_residual`,
`rate_identity_residual`, `entropy_rate_check`, `sign_witness`) pass small
stacks through it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Grid1D, PhysicalParams, RealField, _carrier_derivative, _spectral_derivative, check_positive,
    fft, ifft, integrate,
)
from .propagate import Potential, WaveFunction, check_norms, split_steps

# Grid points per block of rows in a `Diagnostics`; bounds its FFT temporaries.
CHUNK_POINTS = 1 << 15

# The density floor.  v = j/rho and ln rho have no meaning where rho -> 0, so
# wherever rho < reg_floor: v = 0 and the point counts in floored_points,
# rho_I = +0, and the rate identity's residual is +0.
DEFAULT_REG_FLOOR = 1e-12


@dataclass(frozen=True)
class DensityFields:
    """Madelung fields of one wavefunction: rho, j, v, and d rho/dx."""

    rho: RealField
    current: RealField
    velocity: RealField
    floored_points: int
    drho: RealField


@dataclass(frozen=True)
class Snapshot:
    """Madelung fields plus information density and entropy at time t."""

    t: float
    den: DensityFields
    rho_I: RealField
    I: float


@dataclass(frozen=True)
class BalanceReport:
    """Per-sample balance diagnostics.

    residual_l2 / residual_linf: norms of the local balance residual.
    dIdt_fd: finite-difference rate of I (restricted to the subvolume if any).
    rhs_eq16: -int v drho/dx over the (sub)volume.
    boundary_flux: [(rho_I - rho) v] at b minus at a (0 on the full domain).
    rhs_eq15: -boundary_flux + rhs_eq16.
    """

    t: float
    residual_l2: float
    residual_linf: float
    dIdt_fd: float
    rhs_eq16: float
    boundary_flux: float
    rhs_eq15: float


@dataclass(frozen=True)
class SignWitness:
    """Agreement between sgn(dI/dt) and sgn(-int v drho/dx) across samples."""

    fraction: float
    n_eligible: int
    n_agree: int


@dataclass(frozen=True)
class BinRow:
    bin_width: float
    binned: float
    binned_plus_log: float
    target: float
    defect: float
    resolved: bool


def density(wf: WaveFunction) -> RealField:
    """rho = |psi|^2."""
    return RealField(wf.grid, np.abs(wf.psi) ** 2)


def madelung_arrays(
    psi: np.ndarray,
    dpsi: np.ndarray,
    params: PhysicalParams,
    reg_floor: float = DEFAULT_REG_FLOOR,
    out: tuple | None = None,
    carriers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rho, the current j = (hbar/m) Im(psi* dpsi/dx), v = j/rho, the mask
    rho >= reg_floor and d rho/dx = 2 Re(psi* dpsi/dx) of a (B, n) psi stack,
    into the five arrays of out if given.

    The one computation of these fields.  psi = sqrt(rho) exp(i S / hbar) gives
    v = S'/m, taken as j/rho rather than from the gradient of the unwrapped
    phase, which has branch-cut artifacts where the density is low.  dpsi is
    the derivative relative to each row's carrier k_c, dpsi/dx - i k_c psi
    (`grid._carrier_derivative` of the states' transforms; k_c = 0 for every
    row if carriers is None, and dpsi is then dpsi/dx): the shift leaves
    Re(psi* dpsi), so d rho/dx, as it is, and a row whose k_c is not 0 gets
    (hbar/m) k_c rho added to its j.  So the product psi* dpsi holds no terms of
    size k_c rho for its real part to cancel, and d rho/dx costs no transform.
    psi and dpsi are overwritten, by psi* and psi* dpsi; each row's values are
    those of the row taken alone.  v is floored (see DEFAULT_REG_FLOOR): it is
    0 where the mask is false.
    """
    check_positive("reg_floor", reg_floor)
    if out is None:
        out = (np.empty(psi.shape), np.empty(psi.shape), np.empty(psi.shape),
               np.empty(psi.shape, bool), np.empty(psi.shape))
    rho, j, v, mask, drho = out
    np.square(np.abs(psi, out=rho), out=rho)
    # np.multiply keeps the operand order fixed: numpy may swap the operands
    # of `a * temporary` on large arrays, and the complex product's last bit
    # depends on that order.  Its imaginary part is taken with an FMA, so it is
    # not the bits of psi.real dpsi.imag - psi.imag dpsi.real either.
    np.multiply(np.conjugate(psi, out=psi), dpsi, out=dpsi)
    hbar_m = params.hbar / params.mass
    np.multiply(hbar_m, dpsi.imag, out=j)
    if carriers is not None:
        for row in np.flatnonzero(carriers).tolist():
            j[row] += (hbar_m * carriers[row]) * rho[row]
    np.multiply(dpsi.real, 2.0, out=drho)
    np.greater_equal(rho, reg_floor, out=mask)
    v.fill(0.0)
    np.divide(j, rho, out=v, where=mask)
    return rho, j, v, mask, drho


def _state_fields(held: np.ndarray, spectral: bool, dpsi: np.ndarray, grid: Grid1D,
                  params: PhysicalParams, reg_floor: float, out: tuple | None = None) -> tuple:
    """`madelung_arrays` of the (B, n) states held, or, if spectral, of the
    states whose transforms held holds: the one path of every observed state,
    `take_snapshot`'s and a block's.  The derivatives are taken relative to each
    row's carrier (`grid._carrier_derivative`) into dpsi, from the held
    transforms, with dpsi as their spectrum's memory, or from one batched
    forward transform of the held states into dpsi.  Held transforms then take
    one batched inverse transform, in place, for the states.  held and dpsi are
    overwritten (see `madelung_arrays`)."""
    if spectral:
        _, carriers = _carrier_derivative(held, grid, out=dpsi, spectrum=dpsi)
        ifft(held, out=held)
    else:
        _, carriers = _carrier_derivative(fft(held, out=dpsi), grid, out=dpsi)
    return madelung_arrays(held, dpsi, params, reg_floor, out, carriers)


def _log_density(r: np.ndarray, reg_floor: float, ln: np.ndarray | None = None,
                 mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """ln r where r >= reg_floor, and that mask, into ln and mask if given; where
    r is floored, ln keeps whatever it held."""
    mask = np.greater_equal(r, reg_floor, out=mask)
    return np.log(r, out=ln, where=mask), mask


def _info_density(r: np.ndarray, reg_floor: float, ln: np.ndarray | None = None,
                  mask: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """r (1 - ln r) where r >= reg_floor, and +0.0 where r is floored, into out if
    given.  ln and mask, if given, are those of `_log_density` of r; a density
    given without them must not be negative."""
    if ln is None:
        if np.any(r < 0.0):
            raise ValueError("negative density")
        ln, mask = _log_density(r, reg_floor)
    out = np.empty_like(r) if out is None else out
    out.fill(0.0)
    np.subtract(1.0, ln, out=out, where=mask)
    return np.multiply(r, out, out=out, where=mask)


def info_density(rho: RealField, reg_floor: float = DEFAULT_REG_FLOOR) -> RealField:
    """Pointwise -rho (ln rho - 1), set to 0 where rho < reg_floor."""
    return RealField(rho.grid, _info_density(rho.values, reg_floor))


# How far a density's integral may stray from 1.
MASS_TOL = 1e-6


def check_normalized(rho: RealField) -> None:
    norm = integrate(rho)
    if abs(norm - 1.0) > MASS_TOL:
        raise ValueError(f"density not normalized: integral = {norm!r}")


def check_reg_floor(grid: Grid1D, reg_floor: float) -> None:
    """Raise unless reg_floor is positive and the mass it may set aside, up to
    reg_floor * (x_max - x_min), is below check_normalized's bound."""
    check_positive("reg_floor", reg_floor)
    mass = reg_floor * grid.length
    if not mass < MASS_TOL:
        raise ValueError(f"reg_floor = {reg_floor} is too large: the points it floors may "
                         f"hold reg_floor * (x_max - x_min) = {mass:.6g} of the mass, "
                         f"which must be below {MASS_TOL:g}")


def info_entropy(rho: RealField, reg_floor: float = DEFAULT_REG_FLOOR) -> float:
    """I = int -rho (ln rho - 1) dx for a normalized density."""
    check_normalized(rho)
    return integrate(info_density(rho, reg_floor))


_ROW_FIELDS = ("t", "rho", "current", "velocity", "rho_I", "floored_points", "drho")


@dataclass(frozen=True)
class Series:
    """Observed samples stacked along axis 0: row i holds the fields at t[i].

    rho, current, velocity, rho_I and drho = d rho/dx are (T, n) arrays; t and
    floored_points have one entry per row.  rho_I uses reg_floor, as does the
    rate identity.  drho is the spectral derivative of rho unless given: a
    state's own is 2 Re(psi* dpsi/dx) (`madelung_arrays`).  A run's block of
    rows (in `Diagnostics`) and the small stacks of the per-instant functions
    are Series; a run never stacks all its rows.
    """

    grid: Grid1D
    reg_floor: float
    t: np.ndarray
    rho: np.ndarray
    current: np.ndarray
    velocity: np.ndarray
    rho_I: np.ndarray
    floored_points: np.ndarray
    drho: np.ndarray | None = None

    def __post_init__(self):
        if self.drho is None:
            object.__setattr__(self, "drho", _spectral_derivative(self.rho, self.grid))

    @classmethod
    def of(cls, grid: Grid1D, t, rho, current, velocity, floored_points=0,
           reg_floor: float = DEFAULT_REG_FLOOR, rho_I=None, drho=None) -> "Series":
        """Rows of the (T, n) fields at the T times t; rho_I and drho follow
        from rho unless given, and one floored_points count may stand for every
        row."""
        t, rho = np.asarray(t, dtype=float), np.asarray(rho, dtype=float)
        rho_I = _info_density(rho, reg_floor) if rho_I is None else np.asarray(rho_I, float)
        return cls(grid, reg_floor, t, rho, np.asarray(current, dtype=float),
                   np.asarray(velocity, dtype=float), rho_I,
                   np.broadcast_to(floored_points, t.shape).astype(int),
                   None if drho is None else np.asarray(drho, float))

    def rows(self, lo: int, hi: int) -> "Series":
        """Rows lo..hi-1 as a Series of views of this one."""
        return Series(self.grid, self.reg_floor, *(
            getattr(self, name)[lo:hi] for name in _ROW_FIELDS))

    def snapshot(self, i: int) -> Snapshot:
        """Row i as a Snapshot whose fields are views of this series."""
        grid = self.grid
        rho_I = RealField(grid, self.rho_I[i])
        den = DensityFields(
            rho=RealField(grid, self.rho[i]),
            current=RealField(grid, self.current[i]),
            velocity=RealField(grid, self.velocity[i]),
            floored_points=int(self.floored_points[i]),
            drho=RealField(grid, self.drho[i]),
        )
        return Snapshot(t=float(self.t[i]), den=den, rho_I=rho_I, I=integrate(rho_I))


def take_snapshot(wf: WaveFunction, reg_floor: float = DEFAULT_REG_FLOOR) -> Snapshot:
    """The Madelung fields and d rho/dx (`.den`), information density (`.rho_I`)
    and entropy (`.I`) of wf at its time `.t`: those of a block's row
    (`_state_fields`)."""
    psi = wf.psi[np.newaxis].copy()
    rho, j, v, mask, drho = _state_fields(psi, False, np.empty_like(psi), wf.grid, wf.params,
                                          reg_floor)
    floored = wf.grid.n - np.count_nonzero(mask)
    return Series.of(wf.grid, [wf.t], rho, j, v, floored, reg_floor, drho=drho).snapshot(0)


def bin_size(grid: Grid1D, bin_width: float) -> int:
    """Grid points per bin; raises unless bins of bin_width tile the grid."""
    ratio = bin_width / grid.dx
    per_bin = int(round(ratio))
    if per_bin < 1 or abs(ratio - per_bin) > 1e-9 * ratio:
        raise ValueError(
            f"bin_width {bin_width} is not a positive integer multiple of dx = {grid.dx}"
        )
    if grid.n % per_bin != 0:
        raise ValueError(
            f"bins of width {bin_width} do not tile the domain "
            f"(n = {grid.n}, samples per bin = {per_bin})"
        )
    return per_bin


def binned_entropy(rho: RealField, bin_width: float) -> float:
    """Shannon entropy -sum p_i ln p_i over spatial bins of width bin_width.

    p_i is the rectangle-rule integral of rho over each bin; bins must tile
    the domain with bin_width an integer multiple of dx.
    """
    grid = rho.grid
    per_bin = bin_size(grid, bin_width)
    p = grid.dx * rho.values.reshape(grid.n // per_bin, per_bin).sum(axis=1)
    pos = p[p > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def binning_limit_study(
    rho: RealField,
    bin_widths,
    reg_floor: float = DEFAULT_REG_FLOOR,
) -> list[BinRow]:
    """Convergence of binned + ln(dq) toward I - 1 as the bin width shrinks.

    Rows sorted by descending bin width.  A row is flagged unresolved when the
    bins are wider than about half the density's standard deviation (the
    delta-like regime, where the midpoint error model breaks down).
    """
    target = info_entropy(rho, reg_floor) - 1.0
    grid = rho.grid
    mean = grid.dx * np.sum(grid.x * rho.values)
    std = float(np.sqrt(grid.dx * np.sum((grid.x - mean) ** 2 * rho.values)))
    rows = []
    for dq in sorted(bin_widths, reverse=True):
        binned = binned_entropy(rho, dq)
        shifted = binned + np.log(dq)
        defect = abs(shifted - target)
        rows.append(
            BinRow(
                bin_width=float(dq),
                binned=binned,
                binned_plus_log=float(shifted),
                target=target,
                defect=float(defect),
                resolved=bool(dq <= 0.45 * std),
            )
        )
    return rows


def _subvolume_indices(grid: Grid1D, subvolume) -> tuple[int, int]:
    a, b = subvolume
    ia = int(round((a - grid.x_min) / grid.dx))
    ib = int(round((b - grid.x_min) / grid.dx))
    if not (0 <= ia < ib <= grid.n - 1):
        raise ValueError(
            f"subvolume [{a}, {b}] must lie inside [{grid.x_min}, {grid.x_max - grid.dx}] "
            f"and span at least one grid step dx = {grid.dx}"
        )
    return ia, ib


def _sample_spacing(t: np.ndarray) -> float:
    if len(t) < 2:
        return 0.0
    strides = np.diff(t)
    dt = float(strides[0])
    if np.any(np.abs(strides - dt) > 1e-9 * max(abs(dt), 1.0)):
        raise ValueError("snapshots not uniformly spaced in time")
    return dt


def _rate(i_series: np.ndarray, dt: float) -> np.ndarray:
    """dI/dt: centred differences, one-sided at the two ends, 0 for one sample."""
    if len(i_series) < 2:
        return np.zeros(len(i_series))
    return np.gradient(i_series, dt)


def _rate_identity(d_rho: np.ndarray, d_rho_I: np.ndarray, ln: np.ndarray, mask: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The rate identity's residual d(rho_I)/dt + d(rho)/dt ln rho where rho >=
    reg_floor, and +0.0 where rho is floored, into out if given; ln and mask are
    those of `_log_density` of rho."""
    r9 = np.empty_like(d_rho) if out is None else out
    r9.fill(0.0)
    np.multiply(d_rho, ln, out=r9, where=mask)
    return np.add(d_rho_I, r9, out=r9, where=mask)


def _trapezoid_rows(y: np.ndarray, ia: int, ib: int, spacing: np.ndarray,
                    work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.trapezoid(y[:, ia : ib + 1], x[ia : ib + 1], axis=1) into out, bit for
    bit, from spacing = np.diff(x[ia : ib + 1]): numpy's own expression
    (d * (y[1:] + y[:-1]) / 2.0).sum(), with its temporary in work, a
    C-contiguous (len(y), ib - ia) array."""
    np.add(y[:, ia + 1 : ib + 1], y[:, ia:ib], out=work)
    np.multiply(spacing, work, out=work)
    np.divide(work, 2.0, out=work)
    return np.add.reduce(work, axis=1, out=out)


_COLUMNS = ("norm", "I", "rhs_eq16_full", "residual13_l2", "residual13_linf",
            "residual9_l2", "residual9_linf", "rhs_eq16", "boundary_flux")


def _scratch(buffer: np.ndarray, shape: tuple, dtype=float, at: int = 0) -> np.ndarray:
    """A C-contiguous array of shape and dtype on the memory of the contiguous
    buffer, from its item `at` counted in dtype."""
    size = shape[0] * shape[1]
    return buffer.reshape(-1).view(dtype)[at : at + size].reshape(shape)


class Diagnostics:
    """The `diagnose` columns of a series of rows that arrive in time order.

    Rows enter through the block's own buffers, a block at a time: a producer
    writes the next states, or their transforms psi_hat = fft(psi), into
    `held[n_held:]`, (height, n) complex, or the next given fields into the
    window rows 2 + n_held .., and hands them over with `add_held(t, kind,
    params)`.  A stream takes one kind of row, its states one set of physical
    parameters, and at most n_rows rows: the first row sets the kind and
    params, and a row of another kind, a state with other params, or a row
    past n_rows is refused, checked once per call.  A block holds at most
    CHUNK_POINTS // n rows, and one row if n is larger.  A block that is full
    or holds the last row is flushed: its per-row quantities are taken (the
    fields and d rho/dx of held states, and for every kind its norm, the mask
    rho >= reg_floor and ln rho where the mask is set), and on_block(first_row,
    rows) sees the block's rows as a Series of views; then its per-row columns
    are taken, and the centred residuals of every row whose two neighbours have
    arrived: the last two rows stay behind as a halo just ahead of the block,
    so a residual never depends on where a block ends.  Then the block is
    reused.

    rho_I and the rate identity read the block's ln rho and mask.  The window's
    six fields are views of one store, and the halo shift moves every field of
    the store and the mask, so a field added to the store cannot miss it.  The
    block's transforms, residuals and subvolume integrals write into the memory
    of the held states and their derivatives, which is dead once the block's
    fields are taken.  So the window, the held states and their derivatives are all
    the field memory a run holds; only the scalar columns grow with n_rows.

    See `diagnose` for the columns, the subvolume and the time step.
    """

    def __init__(
        self,
        grid: Grid1D,
        n_rows: int,
        reg_floor: float = DEFAULT_REG_FLOOR,
        subvolume=None,
        on_block=None,
    ):
        self.subvolume = self.spacing = None
        if subvolume is not None:
            ia, ib = self.subvolume = _subvolume_indices(grid, subvolume)
            self.spacing = np.diff(grid.x[ia : ib + 1])  # the trapezoid rule's, taken once
        self.on_block = on_block
        self.height = height = max(1, min(n_rows, CHUNK_POINTS // grid.n))
        # rows 0 and 1 of the window are the halo, rows 2.. the block
        self.store = np.empty((6, height + 2, grid.n))
        rho, current, velocity, rho_I, self.v_drho, self.ln_rho = self.store
        # a row's v_drho holds its d rho/dx, the window's drho, until its
        # block's columns are taken, and v d rho/dx from then on
        self.window = Series(grid, reg_floor, np.zeros(height + 2), rho, current, velocity,
                             rho_I, np.zeros(height + 2, dtype=int), self.v_drho)
        self.mask = np.empty((height + 2, grid.n), bool)
        self.t = np.zeros(n_rows)
        self.floored_points = np.zeros(n_rows, dtype=int)
        self.i_sub = np.zeros(n_rows)
        self.out = {name: np.zeros(n_rows) for name in _COLUMNS}
        # the block's states or transforms, written by the producer (`add_held`),
        # and their derivatives; the scratch of the block's transforms, residuals
        # and subvolume integrals
        self.held = np.empty((height, grid.n), complex)
        self.dpsi = np.empty((height, grid.n), complex)
        self.kind = None  # "states", "transforms" or "fields", set by the first row
        self.params = None  # of every state, set by the first
        self.n_done = 0  # rows whose block has been computed
        self.n_held = 0  # rows in the block, not yet computed

    def add_held(self, t: np.ndarray, kind: str, params: PhysicalParams | None = None) -> None:
        """Take the len(t) rows written into the block after its n_held rows as
        the next rows, at the times t: "states" or "transforms" (psi_hat =
        fft(psi)) in `held[n_held:]`, with their params, or "fields" in the
        window rows 2 + n_held .. of rho, current, velocity, rho_I,
        floored_points and drho.  Any other kind, and states or transforms
        without params, are refused.  The rows must fit in the block.  States
        must pass a `WaveFunction`'s checks (finite, norm within 1e-8 of 1) at
        the flush."""
        if kind not in ("states", "transforms", "fields"):
            raise ValueError(f"unknown kind of row {kind!r}: a stream takes states, "
                             f"transforms or fields")
        if kind != "fields" and params is None:
            raise ValueError(f"{kind} need their physical parameters")
        count = len(t)
        if self.n_held + count > self.height:
            raise ValueError(f"{count} rows do not fit in a block of {self.height} "
                             f"that holds {self.n_held}")
        if kind != "fields" and self.params not in (None, params):
            raise ValueError(f"a stream takes one set of physical parameters: this one "
                             f"takes {self.params}, not {params}")
        if self.kind not in (None, kind):
            raise ValueError(f"a stream takes one kind of row: this one takes {self.kind}, "
                             f"not {kind}")
        if self.n_done + self.n_held + count > len(self.t):
            raise ValueError(f"cannot add {count} rows after "
                             f"{self.n_done + self.n_held} of {len(self.t)}")
        self.window.t[2 + self.n_held : 2 + self.n_held + count] = t
        self.kind, self.params = kind, params
        self._hold(count)

    def _hold(self, count: int) -> None:
        """Hold the count staged rows, and flush the block once it is full or
        holds the last row: its per-row quantities, then its columns."""
        self.n_held += count
        if self.n_held < self.height and self.n_done + self.n_held < len(self.t):
            return
        if self.kind == "fields":
            w, block = self.window, slice(2, 2 + self.n_held)
            _log_density(w.rho[block], w.reg_floor, self.ln_rho[block], self.mask[block])
            self._norm_column()
        else:
            self._observe()
        self._compute()

    def _norm_column(self) -> np.ndarray:
        """The norm column, dx * sum rho, of the held rows."""
        lo, hi = self.n_done, self.n_done + self.n_held
        return np.multiply(self.window.grid.dx, self.window.rho[2 : 2 + hi - lo].sum(axis=1),
                           out=self.out["norm"][lo:hi])

    def _observe(self) -> None:
        """The Madelung fields, d rho/dx, norm, ln rho and rho_I of the held
        states, into the block, through `_state_fields`: the derivatives go into
        their own buffer, and d rho/dx into the v_drho rows."""
        w, k = self.window, self.n_held
        block = slice(2, 2 + k)
        rho, _, _, mask, _ = _state_fields(
            self.held[:k], self.kind == "transforms", self.dpsi[:k], w.grid, self.params,
            w.reg_floor, (w.rho[block], w.current[block], w.velocity[block], self.mask[block],
                          w.drho[block]))
        check_norms(self._norm_column())
        ln = np.log(rho, out=self.ln_rho[block], where=mask)
        _info_density(rho, w.reg_floor, ln, mask, out=w.rho_I[block])
        # a true mask byte is 1 (n is a multiple of 8), so the set bits of a row's
        # 8-byte words count its points at or above the floor
        w.floored_points[block] = w.grid.n - np.bitwise_count(mask.view(np.uint64)).sum(axis=1)

    def _compute(self) -> None:
        """The columns of the held rows; then the block takes the next rows."""
        count = self.n_held
        lo, hi = self.n_done, self.n_done + count
        w, grid, out = self.window, self.window.grid, self.out
        rows = slice(2, 2 + count)
        if self.on_block is not None:
            self.on_block(lo, w.rows(2, 2 + count))
        rho, v, rho_I = w.rho[rows], w.velocity[rows], w.rho_I[rows]
        v_drho = np.multiply(v, self.v_drho[rows], out=self.v_drho[rows])
        self.t[lo:hi] = w.t[rows]
        self.floored_points[lo:hi] = w.floored_points[rows]
        out["I"][lo:hi] = grid.dx * rho_I.sum(axis=1)
        out["rhs_eq16_full"][lo:hi] = -(grid.dx * v_drho.sum(axis=1))
        if self.subvolume is not None:
            ia, ib = self.subvolume
            # the derivatives' memory is dead once the block's fields are taken
            terms = _scratch(self.dpsi, (count, ib - ia))
            _trapezoid_rows(rho_I, ia, ib, self.spacing, terms, out=self.i_sub[lo:hi])
            rhs = _trapezoid_rows(v_drho, ia, ib, self.spacing, terms, out=out["rhs_eq16"][lo:hi])
            np.negative(rhs, out=rhs)
            g = (rho_I[:, [ia, ib]] - rho[:, [ia, ib]]) * v[:, [ia, ib]]
            out["boundary_flux"][lo:hi] = g[:, 1] - g[:, 0]
        # rows lo-1 .. hi-2 now have both neighbours; row 0 never does
        first = max(lo - 1, 1)
        if first < hi - 1:
            self._residuals(first - lo + 2, hi - 1 - lo + 2, first)
        for a in (*self.store, self.mask):
            # row by row, first to last: rows count and count + 1 may be row 1
            # and 2, and a copy between overlapping slices makes a temporary
            a[0] = a[count]
            a[1] = a[count + 1]
        self.n_done, self.n_held = hi, 0

    def _residuals(self, a: int, b: int, first: int) -> None:
        """Local balance law and rate identity at window rows a..b-1 (series rows first..),
        in the memory of the held states (d rho_I/dt and the residual) and of their
        derivatives (a transform, then d rho/dt and the residual's square)."""
        w, grid = self.window, self.window.grid
        shape = (b - a, grid.n)
        d_rho_I = _scratch(self.held, shape)
        r = _scratch(self.held, shape, at=shape[0] * shape[1])
        work = _scratch(self.dpsi, (shape[0], grid.n // 2 + 1), complex)
        square = _scratch(self.dpsi, shape)
        two_dt = 2.0 * float(self.t[1] - self.t[0])
        rho, v, rho_I = w.rho[a:b], w.velocity[a:b], w.rho_I[a:b]
        np.subtract(w.rho_I[a + 1 : b + 1], w.rho_I[a - 1 : b - 1], out=d_rho_I)
        np.divide(d_rho_I, two_dt, out=d_rho_I)
        np.multiply(np.subtract(rho_I, rho, out=r), v, out=r)
        div_flux = _spectral_derivative(r, grid, out=r, work=work)
        r13 = np.add(np.add(d_rho_I, div_flux, out=r), self.v_drho[a:b], out=r)
        rows = slice(first, first + b - a)
        self._residual_norms(r13, square, "residual13", rows)
        d_rho = np.subtract(w.rho[a + 1 : b + 1], w.rho[a - 1 : b - 1], out=square)
        np.divide(d_rho, two_dt, out=d_rho)
        r9 = _rate_identity(d_rho, d_rho_I, self.ln_rho[a:b], self.mask[a:b], out=r)
        self._residual_norms(r9, square, "residual9", rows)

    def _residual_norms(self, r: np.ndarray, square: np.ndarray, name: str, rows: slice) -> None:
        """The L2 and Linf columns `name` of residual r at rows; r and square are
        overwritten."""
        dx = self.window.grid.dx
        self.out[f"{name}_l2"][rows] = np.sqrt(dx * np.multiply(r, r, out=square).sum(axis=1))
        self.out[f"{name}_linf"][rows] = np.abs(r, out=r).max(axis=1)

    def columns(self) -> dict:
        """The columns of `diagnose`, once every row has been added."""
        if self.n_done != len(self.t):
            raise ValueError(f"only {self.n_done + self.n_held} of {len(self.t)} rows added")
        dt = _sample_spacing(self.t)
        out = dict(self.out, t=self.t, floored_points=self.floored_points)
        out["dIdt_full"] = _rate(out["I"], dt)
        if self.subvolume is None:
            out["dIdt_fd"] = out["dIdt_full"]
            out["rhs_eq16"] = out["rhs_eq16_full"]
        else:
            out["dIdt_fd"] = _rate(self.i_sub, dt)
        out["rhs_eq15"] = -out["boundary_flux"] + out["rhs_eq16"]
        return out


def collect(
    wf: WaveFunction,
    potential: Potential,
    dt: float,
    n_steps: int,
    stride: int,
    stream: Diagnostics,
) -> None:
    """Evolve wf by n_steps; add its state to stream at the start and every
    `stride` steps, as the state or, from a free run, as its transform.

    The stream owns the block buffer: the loop (`split_steps`) writes each
    observed row straight into the stream's `held` rows, and the stream takes
    each filled block in one `Diagnostics.add_held` call, which checks it and
    flushes it.  So the stream must hold no rows that are not yet computed."""
    if stream.n_held:
        raise ValueError(f"collect fills a stream's blocks from their first row, but this "
                         f"one holds {stream.n_held} rows not yet computed")

    def on_block(steps: np.ndarray, spectral: bool) -> None:
        stream.add_held(wf.t + steps * dt, "transforms" if spectral else "states", wf.params)

    split_steps(wf, potential, dt, n_steps, range(0, n_steps + 1, stride), stream.held,
                on_block)


def diagnose(series: Series, subvolume=None) -> dict:
    """Every per-row diagnostic of a series, as arrays with one entry per row.

    Keys: the series.csv columns (t, norm, I, dIdt_fd, rhs_eq16,
    boundary_flux, rhs_eq15, residual13_l2, residual13_linf, residual9_l2,
    floored_points), residual9_linf, and the full-domain dIdt_full and
    rhs_eq16_full.  With a subvolume [a, b] (snapped to grid points),
    dIdt_fd, rhs_eq16 and the boundary flux refer to it and its integrals use
    the trapezoid rule; on the full periodic domain the flux is zero and the
    rectangle rule applies.  The time step is always the rows' sample spacing,
    which must be uniform.  dI/dt is one-sided at the two ends, where the
    residuals have no centred stencil and read zero.

    The series is copied into a `Diagnostics` a block of rows at a time, one
    slice per field, and takes the path of a run's rows: the balance laws read
    the series' own d rho/dx (`Series.drho`).
    """
    stream = Diagnostics(series.grid, len(series.t), series.reg_floor, subvolume)
    w = stream.window
    for lo in range(0, len(series.t), stream.height):
        rows = series.rows(lo, lo + stream.height)
        for name in _ROW_FIELDS[1:]:
            getattr(w, name)[2 : 2 + len(rows.t)] = getattr(rows, name)
        stream.add_held(rows.t, "fields")
    return stream.columns()


# |dI/dt| below which a sample takes no part in the sign witness
SIGN_DEADBAND = 1e-8


def _sign_witness(didt, rhs16) -> SignWitness:
    didt, rhs16 = np.asarray(didt, float)[1:-1], np.asarray(rhs16, float)[1:-1]
    eligible = ~(np.abs(didt) < SIGN_DEADBAND)
    n_eligible = int(np.count_nonzero(eligible))
    n_agree = int(np.count_nonzero(eligible & (np.sign(didt) == np.sign(rhs16))))
    fraction = 1.0 if n_eligible == 0 else n_agree / n_eligible
    return SignWitness(fraction=fraction, n_eligible=n_eligible, n_agree=n_agree)


def summarize(columns: dict) -> dict:
    """Run-level values of `diagnose` output.

    The eq 16 agreement and the sign witness use the full domain and the
    interior rows only.
    """
    didt, rhs16 = columns["dIdt_full"], columns["rhs_eq16_full"]
    if len(didt) > 2:
        didt_scale = max(float(np.max(np.abs(didt[1:-1]))), 1e-300)
        eq16_rel_err = float(np.max(np.abs(didt - rhs16)[1:-1])) / didt_scale
    else:
        eq16_rel_err = 0.0
    witness = _sign_witness(didt, rhs16)
    norm, info = columns["norm"], columns["I"]
    return {
        "final_t": float(columns["t"][-1]),
        "final_norm": float(norm[-1]),
        "norm_drift_max": float(np.max(np.abs(norm - 1.0))),
        "I_initial": float(info[0]),
        "I_final": float(info[-1]),
        "delta_I": float(info[-1] - info[0]),
        "max_residual13_l2": float(np.max(columns["residual13_l2"])),
        "max_residual13_linf": float(np.max(columns["residual13_linf"])),
        "max_residual9_l2": float(np.max(columns["residual9_l2"])),
        "eq16_rel_err": eq16_rel_err,
        "sign_witness_fraction": witness.fraction,
        "sign_witness_eligible": witness.n_eligible,
        "max_floored_points": int(np.max(columns["floored_points"])),
    }


def _stack(snapshots: list) -> Series:
    """Copy snapshots into a Series, keeping each one's own rho_I and drho."""
    grid = snapshots[0].den.rho.grid
    for s in snapshots:
        if not s.den.rho.grid.matches(grid):
            raise ValueError("mismatched grids")
    t, rho, current, velocity, floored, rho_I, drho = map(np.array, zip(*(
        (s.t, s.den.rho.values, s.den.current.values, s.den.velocity.values,
         s.den.floored_points, s.rho_I.values, s.den.drho.values) for s in snapshots)))
    return Series.of(grid, t, rho, current, velocity, floored, DEFAULT_REG_FLOOR, rho_I, drho)


def _centred(rows: Series, dt: float, residual: str) -> tuple[float, float]:
    """The (L2, Linf) columns of a `diagnose` residual at the middle of three
    rows taken to be at t-dt, t, t+dt, whatever their own times."""
    check_positive("dt", dt)
    # diagnose takes the time step from the times: both spacings of -dt, 0, dt
    # are dt exactly, for any finite dt
    out = diagnose(replace(rows, t=np.array([-dt, 0.0, dt])))
    return float(out[f"{residual}_l2"][1]), float(out[f"{residual}_linf"][1])


def rate_identity_residual(
    rho_prev: RealField,
    rho_mid: RealField,
    rho_next: RealField,
    dt: float,
    reg_floor: float = DEFAULT_REG_FLOOR,
) -> tuple[float, float]:
    """Chain-rule identity d(rho_I)/dt = -d(rho)/dt ln(rho), centered in time.

    Returns (L2, Linf) norms of the residual, masked where rho < reg_floor.
    Snapshots are at t-dt, t, t+dt on one grid.
    """
    grid = rho_mid.grid
    if not (grid.matches(rho_prev.grid) and grid.matches(rho_next.grid)):
        raise ValueError("mismatched grids")
    rho = np.array([r.values for r in (rho_prev, rho_mid, rho_next)])
    zeros = np.zeros_like(rho)
    rows = Series.of(grid, np.zeros(3), rho, zeros, zeros, 0, reg_floor)
    return _centred(rows, dt, "residual9")


def balance_residual(
    prev: Snapshot, mid: Snapshot, nxt: Snapshot, dt: float
) -> tuple[float, float]:
    """Local balance residual d(rho_I)/dt + d/dx[(rho_I - rho) v] + v d(rho)/dx.

    Time derivative by centered difference over dt, space derivatives spectral.
    Returns (L2, Linf); an exact identity for any wavefunction, so the result
    is pure discretization error.  The snapshots are taken to be at t-dt, t, t+dt,
    whatever their own times.
    """
    return _centred(_stack([prev, mid, nxt]), dt, "residual13")


def entropy_rate_check(
    snapshots: list[Snapshot], subvolume=None
) -> list[BalanceReport]:
    """Integral balance diagnostics along a uniformly spaced series of snapshots.

    See `diagnose` for the subvolume, quadrature and endpoint conventions.
    """
    if len(snapshots) < 1:
        raise ValueError("empty snapshot series")
    out = diagnose(_stack(snapshots), subvolume)
    keys = ("t", "residual13_l2", "residual13_linf", "dIdt_fd", "rhs_eq16",
            "boundary_flux", "rhs_eq15")
    return [BalanceReport(*map(float, row)) for row in zip(*(out[k] for k in keys))]


def sign_witness(reports: list[BalanceReport]) -> SignWitness:
    """Fraction of interior samples where sgn(dI/dt) matches sgn(-int v drho/dx).

    Samples with |dI/dt| below SIGN_DEADBAND are excluded, as are the series
    endpoints (one-sided differencing there flips signs spuriously at extrema
    of I).  Fraction is 1.0 when no sample is eligible.
    """
    return _sign_witness([r.dIdt_fd for r in reports], [r.rhs_eq16 for r in reports])

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

A run hands its samples to one consumer, `Diagnostics`, which takes them in
blocks of at most CHUNK_POINTS grid points.  Each block's rows get their
per-row columns and, with the two rows before the block carried along as a
halo, the centred residuals of every row whose neighbours have arrived; an
optional hook sees the block (to write snapshot files), and then the block's
buffers take the next rows.  So a run holds O(CHUNK_POINTS) field values plus
O(T) scalar columns.  `diagnose` adds a stored `Series` of (T, n) arrays to
the same consumer, so each column has one implementation; the per-instant
functions (`take_snapshot`, `balance_residual`, `rate_identity_residual`,
`entropy_rate_check`, `sign_witness`) pass small stacks through it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Grid1D, PhysicalParams, RealField, _spectral_derivative, _state_derivative, check_positive,
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
    """Madelung fields of one wavefunction: rho, j, v."""

    rho: RealField
    current: RealField
    velocity: RealField
    floored_points: int


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rho, the current j = (hbar/m) Im(psi* dpsi/dx) and v = j/rho of a (B, n) psi stack.

    The one computation of these fields.  psi = sqrt(rho) exp(i S / hbar) gives
    v = S'/m, taken as j/rho rather than from the gradient of the unwrapped
    phase, which has branch-cut artifacts where the density is low.  dpsi is
    dpsi/dx (`grid._state_derivative` of the states' transforms), and is
    overwritten; each row's values are those of the row taken alone.  v is
    floored (see DEFAULT_REG_FLOOR); the per-row counts of floored points are
    returned last.
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


def _info_density(r: np.ndarray, reg_floor: float) -> np.ndarray:
    """r (1 - ln r) where r >= reg_floor, and +0.0 where r is floored."""
    if np.any(r < 0.0):
        raise ValueError("negative density")
    mask = r >= reg_floor
    out = np.zeros_like(r)
    np.log(r, out=out, where=mask)
    np.subtract(1.0, out, out=out, where=mask)
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


_ROW_FIELDS = ("t", "rho", "current", "velocity", "rho_I", "floored_points")


@dataclass(frozen=True)
class Series:
    """Observed samples stacked along axis 0: row i holds the fields at t[i].

    rho, current, velocity and rho_I are (T, n) arrays; t and floored_points
    have one entry per row.  rho_I uses reg_floor, as does the rate identity.
    A run's block of rows (in `Diagnostics`) and the small stacks of the
    per-instant functions are Series; a run never stacks all its rows.
    """

    grid: Grid1D
    reg_floor: float
    t: np.ndarray
    rho: np.ndarray
    current: np.ndarray
    velocity: np.ndarray
    rho_I: np.ndarray
    floored_points: np.ndarray

    @classmethod
    def empty(cls, grid: Grid1D, n_rows: int, reg_floor: float = DEFAULT_REG_FLOOR):
        shape = (n_rows, grid.n)
        return cls(
            grid, reg_floor, np.zeros(n_rows),
            np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape),
            np.zeros(n_rows, dtype=int),
        )

    @classmethod
    def of(cls, grid: Grid1D, t, rho, current, velocity, floored_points=0,
           reg_floor: float = DEFAULT_REG_FLOOR, rho_I=None) -> "Series":
        """Rows of the (T, n) fields at the T times t; rho_I follows from rho
        unless given, and one floored_points count may stand for every row."""
        t, rho = np.asarray(t, dtype=float), np.asarray(rho, dtype=float)
        rho_I = _info_density(rho, reg_floor) if rho_I is None else np.asarray(rho_I, float)
        return cls(grid, reg_floor, t, rho, np.asarray(current, dtype=float),
                   np.asarray(velocity, dtype=float), rho_I,
                   np.broadcast_to(floored_points, t.shape).astype(int))

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
        )
        return Snapshot(t=float(self.t[i]), den=den, rho_I=rho_I, I=integrate(rho_I))


def take_snapshot(wf: WaveFunction, reg_floor: float = DEFAULT_REG_FLOOR) -> Snapshot:
    """The Madelung fields (`.den`), information density (`.rho_I`) and entropy
    (`.I`) of wf at its time `.t`."""
    psi = wf.psi[np.newaxis]
    fields = madelung_arrays(psi, _state_derivative(fft(psi), wf.grid), wf.params, reg_floor)
    return Series.of(wf.grid, [wf.t], *fields, reg_floor).snapshot(0)


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


def _rate_identity(rho: np.ndarray, d_rho: np.ndarray, d_rho_I: np.ndarray,
                   reg_floor: float) -> np.ndarray:
    """The rate identity's residual d(rho_I)/dt + d(rho)/dt ln rho where
    rho >= reg_floor, and +0.0 where rho is floored."""
    mask = rho >= reg_floor
    r9 = np.zeros_like(rho)
    np.log(rho, out=r9, where=mask)
    np.multiply(d_rho, r9, out=r9, where=mask)
    return np.add(d_rho_I, r9, out=r9, where=mask)


def _l2(dx: float, r: np.ndarray) -> np.ndarray:
    return np.sqrt(dx * np.sum(r * r, axis=1))


_COLUMNS = ("norm", "I", "rhs_eq16_full", "residual13_l2", "residual13_linf",
            "residual9_l2", "residual9_linf", "rhs_eq16", "boundary_flux")


class Diagnostics:
    """The `diagnose` columns of a series of rows that arrive in time order.

    A producer hands over the next row as a state, `add_state(t, psi, params)`,
    or as the state's transform, `add_state(t, None, params, psi_hat)`, or
    the next rows as a Series, `add(rows)`, into a block of at most
    CHUNK_POINTS // n rows, and of one row if n is larger.  A block that is
    full or holds the last row gets its per-row columns, and the centred
    residuals of every row whose two neighbours have arrived: the last two
    rows stay behind as a halo just ahead of the block, so a residual never
    depends on where a block ends.
    Then on_block(first_row, rows) sees the block's rows as a Series of views,
    and the block is reused.  The block, its halo and their temporaries are
    all the field memory a run holds; only the scalar columns grow with n_rows.

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
        self.subvolume = None if subvolume is None else _subvolume_indices(grid, subvolume)
        self.on_block = on_block
        self.height = height = max(1, min(n_rows, CHUNK_POINTS // grid.n))
        # rows 0 and 1 of the window are the halo, rows 2.. the block
        self.window = Series.empty(grid, height + 2, reg_floor)
        self.v_drho = np.empty((height + 2, grid.n))
        self.t = np.zeros(n_rows)
        self.floored_points = np.zeros(n_rows, dtype=int)
        self.i_sub = np.zeros(n_rows)
        self.out = {name: np.zeros(n_rows) for name in _COLUMNS}
        # the states or transforms of `add_state`, made by the first: `add` needs none
        self.held = None
        self.spectral = False  # whether the held rows are transforms
        self.n_done = 0  # rows whose block has been computed
        self.n_held = 0  # rows in the block, not yet computed

    def _next(self, count: int) -> int:
        """The block row the next row goes to; raises unless count more rows fit."""
        if self.n_done + self.n_held + count > len(self.t):
            raise ValueError(f"cannot add {count} rows after "
                             f"{self.n_done + self.n_held} of {len(self.t)}")
        return self.n_held

    def add_state(self, t: float, psi: np.ndarray | None, params: PhysicalParams,
                  psi_hat: np.ndarray | None = None) -> None:
        """Take the state at time t as the next row, given as psi or, with psi
        None, as its transform psi_hat = fft(psi).  The state must pass the
        checks a `WaveFunction` gets (finite, norm within 1e-8 of 1), and a
        block holds states or transforms, not both."""
        k = self._next(1)
        spectral = psi is None
        if k and spectral != self.spectral:
            raise ValueError("a block holds states or their transforms, not both")
        if self.held is None:
            self.held = np.empty((self.height, self.window.grid.n), complex)
        self.spectral = spectral
        self.window.t[2 + k] = t
        self.held[k] = psi_hat if spectral else psi
        if self._hold(1):
            self._observe(params)
            self._compute()

    def add(self, rows: Series) -> None:
        """Take the rows of a Series on this grid as the next rows."""
        self._next(len(rows.t))
        while len(rows.t):
            k = self.n_held
            count = min(len(rows.t), self.height - k)
            for name in _ROW_FIELDS:
                getattr(self.window, name)[2 + k : 2 + k + count] = getattr(rows, name)[:count]
            rows = rows.rows(count, len(rows.t))
            if self._hold(count):
                self._compute()

    def _hold(self, count: int) -> bool:
        """Hold count more rows; True once the block is full or holds the last row."""
        self.n_held += count
        return self.n_held == self.height or self.n_done + self.n_held == len(self.t)

    def _observe(self, params: PhysicalParams) -> None:
        """The Madelung fields of the held states, into the block; a method of its
        own, so its temporaries are freed before the block pass makes its own.

        The derivatives are the `_state_derivative` of the block's transforms: the
        held transforms, or one batched forward transform of the held states.  Held
        transforms then take one batched inverse transform for the states."""
        w, k, held = self.window, self.n_held, slice(2, 2 + self.n_held)
        psi = self.held[:k]
        dpsi = _state_derivative(psi if self.spectral else fft(psi), w.grid)
        if self.spectral:
            # the states overwrite their transforms, so this makes no more
            # complex blocks than a block of states does
            ifft(psi, out=psi)
        rho, j, v, floored = madelung_arrays(psi, dpsi, params, w.reg_floor)
        check_norms(w.grid.dx * rho.sum(axis=1))
        w.rho[held], w.current[held], w.velocity[held] = rho, j, v
        w.rho_I[held] = _info_density(rho, w.reg_floor)
        w.floored_points[held] = floored

    def _compute(self) -> None:
        """The columns of the held rows; then the block takes the next rows."""
        count = self.n_held
        lo, hi = self.n_done, self.n_done + count
        w, grid, out = self.window, self.window.grid, self.out
        rows = slice(2, 2 + count)
        rho, v, rho_I = w.rho[rows], w.velocity[rows], w.rho_I[rows]
        v_drho = np.multiply(v, _spectral_derivative(rho, grid), out=self.v_drho[rows])
        self.t[lo:hi] = w.t[rows]
        self.floored_points[lo:hi] = w.floored_points[rows]
        out["norm"][lo:hi] = grid.dx * rho.sum(axis=1)
        out["I"][lo:hi] = grid.dx * rho_I.sum(axis=1)
        out["rhs_eq16_full"][lo:hi] = -(grid.dx * v_drho.sum(axis=1))
        if self.subvolume is not None:
            ia, ib = self.subvolume
            xs = grid.x[ia : ib + 1]
            self.i_sub[lo:hi] = np.trapezoid(rho_I[:, ia : ib + 1], xs, axis=1)
            out["rhs_eq16"][lo:hi] = -np.trapezoid(v_drho[:, ia : ib + 1], xs, axis=1)
            g = (rho_I[:, [ia, ib]] - rho[:, [ia, ib]]) * v[:, [ia, ib]]
            out["boundary_flux"][lo:hi] = g[:, 1] - g[:, 0]
        # rows lo-1 .. hi-2 now have both neighbours; row 0 never does
        first = max(lo - 1, 1)
        if first < hi - 1:
            self._residuals(first - lo + 2, hi - 1 - lo + 2, first)
        if self.on_block is not None:
            self.on_block(lo, w.rows(2, 2 + count))
        for a in (w.rho, w.rho_I, w.velocity, self.v_drho):
            a[:2] = a[count : count + 2]
        self.n_done, self.n_held = hi, 0

    def _residuals(self, a: int, b: int, first: int) -> None:
        """Local balance law and rate identity at window rows a..b-1 (series rows first..)."""
        w, grid = self.window, self.window.grid
        dt = float(self.t[1] - self.t[0])
        rho, v, rho_I = w.rho[a:b], w.velocity[a:b], w.rho_I[a:b]
        d_rho_I = (w.rho_I[a + 1 : b + 1] - w.rho_I[a - 1 : b - 1]) / (2.0 * dt)
        div_flux = _spectral_derivative((rho_I - rho) * v, grid)
        r13 = d_rho_I + div_flux + self.v_drho[a:b]
        rows = slice(first, first + b - a)
        self.out["residual13_l2"][rows] = _l2(grid.dx, r13)
        self.out["residual13_linf"][rows] = np.max(np.abs(r13), axis=1)
        d_rho = (w.rho[a + 1 : b + 1] - w.rho[a - 1 : b - 1]) / (2.0 * dt)
        r9 = _rate_identity(rho, d_rho, d_rho_I, w.reg_floor)
        self.out["residual9_l2"][rows] = _l2(grid.dx, r9)
        self.out["residual9_linf"][rows] = np.max(np.abs(r9), axis=1)

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
    `stride` steps (`Diagnostics.add_state`), as the state or, from a free
    run, as its transform."""
    def on_row(i: int, psi, psi_hat) -> None:
        stream.add_state(wf.t + i * dt, psi, wf.params, psi_hat)

    split_steps(wf, potential, dt, n_steps, on_row, range(0, n_steps + 1, stride))


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

    The series goes through a `Diagnostics` a block of rows at a time, as a
    run's rows do.
    """
    stream = Diagnostics(series.grid, len(series.t), series.reg_floor, subvolume)
    stream.add(series)
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
    """Copy snapshots into a Series, keeping each one's own rho_I."""
    grid = snapshots[0].den.rho.grid
    for s in snapshots:
        if not s.den.rho.grid.matches(grid):
            raise ValueError("mismatched grids")
    t, rho, current, velocity, floored, rho_I = map(np.array, zip(*(
        (s.t, s.den.rho.values, s.den.current.values, s.den.velocity.values,
         s.den.floored_points, s.rho_I.values) for s in snapshots)))
    return Series.of(grid, t, rho, current, velocity, floored, DEFAULT_REG_FLOOR, rho_I)


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

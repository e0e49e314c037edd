"""Flat key = value run configuration with line-precise validation errors.

Format: UTF-8 text, one `key = value` per line, `#` starts a comment, blank
lines ignored.  Unknown keys, type mismatches, and violated physical bounds
are all reported with the offending line number.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .climit import SpecError, SweepSpec
from .entropy import _subvolume_indices, bin_size, check_normalized
from .grid import Grid1D, PhysicalParams, RealField, check_positive, check_size
from .oracle import _normal_density
from .propagate import Potential, check_dt, check_wavenumber, check_width


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@contextmanager
def _at_line(line: int | None):
    """Report a ValueError raised by the enclosed checks as a ConfigError at line."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), line) from exc


def _tokenize(text: str) -> dict:
    """Map key -> (raw value, line number)."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        entries[key] = (value, lineno)
    return entries


def _finite(x: float) -> float:
    if not np.isfinite(x):
        raise ValueError(x)
    return x


def _convert(kind: str, value: str, key: str, line: int):
    try:
        if kind == "float":
            return _finite(float(value))
        if kind == "int":
            return int(value)
        if kind == "bool":
            if value.lower() in ("true", "yes", "1"):
                return True
            if value.lower() in ("false", "no", "0"):
                return False
            raise ValueError(value)
        if kind == "str":
            return value
        if kind == "float_list":
            items = [s.strip() for s in value.split(",") if s.strip()]
            if not items:
                raise ValueError(value)
            return tuple(_finite(float(s)) for s in items)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as finite {kind}", line)
    raise AssertionError(f"unknown schema kind {kind}")


class _Entries:
    """Typed access to tokenized entries against a fixed schema."""

    def __init__(self, text: str, schema: dict):
        self.schema = schema
        self.raw = _tokenize(text)
        for key, (_, line) in self.raw.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r}", line)

    def has(self, key: str) -> bool:
        return key in self.raw

    def line(self, key: str) -> int | None:
        return self.raw[key][1] if key in self.raw else None

    def get(self, key: str, default=None):
        if key not in self.raw:
            return default
        value, line = self.raw[key]
        return _convert(self.schema[key], value, key, line)

    def require(self, key: str):
        if key not in self.raw:
            raise ConfigError(f"missing required key {key!r}")
        return self.get(key)

    def positive(self, key: str, default=None):
        """The value of key (required if there is no default), checked positive."""
        value = self.require(key) if default is None else self.get(key, default)
        with _at_line(self.line(key)):
            check_positive(key, value)
        return value

    def grid(self) -> Grid1D:
        n = self.require("n")
        x_min, x_max = self.require("x_min"), self.require("x_max")
        with _at_line(self.line("n")):
            check_size(n)
        with _at_line(self.line("x_max")):
            return Grid1D(x_min, x_max, n)

    def check_inside(self, grid: Grid1D, key: str) -> None:
        if self.has(key):
            with _at_line(self.line(key)):
                grid.check_inside(key, self.get(key))


@dataclass(frozen=True)
class RunConfig:
    grid: Grid1D
    params: PhysicalParams
    initial_kind: str  # gaussian | coherent
    sigma0: float      # effective initial width (derived for coherent)
    x0: float
    k0: float
    omega: float | None
    amplitude: float | None
    potential: Potential
    dt: float
    t_final: float
    n_steps: int
    observe_stride: int
    reg_floor: float
    subvolume: tuple[float, float] | None
    save_snapshots: bool
    norm_tol: float
    eq16_rel_tol: float | None


_RUN_SCHEMA = {
    "x_min": "float",
    "x_max": "float",
    "n": "int",
    "hbar": "float",
    "mass": "float",
    "initial": "str",
    "sigma0": "float",
    "x0": "float",
    "k0": "float",
    "omega": "float",
    "amplitude": "float",
    "potential": "str",
    "potential_omega": "float",
    "potential_center": "float",
    "barrier_height": "float",
    "barrier_width": "float",
    "barrier_center": "float",
    "dt": "float",
    "t_final": "float",
    "observe_stride": "int",
    "reg_floor": "float",
    "subvolume_a": "float",
    "subvolume_b": "float",
    "save_snapshots": "bool",
    "norm_tol": "float",
    "eq16_rel_tol": "float",
}


def parse_config(text: str) -> RunConfig:
    e = _Entries(text, _RUN_SCHEMA)
    grid = e.grid()

    hbar, mass = e.positive("hbar", 1.0), e.positive("mass", 1.0)
    params = PhysicalParams(hbar=hbar, mass=mass)

    initial = e.get("initial", "gaussian")
    if initial not in ("gaussian", "coherent"):
        raise ConfigError(
            f"initial must be 'gaussian' or 'coherent', got {initial!r}",
            e.line("initial"),
        )
    for key in ("x0", "amplitude"):
        e.check_inside(grid, key)
    omega = amplitude = None
    if initial == "gaussian":
        sigma0 = e.require("sigma0")
        width_line = e.line("sigma0")
    else:
        omega = e.positive("omega")
        amplitude = e.require("amplitude")
        sigma0 = float(np.sqrt(hbar / (2.0 * mass * omega)))
        width_line = e.line("omega")
    with _at_line(width_line):
        check_width(grid, sigma0)
    with _at_line(e.line("k0")):
        check_wavenumber(grid, sigma0, e.get("k0", 0.0))

    pot_kind = e.get("potential", "free")
    with _at_line(e.line("potential")):
        if pot_kind == "free":
            potential = Potential.free()
        elif pot_kind == "harmonic":
            potential = Potential.harmonic(
                e.require("potential_omega"), e.get("potential_center", 0.0)
            )
        elif pot_kind == "gaussian_barrier":
            potential = Potential.gaussian_barrier(
                e.require("barrier_height"),
                e.require("barrier_width"),
                e.get("barrier_center", 0.0),
            )
        else:
            raise ConfigError(
                f"potential must be free, harmonic, or gaussian_barrier, "
                f"got {pot_kind!r}",
                e.line("potential"),
            )

    dt = e.positive("dt")
    with _at_line(e.line("dt")):
        check_dt(grid, params, dt)

    t_final = e.require("t_final")
    if t_final < 0.0:
        raise ConfigError(f"t_final must be >= 0, got {t_final}", e.line("t_final"))
    n_steps = int(round(t_final / dt))
    if abs(t_final / dt - n_steps) > 1e-9 * max(n_steps, 1):
        raise ConfigError(
            f"t_final = {t_final} is not a whole number of steps dt = {dt}",
            e.line("t_final"),
        )

    observe_stride = e.get("observe_stride", 10)
    if observe_stride < 1 or n_steps % observe_stride:
        raise ConfigError(
            f"observe_stride = {observe_stride} must be >= 1 and divide the "
            f"{n_steps} steps",
            e.line("observe_stride") or e.line("t_final"),
        )
    reg_floor = e.positive("reg_floor", 1e-12)

    subvolume = None
    if e.has("subvolume_a") or e.has("subvolume_b"):
        if not (e.has("subvolume_a") and e.has("subvolume_b")):
            raise ConfigError(
                "subvolume_a and subvolume_b must be given together",
                e.line("subvolume_a") or e.line("subvolume_b"),
            )
        subvolume = (e.get("subvolume_a"), e.get("subvolume_b"))
        with _at_line(e.line("subvolume_a")):
            _subvolume_indices(grid, subvolume)

    return RunConfig(
        grid=grid,
        params=params,
        initial_kind=initial,
        sigma0=sigma0,
        x0=e.get("x0", 0.0),
        k0=e.get("k0", 0.0),
        omega=omega,
        amplitude=amplitude,
        potential=potential,
        dt=dt,
        t_final=t_final,
        n_steps=n_steps,
        observe_stride=observe_stride,
        reg_floor=reg_floor,
        subvolume=subvolume,
        save_snapshots=e.get("save_snapshots", False),
        norm_tol=e.get("norm_tol", 1e-8),
        eq16_rel_tol=e.get("eq16_rel_tol", None),
    )


_SWEEP_SCHEMA = {
    "epsilons": "float_list",
    "t_c": "float",
    "L_c": "float",
    "x_min": "float",
    "x_max": "float",
    "n": "int",
    "mass": "float",
    "x0": "float",
    "k0": "float",
    "dt_ref": "float",
    "n_samples": "int",
    "reg_floor": "float",
}


def parse_sweep_config(text: str) -> SweepSpec:
    e = _Entries(text, _SWEEP_SCHEMA)
    for key in ("epsilons", "t_c", "L_c"):
        e.require(key)
    try:
        return SweepSpec(**{key: e.get(key) for key in e.raw})
    except SpecError as exc:
        line = next((e.line(key) for key in exc.keys if e.has(key)), None)
        raise ConfigError(str(exc), line) from exc


@dataclass(frozen=True)
class BinningConfig:
    grid: Grid1D
    sigma0: float
    x0: float
    bin_widths: tuple
    reg_floor: float


_BINNING_SCHEMA = {
    "x_min": "float",
    "x_max": "float",
    "n": "int",
    "sigma0": "float",
    "x0": "float",
    "bin_widths": "float_list",
    "reg_floor": "float",
}


def parse_binning_config(text: str) -> BinningConfig:
    e = _Entries(text, _BINNING_SCHEMA)
    grid = e.grid()
    sigma0 = e.positive("sigma0")
    e.check_inside(grid, "x0")
    x0 = e.get("x0", 0.0)
    bin_widths = e.require("bin_widths")
    with _at_line(e.line("bin_widths")):
        for dq in bin_widths:
            bin_size(grid, dq)
    with _at_line(e.line("sigma0")):
        check_normalized(RealField(grid, _normal_density(grid.x, x0, sigma0**2)))
    return BinningConfig(
        grid=grid,
        sigma0=sigma0,
        x0=x0,
        bin_widths=bin_widths,
        reg_floor=e.positive("reg_floor", 1e-12),
    )

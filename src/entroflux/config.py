"""Flat key = value configs for `simulate`/`oracle`, `sweep` and `binning`.

All three share one grammar and one parser, `_parse`: UTF-8 text, one
`key = value` per line, `#` starts a comment, blank lines are ignored.  A
malformed line, a duplicate or unknown key, or a value that does not convert
(numbers must be finite; bools are true/yes/1 or false/no/0) is reported at
its line.  A missing required key is reported without a line.  Each config's
builder then checks the values; a failed check is a `SpecError` naming the
keys at fault and is reported at the line of the first of them the text sets.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .climit import SweepSpec
from .entropy import _subvolume_indices, bin_size, check_normalized
from .grid import Grid1D, PhysicalParams, RealField, SpecError, about, positive, step_count
from .oracle import _normal_density
from .propagate import Potential, check_dt, check_wavenumber, check_width


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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


def _parse(text: str, schema: dict, build):
    """build(**values) for the keys of schema, a map key -> (kind, default).

    A key the text does not set takes its default; a default of MISSING makes
    it required.  A SpecError from build is reported at the line of the first
    key it names that the text sets.
    """
    raw = _tokenize(text)
    for key, (_, line) in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r}", line)
    values = {key: _convert(schema[key][0], value, key, line)
              for key, (value, line) in raw.items()}
    for key, (_, default) in schema.items():
        if key not in values:
            if default is MISSING:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    try:
        return build(**values)
    except SpecError as exc:
        line = next((raw[key][1] for key in exc.keys if key in raw), None)
        raise ConfigError(str(exc), line) from exc


def _required(**values) -> None:
    """Raise on the first of the keys (optional in the schema) left unset."""
    for key, value in values.items():
        if value is None:
            raise SpecError(f"missing required key {key!r}", (key,))


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
    n_steps: int
    observe_stride: int
    reg_floor: float
    subvolume: tuple[float, float] | None
    save_snapshots: bool
    norm_tol: float
    eq16_rel_tol: float | None


_RUN_SCHEMA = {
    "x_min": ("float", MISSING),
    "x_max": ("float", MISSING),
    "n": ("int", MISSING),
    "hbar": ("float", 1.0),
    "mass": ("float", 1.0),
    "initial": ("str", "gaussian"),
    "sigma0": ("float", None),
    "x0": ("float", None),
    "k0": ("float", 0.0),
    "omega": ("float", None),
    "amplitude": ("float", None),
    "potential": ("str", "free"),
    "potential_omega": ("float", None),
    "potential_center": ("float", 0.0),
    "barrier_height": ("float", None),
    "barrier_width": ("float", None),
    "barrier_center": ("float", 0.0),
    "dt": ("float", MISSING),
    "t_final": ("float", MISSING),
    "observe_stride": ("int", 10),
    "reg_floor": ("float", 1e-12),
    "subvolume_a": ("float", None),
    "subvolume_b": ("float", None),
    "save_snapshots": ("bool", False),
    "norm_tol": ("float", 1e-8),
    "eq16_rel_tol": ("float", None),
}


def _run_config(
    *, x_min, x_max, n, hbar, mass, initial, sigma0, x0, k0, omega, amplitude,
    potential, potential_omega, potential_center, barrier_height, barrier_width,
    barrier_center, dt, t_final, observe_stride, reg_floor, subvolume_a,
    subvolume_b, save_snapshots, norm_tol, eq16_rel_tol,
) -> RunConfig:
    grid = Grid1D(x_min, x_max, n)
    positive(hbar=hbar, mass=mass)
    params = PhysicalParams(hbar=hbar, mass=mass)

    if initial not in ("gaussian", "coherent"):
        raise SpecError(f"initial must be 'gaussian' or 'coherent', got {initial!r}",
                        ("initial",))
    for key, value in (("x0", x0), ("amplitude", amplitude)):
        if value is not None:
            with about(key):
                grid.check_inside(key, value)
    if initial == "gaussian":
        _required(sigma0=sigma0)
        width_key = "sigma0"
    else:
        _required(omega=omega, amplitude=amplitude)
        positive(omega=omega)
        with about("omega"):
            sigma0 = float(np.sqrt(hbar / (2.0 * mass * omega)))
        width_key = "omega"
    with about(width_key):
        check_width(grid, sigma0)
    with about("k0"):
        check_wavenumber(grid, sigma0, k0)

    if potential == "free":
        pot = Potential.free()
    elif potential == "harmonic":
        _required(potential_omega=potential_omega)
        with about("potential_omega"):
            pot = Potential.harmonic(potential_omega, potential_center)
    elif potential == "gaussian_barrier":
        _required(barrier_height=barrier_height, barrier_width=barrier_width)
        with about("barrier_width"):
            pot = Potential.gaussian_barrier(barrier_height, barrier_width, barrier_center)
    else:
        raise SpecError(f"potential must be free, harmonic, or gaussian_barrier, "
                        f"got {potential!r}", ("potential",))

    positive(dt=dt)
    if t_final < 0.0:
        raise SpecError(f"t_final must be >= 0, got {t_final}", ("t_final",))
    with about("dt"):
        check_dt(grid, params, dt)
        n_steps = step_count(t_final / dt)
    if abs(t_final / dt - n_steps) > 1e-9 * max(n_steps, 1):
        raise SpecError(f"t_final = {t_final} is not a whole number of steps dt = {dt}",
                        ("t_final",))
    if observe_stride < 1 or n_steps % observe_stride:
        raise SpecError(f"observe_stride = {observe_stride} must be >= 1 and divide the "
                        f"{n_steps} steps", ("observe_stride", "t_final"))
    positive(reg_floor=reg_floor)

    subvolume = None
    if (subvolume_a, subvolume_b) != (None, None):
        if None in (subvolume_a, subvolume_b):
            raise SpecError("subvolume_a and subvolume_b must be given together",
                            ("subvolume_a", "subvolume_b"))
        subvolume = (subvolume_a, subvolume_b)
        with about("subvolume_a"):
            _subvolume_indices(grid, subvolume)

    return RunConfig(
        grid=grid,
        params=params,
        initial_kind=initial,
        sigma0=sigma0,
        x0=0.0 if x0 is None else x0,
        k0=k0,
        omega=omega,
        amplitude=amplitude,
        potential=pot,
        dt=dt,
        n_steps=n_steps,
        observe_stride=observe_stride,
        reg_floor=reg_floor,
        subvolume=subvolume,
        save_snapshots=save_snapshots,
        norm_tol=norm_tol,
        eq16_rel_tol=eq16_rel_tol,
    )


def parse_config(text: str) -> RunConfig:
    return _parse(text, _RUN_SCHEMA, _run_config)


# SweepSpec's fields are the sweep config's keys, with their types and defaults
_SWEEP_SCHEMA = {
    f.name: ({"tuple": "float_list"}.get(f.type, f.type), f.default)
    for f in fields(SweepSpec)
}


def parse_sweep_config(text: str) -> SweepSpec:
    return _parse(text, _SWEEP_SCHEMA, SweepSpec)


@dataclass(frozen=True)
class BinningConfig:
    grid: Grid1D
    sigma0: float
    x0: float
    bin_widths: tuple
    reg_floor: float


_BINNING_SCHEMA = {
    "x_min": ("float", MISSING),
    "x_max": ("float", MISSING),
    "n": ("int", MISSING),
    "sigma0": ("float", MISSING),
    "x0": ("float", 0.0),
    "bin_widths": ("float_list", MISSING),
    "reg_floor": ("float", 1e-12),
}


def _binning_config(*, x_min, x_max, n, sigma0, x0, bin_widths, reg_floor) -> BinningConfig:
    grid = Grid1D(x_min, x_max, n)
    positive(sigma0=sigma0)
    with about("x0", "x_min", "x_max"):
        grid.check_inside("x0", x0)
    with about("bin_widths"):
        for dq in bin_widths:
            bin_size(grid, dq)
    with about("sigma0"):
        check_normalized(RealField(grid, _normal_density(grid.x, x0, sigma0**2)))
    positive(reg_floor=reg_floor)
    return BinningConfig(grid, sigma0, x0, bin_widths, reg_floor)


def parse_binning_config(text: str) -> BinningConfig:
    return _parse(text, _BINNING_SCHEMA, _binning_config)

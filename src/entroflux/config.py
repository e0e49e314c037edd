"""Flat key = value configs for `simulate`/`oracle`, `sweep` and `binning`.

All three share one grammar and one parser, `_parse`: UTF-8 text, one
`key = value` per line, `#` starts a comment, blank lines are ignored.  A
malformed line, a duplicate or unknown key, or a value that does not convert
(numbers must be finite; bools are true/yes/1 or false/no/0) is reported at
its line.  A missing required key is reported without a line.  A config's
keys, with their kinds and defaults, are its builder's parameters (`_schema`).
The builder checks the values; a failed check is a `SpecError` naming the keys
at fault and is reported at the line of the first of them the text sets.
`oracle` reads the `simulate` schema; its builder also requires a scenario with
a closed form (`oracle.closed_form`).  A `sweep` row is a `simulate` run: its
`RunConfig` comes from `_run_config` (`SweepSpec.row_config`), and a failed
row check names the sweep keys that set the value at fault.
"""
from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, field

import numpy as np

from .entropy import (
    DEFAULT_REG_FLOOR, _subvolume_indices, bin_size, check_normalized, check_reg_floor,
)
from .grid import (
    Grid1D, PhysicalParams, RealField, SpecError, about, check_points, check_rows, check_work,
    positive, step_count,
)
from .oracle import _normal_density, closed_form
from .propagate import Potential, check_dt, check_potential, check_wavenumber, check_width


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


def _schema(build) -> dict:
    """The schema of build's parameters: key -> (kind, default).

    The kind is the parameter's annotation, with `float | None` a float the
    text may leave unset and `tuple` a float_list; a parameter without a
    default is a required key.
    """
    schema = {}
    for p in inspect.signature(build).parameters.values():
        kind = p.annotation.removesuffix(" | None")
        schema[p.name] = ({"tuple": "float_list"}.get(kind, kind),
                          MISSING if p.default is p.empty else p.default)
    return schema


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
    x0: float          # the packet's centre: amplitude for a coherent packet
    k0: float
    omega: float | None
    potential: Potential
    dt: float
    n_steps: int
    observe_stride: int
    reg_floor: float
    subvolume: tuple[float, float] | None
    save_snapshots: bool
    norm_tol: float
    eq16_rel_tol: float | None

    @property
    def n_rows(self) -> int:  # the initial state and one every observe_stride steps
        return self.n_steps // self.observe_stride + 1


def _run_config(
    *, x_min: float, x_max: float, n: int, hbar: float = 1.0, mass: float = 1.0,
    initial: str = "gaussian", sigma0: float | None = None, x0: float | None = None,
    k0: float = 0.0, omega: float | None = None, amplitude: float | None = None,
    potential: str = "free", potential_omega: float | None = None,
    potential_center: float = 0.0, barrier_height: float | None = None,
    barrier_width: float | None = None, barrier_center: float = 0.0,
    dt: float, t_final: float, observe_stride: int = 10, reg_floor: float = DEFAULT_REG_FLOOR,
    subvolume_a: float | None = None, subvolume_b: float | None = None,
    save_snapshots: bool = False, norm_tol: float = 1e-8, eq16_rel_tol: float | None = None,
) -> RunConfig:
    grid = Grid1D(x_min, x_max, n)
    positive(hbar=hbar, mass=mass)
    params = PhysicalParams(hbar=hbar, mass=mass)

    if initial not in ("gaussian", "coherent"):
        raise SpecError(f"initial must be 'gaussian' or 'coherent', got {initial!r}",
                        ("initial",))
    if initial == "coherent":
        # the coherent packet is derived from omega and amplitude alone
        for key, is_set in (("sigma0", sigma0 is not None), ("x0", x0 is not None),
                            ("k0", k0 != 0.0)):
            if is_set:
                raise SpecError(f"{key} does not apply to initial = coherent: the packet is "
                                f"the ground state of omega, at rest at x = amplitude", (key,))
    elif x0 is None:
        x0 = 0.0  # a Gaussian packet's default centre, checked as a given one is
    for key, value in (("x0", x0), ("amplitude", amplitude)):
        if value is not None:
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
        # the packet rests at x = amplitude; k0 is set, as a written -0 passed the check
        x0, k0 = amplitude, 0.0
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
        check_work(n_steps, grid.n)
    with about("potential"):
        check_potential(grid, params, pot, dt)
    if abs(t_final / dt - n_steps) > 1e-9 * max(n_steps, 1):
        raise SpecError(f"t_final = {t_final} is not a whole number of steps dt = {dt}",
                        ("t_final",))
    if observe_stride < 1 or n_steps % observe_stride:
        raise SpecError(f"observe_stride = {observe_stride} must be >= 1 and divide the "
                        f"{n_steps} steps", ("observe_stride", "t_final"))
    n_rows = n_steps // observe_stride + 1
    with about("observe_stride"):
        check_rows(n_rows)
    with about("reg_floor"):
        check_reg_floor(grid, reg_floor)

    subvolume = None
    if (subvolume_a, subvolume_b) != (None, None):
        if None in (subvolume_a, subvolume_b):
            raise SpecError("subvolume_a and subvolume_b must be given together",
                            ("subvolume_a", "subvolume_b"))
        subvolume = (subvolume_a, subvolume_b)
        with about("subvolume_a"):
            _subvolume_indices(grid, subvolume)
    positive(norm_tol=norm_tol)
    if eq16_rel_tol is not None:
        positive(eq16_rel_tol=eq16_rel_tol)
        if n_rows < 3:
            raise SpecError(f"eq16_rel_tol checks the interior rows, but {n_rows} observed "
                            f"rows leave no centred difference", ("eq16_rel_tol",))

    return RunConfig(
        grid=grid,
        params=params,
        initial_kind=initial,
        sigma0=sigma0,
        x0=x0,
        k0=k0,
        omega=omega,
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


_RUN_SCHEMA = _schema(_run_config)


def parse_config(text: str) -> RunConfig:
    return _parse(text, _RUN_SCHEMA, _run_config)


def _oracle_config(**values) -> RunConfig:
    cfg = _run_config(**values)
    closed_form(cfg)
    return cfg


def parse_oracle_config(text: str) -> RunConfig:
    """parse_config for `oracle`: the scenario must also have a closed form."""
    return _parse(text, _RUN_SCHEMA, _oracle_config)


# The sweep keys that set each run key of a sweep row; a run key not named
# here is a sweep key of the same name.  A row's step is dt_ref * eps_max /
# eps, at most t_c / n_samples, and its kinetic phase also scales with
# hbar = eps * mass * L_c**2 / t_c.
_STEP_KEYS = ("dt_ref", "epsilons", "t_c", "L_c")
_ROW_KEYS = {
    "sigma0": ("L_c", "n", "x_max", "x_min"),
    "dt": _STEP_KEYS,
    "t_final": _STEP_KEYS,
    "observe_stride": ("n_samples",),
}


@dataclass(frozen=True)
class SweepSpec:
    """The classical-limit sweep over the dimensionless eps = hbar*t_c/(m*L_c^2).

    eps is realized by scaling hbar with m, L_c (the initial packet width) and
    t_c fixed, so grid and time-step economics stay put.  The sweep observable
    is the entropy change over [0, t_c] of a free Gaussian packet; for that
    scenario the closed form is delta_I = 0.5*ln(1 + eps^2/4), vanishing
    quadratically as eps -> 0.  The per-step kinetic phase is held
    eps-independent by scaling dt ~ 1/hbar, up to a cap of t_c / n_samples,
    so a row at small eps still takes n_samples steps.  n_samples is at least
    2, which gives every row the 3 samples of a centred difference.

    Each row is the `simulate` run of its `row_config`.  The spec builds the
    rows' configs when it is made, so a row is checked as `simulate` checks
    a run; a failed check is a SpecError naming the sweep keys at fault.
    """

    epsilons: tuple
    t_c: float
    L_c: float
    x_min: float = -20.0
    x_max: float = 20.0
    n: int = 1024
    mass: float = 1.0
    x0: float = 0.0
    k0: float = 0.0
    dt_ref: float = 2e-3
    n_samples: int = 100
    reg_floor: float = DEFAULT_REG_FLOOR
    # the `row_config` of each epsilon, in order
    row_configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        with about("epsilons"):
            if len(eps) == 0:
                raise ValueError("epsilons must be nonempty")
            if any(not e > 0.0 for e in eps):
                raise ValueError("epsilons must be positive")
            if any(nxt >= prv for prv, nxt in zip(eps[:-1], eps[1:])):
                raise ValueError("epsilons must be strictly descending")
        positive(**{key: getattr(self, key)
                    for key in ("t_c", "L_c", "mass", "dt_ref", "n_samples")})
        with about("n_samples"):
            if self.n_samples < 2:
                raise ValueError(f"n_samples must be at least 2, got {self.n_samples}: a row "
                                 f"needs 3 samples for a centred difference")
        object.__setattr__(self, "row_configs", tuple(map(self.row_config, eps)))

    def hbar_for(self, eps: float) -> float:
        return eps * self.mass * self.L_c**2 / self.t_c

    def time_grid(self, eps: float) -> tuple[float, float, int, int]:
        """hbar, dt, n_steps and stride of the row at eps.

        dt = dt_ref * eps_max / eps scales as 1/hbar, which holds the per-step
        kinetic phase fixed, up to t_c / n_samples: a row takes at least n_samples
        steps.  The steps are whole strides, so the last sample is at t_c.  The step
        count and work (n checked first) are refused on t_c and the key that sets them.
        """
        with about("L_c"):  # L_c**2 may overflow, or underflow to 0
            hbar = self.hbar_for(eps)
            if not hbar > 0.0:
                raise ValueError(f"hbar = eps*mass*L_c**2/t_c must be positive, got {hbar} "
                                 f"at eps = {eps}")
        with about("dt_ref", "t_c"):  # the first row's t_c / dt_ref steps are the most
            dt = self.dt_ref * self.epsilons[0] / eps
            n_steps = step_count(self.t_c / dt)
        with about("n_samples" if n_steps < self.n_samples else "dt_ref", "t_c"):
            n_steps = max(n_steps, self.n_samples)  # dt at most t_c / n_samples
            stride = max(1, int(round(n_steps / self.n_samples)))
            n_steps = stride * max(1, int(round(n_steps / stride)))
            check_points(self.n)
            check_work(n_steps, self.n)
        return hbar, self.t_c / n_steps, n_steps, stride

    def row_config(self, eps: float) -> RunConfig:
        """The `simulate` config of the row at eps: the packet of width L_c,
        run free to t_c on the row's `time_grid`."""
        try:
            hbar, dt, _, stride = self.time_grid(eps)
            return _run_config(
                x_min=self.x_min, x_max=self.x_max, n=self.n, hbar=hbar, mass=self.mass,
                sigma0=self.L_c, x0=self.x0, k0=self.k0, dt=dt, t_final=self.t_c,
                observe_stride=stride, reg_floor=self.reg_floor,
            )
        except SpecError as exc:
            keys = tuple(k for key in exc.keys for k in _ROW_KEYS.get(key, (key,)))
            raise SpecError(str(exc), keys) from exc


_SWEEP_SCHEMA = _schema(SweepSpec)


def parse_sweep_config(text: str) -> SweepSpec:
    return _parse(text, _SWEEP_SCHEMA, SweepSpec)


@dataclass(frozen=True)
class BinningConfig:
    grid: Grid1D
    rho: RealField  # the normal density of sigma0 about x0
    bin_widths: tuple
    reg_floor: float


def _binning_config(
    *, x_min: float, x_max: float, n: int, sigma0: float, x0: float = 0.0,
    bin_widths: tuple, reg_floor: float = DEFAULT_REG_FLOOR,
) -> BinningConfig:
    grid = Grid1D(x_min, x_max, n)
    positive(sigma0=sigma0)
    grid.check_inside("x0", x0)
    with about("bin_widths"):
        for dq in bin_widths:
            bin_size(grid, dq)
    with about("sigma0"):
        with np.errstate(all="ignore"):  # refused below if it is not finite
            rho = _normal_density(grid.x, x0, sigma0**2)
        if not np.all(np.isfinite(rho)):
            raise ValueError(f"the normal density of sigma0 = {sigma0} is not finite on the grid")
        rho = RealField(grid, rho)
        check_normalized(rho)
    with about("reg_floor"):
        check_reg_floor(grid, reg_floor)
    return BinningConfig(grid, rho, bin_widths, reg_floor)


_BINNING_SCHEMA = _schema(_binning_config)


def parse_binning_config(text: str) -> BinningConfig:
    return _parse(text, _BINNING_SCHEMA, _binning_config)

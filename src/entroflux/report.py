"""Run orchestration and deterministic file outputs.

A run produces a time series of diagnostic rows (series.csv), a summary with
tolerance checks (summary.json), and optional per-sample field dumps, which are
written a block of rows at a time while the run goes on.  A sweep is one
`run_simulation` per epsilon, of the `RunConfig` that `SweepSpec.row_config`
builds for the row, and writes a line of each row's summary (sweep.csv).  All
output is byte-deterministic: fixed column order, 17-significant-digit floats,
no timestamps.
"""
from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .config import RunConfig, SweepSpec
from .entropy import BinRow, Diagnostics, Series, collect, summarize
from .oracle import closed_form
from .propagate import init_gaussian

CSV_COLUMNS = [
    "t",
    "norm",
    "I",
    "dIdt_fd",
    "rhs_eq16",
    "boundary_flux",
    "rhs_eq15",
    "residual13_l2",
    "residual13_linf",
    "residual9_l2",
    "floored_points",
]


def _stream(cfg: RunConfig, on_block) -> Diagnostics:
    return Diagnostics(cfg.grid, cfg.n_rows, cfg.reg_floor, cfg.subvolume, on_block=on_block)


def _assemble(stream: Diagnostics, cfg: RunConfig) -> tuple[dict, dict]:
    columns = stream.columns()
    summary = summarize(columns)
    checks = {"norm": bool(summary["norm_drift_max"] <= cfg.norm_tol)}
    if cfg.eq16_rel_tol is not None:
        checks["eq16"] = bool(summary["eq16_rel_err"] <= cfg.eq16_rel_tol)
    summary["subvolume"] = list(cfg.subvolume) if cfg.subvolume else None
    summary["checks"] = checks
    summary["passed"] = all(checks.values())
    return columns, summary


def run_simulation(cfg: RunConfig, on_block=None) -> tuple[dict, dict]:
    """Simulate the configured run, adding each observed state to a `Diagnostics`;
    on_block(first_row, rows) sees each block of rows (a `Series` of views)
    before it is reused.  Returns the `diagnose` columns and the summary."""
    stream = _stream(cfg, on_block)
    wf = init_gaussian(cfg.grid, cfg.params, cfg.sigma0, cfg.x0, cfg.k0)
    collect(wf, cfg.potential, cfg.dt, cfg.n_steps, cfg.observe_stride, stream)
    return _assemble(stream, cfg)


def run_oracle(cfg: RunConfig, on_block=None) -> tuple[dict, dict]:
    """Emit the analytic-field series for the configured scenario, as
    `run_simulation` does.

    The scenario must have a closed form (`oracle.closed_form` raises a
    SpecError otherwise); a config from `parse_oracle_config` always has one.
    """
    oracle = closed_form(cfg)
    stream = _stream(cfg, on_block)
    for i in range(len(stream.t)):
        stream.add(oracle.row(cfg.grid, i * cfg.observe_stride * cfg.dt, cfg.reg_floor))
    return _assemble(stream, cfg)


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    hbar: float
    dt: float
    n_steps: int
    delta_I: float
    delta_I_expected: float
    residual13_l2_max: float
    eq16_rel_err: float
    sign_fraction: float
    error: str = ""


@dataclass(frozen=True)
class SweepReport:
    rows: list
    exponent: float


def _sweep_row(eps: float, cfg: RunConfig, t_c: float) -> SweepRow:
    """The row at eps, the `run_simulation` of its config cfg, with its error
    message if it failed: if it has too few samples for a centred difference,
    if its run fails, or if its packet reached the periodic seam."""
    # the closed form's gain 1/2 ln(1 + s^2), by log1p to keep its digits at small s
    s = cfg.params.hbar * t_c / (2.0 * cfg.params.mass * cfg.sigma0**2)
    common = dict(epsilon=eps, hbar=cfg.params.hbar, dt=cfg.dt, n_steps=cfg.n_steps,
                  delta_I_expected=0.5 * math.log1p(s**2))
    seam = [0.0]  # the density at the seam of the last row

    def on_block(first, rows):
        rho = rows.rho[-1]
        seam[0] = max(rho[0], rho[-1])

    try:
        if cfg.n_rows < 3:
            raise ValueError(f"{cfg.n_rows} samples leave no centred difference")
        _, summary = run_simulation(cfg, on_block)
        if seam[0] > 1e-20:
            raise ValueError(f"packet reached domain boundary (seam density {seam[0]:.3g})")
    except ValueError as exc:
        nan = float("nan")
        return SweepRow(**common, delta_I=nan, residual13_l2_max=nan,
                        eq16_rel_err=nan, sign_fraction=nan, error=str(exc))
    return SweepRow(
        **common,
        delta_I=summary["delta_I"],
        residual13_l2_max=summary["max_residual13_l2"],
        eq16_rel_err=summary["eq16_rel_err"],
        sign_fraction=summary["sign_witness_fraction"],
    )


def run_sweep(spec: SweepSpec, max_workers: int = 1) -> SweepReport:
    """Run one free simulation per epsilon (descending) and fit delta_I ~ eps^p.

    Each row runs alone, one after another in the calling thread
    (`_sweep_row`); max_workers must be 1.  Failed rows carry an error string
    and are excluded from the fit; the sweep continues past them.
    """
    if max_workers != 1:
        raise ValueError(f"the sweep runs serially: max_workers must be 1, got {max_workers}")
    rows = [_sweep_row(eps, cfg, spec.t_c)
            for eps, cfg in zip(spec.epsilons, spec.row_configs)]
    good = [r for r in rows if not r.error and r.delta_I > 0.0]
    if len(good) >= 2:
        exponent = float(
            np.polyfit(
                np.log([r.epsilon for r in good]),
                np.log([r.delta_I for r in good]),
                1,
            )[0]
        )
    else:
        exponent = float("nan")
    return SweepReport(rows=rows, exponent=exponent)


TABLE_CHUNK_ROWS = 1024  # rows formatted by one `%` operation


def _row_format(columns) -> str:
    """The row format of columns: integers %d, strings %s, anything else %.17g."""
    return ",".join({"i": "%d", "U": "%s"}.get(c.dtype.kind, "%.17g") for c in columns)


def text_column(values) -> np.ndarray:
    """values formatted as `write_table` formats them, as a text column: a column
    shared by many tables (a grid) is then formatted once."""
    values = np.asarray(values)
    fmt = _row_format([values])
    return np.array([fmt % v for v in values.tolist()])


def write_table(path: Path, header, columns) -> None:
    """Write equal-length columns as CSV under a header line.

    Each column is formatted by its dtype: integers %d, strings %s, anything
    else %.17g, so a float keeps every bit of its value.  The rows are
    formatted TABLE_CHUNK_ROWS at a time, by one `%` of the row format repeated
    over the chunk's values taken row by row.
    """
    columns = [np.asarray(c) for c in columns]
    row = _row_format(columns) + "\n"
    n_rows = len(columns[0]) if columns else 0
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n_rows, TABLE_CHUNK_ROWS):
            chunk = min(TABLE_CHUNK_ROWS, n_rows - start)
            values = [None] * (chunk * len(columns))
            for j, c in enumerate(columns):
                values[j::len(columns)] = c[start:start + chunk].tolist()
            f.write(row * chunk % tuple(values))


def write_series_csv(columns: dict, path: Path) -> None:
    write_table(path, CSV_COLUMNS, [columns[c] for c in CSV_COLUMNS])


def write_summary_json(summary: dict, path: Path) -> None:
    """Write summary as strict JSON: a nan or infinite value is written as null."""
    strict = {k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in summary.items()}
    text = json.dumps(strict, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


SNAPSHOT_COLUMNS = ["x", "rho", "current", "velocity", "rho_I"]


def write_snapshots(series: Series, out_dir: Path, first: int = 0) -> None:
    """Write row i of series as out_dir/snapshot_{first + i:06d}.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    x = text_column(series.grid.x)
    for i in range(len(series.t)):
        columns = (x, series.rho[i], series.current[i], series.velocity[i],
                   series.rho_I[i])
        write_table(out_dir / f"snapshot_{first + i:06d}.csv", SNAPSHOT_COLUMNS, columns)


SWEEP_COLUMNS = [f.name for f in fields(SweepRow)]


def write_sweep_csv(report: SweepReport, path: Path) -> None:
    *columns, errors = zip(*map(astuple, report.rows))
    # keep the error string CSV-safe
    errors = [e.replace(",", ";") for e in errors]
    write_table(path, SWEEP_COLUMNS, [*columns, errors])


BINNING_COLUMNS = [f.name for f in fields(BinRow)]


def write_binning_csv(rows: list, path: Path) -> None:
    *columns, resolved = zip(*map(astuple, rows))
    write_table(path, BINNING_COLUMNS,
                [*columns, np.where(resolved, "resolved", "unresolved")])

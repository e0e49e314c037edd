"""Run orchestration and deterministic file outputs.

A run produces a time series of diagnostic rows (series.csv), a summary with
tolerance checks (summary.json), and optional per-sample field dumps, which are
written a block of rows at a time while the run goes on.  All output is
byte-deterministic: fixed column order, 17-significant-digit floats, no
timestamps.
"""
from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .climit import SweepReport, SweepRow
from .config import ConfigError, RunConfig
from .entropy import BinRow, Diagnostics, Series, collect, summarize
from .grid import SpecError
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


@dataclass(frozen=True)
class RunReport:
    """The `diagnose` columns of a run and its summary."""

    columns: dict
    summary: dict


def _stream(cfg: RunConfig, on_block) -> Diagnostics:
    n_rows = cfg.n_steps // cfg.observe_stride + 1
    return Diagnostics(cfg.grid, n_rows, cfg.reg_floor, cfg.subvolume, on_block=on_block)


def _assemble(stream: Diagnostics, cfg: RunConfig) -> RunReport:
    columns = stream.columns()
    summary = summarize(columns)
    checks = {"norm": bool(summary["norm_drift_max"] <= cfg.norm_tol)}
    if cfg.eq16_rel_tol is not None:
        checks["eq16"] = bool(summary["eq16_rel_err"] <= cfg.eq16_rel_tol)
    summary["subvolume"] = list(cfg.subvolume) if cfg.subvolume else None
    summary["checks"] = checks
    summary["passed"] = all(checks.values())
    return RunReport(columns=columns, summary=summary)


def run_simulation(cfg: RunConfig, on_block=None) -> RunReport:
    """Simulate the configured run, adding each observed state to a `Diagnostics`;
    on_block(first_row, rows) sees each block of rows (a `Series` of views)
    before it is reused."""
    stream = _stream(cfg, on_block)
    wf = init_gaussian(cfg.grid, cfg.params, cfg.sigma0, cfg.x0, cfg.k0)
    collect(wf, cfg.potential, cfg.dt, cfg.n_steps, cfg.observe_stride, stream)
    return _assemble(stream, cfg)


def run_oracle(cfg: RunConfig, on_block=None) -> RunReport:
    """Emit the analytic-field series for the configured scenario.

    Only scenarios with a closed form are accepted (`oracle.closed_form`); a
    config from `parse_oracle_config` always has one.
    """
    try:
        oracle = closed_form(cfg)
    except SpecError as exc:
        raise ConfigError(str(exc)) from exc
    stream = _stream(cfg, on_block)
    for i in range(len(stream.t)):
        stream.add(oracle.row(cfg.grid, i * cfg.observe_stride * cfg.dt, cfg.reg_floor))
    return _assemble(stream, cfg)


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

"""Run orchestration and deterministic file outputs.

A run produces a time series of diagnostic rows (series.csv), a summary with
tolerance checks (summary.json), and optional per-sample field dumps.  All
output is byte-deterministic: fixed column order, 17-significant-digit floats,
no timestamps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .climit import SweepReport
from .config import ConfigError, RunConfig
from .entropy import Series, collect, diagnose, summarize
from .oracle import CoherentOracle, GaussianOracle
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
    """The stacked samples of a run, its `diagnose` columns and its summary."""

    series: Series
    columns: dict
    summary: dict


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _initial_state(cfg: RunConfig):
    if cfg.initial_kind == "gaussian":
        return init_gaussian(cfg.grid, cfg.params, cfg.sigma0, cfg.x0, cfg.k0)
    # coherent: displaced ground state of the configured oscillator
    return init_gaussian(cfg.grid, cfg.params, cfg.sigma0, x0=cfg.amplitude, k0=0.0)


def _assemble(series: Series, cfg: RunConfig) -> RunReport:
    columns = diagnose(series, cfg.subvolume)
    summary = summarize(columns)
    checks = {"norm": bool(summary["norm_drift_max"] <= cfg.norm_tol)}
    if cfg.eq16_rel_tol is not None:
        checks["eq16"] = bool(summary["eq16_rel_err"] <= cfg.eq16_rel_tol)
    summary["subvolume"] = list(cfg.subvolume) if cfg.subvolume else None
    summary["checks"] = checks
    summary["passed"] = all(checks.values())
    return RunReport(series=series, columns=columns, summary=summary)


def run_simulation(cfg: RunConfig) -> RunReport:
    series = collect(
        _initial_state(cfg),
        cfg.potential,
        cfg.dt,
        cfg.n_steps,
        cfg.observe_stride,
        cfg.reg_floor,
    )
    return _assemble(series, cfg)


def run_oracle(cfg: RunConfig) -> RunReport:
    """Emit the analytic-field series for the configured scenario.

    Only scenarios with a closed form are accepted: a gaussian initial state
    under the free potential, or a coherent state under its harmonic well.
    """
    if cfg.initial_kind == "gaussian":
        if cfg.potential.kind != "free":
            raise ConfigError(
                "oracle for a gaussian initial state requires potential = free"
            )
        oracle = GaussianOracle(
            sigma0=cfg.sigma0, x0=cfg.x0, k0=cfg.k0, params=cfg.params
        )
    else:
        if cfg.potential.kind != "harmonic" or cfg.potential.omega != cfg.omega:
            raise ConfigError(
                "oracle for a coherent state requires potential = harmonic "
                "with potential_omega = omega"
            )
        oracle = CoherentOracle(
            omega=cfg.omega, amplitude=cfg.amplitude, params=cfg.params
        )
    n_samples = cfg.n_steps // cfg.observe_stride
    series = Series.empty(cfg.grid, n_samples + 1, cfg.reg_floor)
    for i in range(n_samples + 1):
        oracle.record(series, i, i * cfg.observe_stride * cfg.dt)
    return _assemble(series, cfg)


def write_series_csv(columns: dict, path: Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in zip(*(columns[c] for c in CSV_COLUMNS)):
        lines.append(",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(summary: dict, path: Path) -> None:
    Path(path).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def write_snapshots(series: Series, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = (series.rho, series.current, series.velocity, series.rho_I)
    for i in range(len(series.t)):
        lines = ["x,rho,current,velocity,rho_I"]
        for point in zip(series.grid.x, *(f[i] for f in fields)):
            lines.append(",".join(_fmt(v) for v in point))
        (out_dir / f"snapshot_{i:06d}.csv").write_text("\n".join(lines) + "\n")


SWEEP_COLUMNS = [
    "epsilon",
    "hbar",
    "dt",
    "n_steps",
    "delta_I",
    "delta_I_expected",
    "residual13_l2_max",
    "eq16_rel_err",
    "sign_fraction",
    "error",
]


def write_sweep_csv(report: SweepReport, path: Path) -> None:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in report.rows:
        cells = []
        for c in SWEEP_COLUMNS:
            v = getattr(r, c)
            # keep the error string CSV-safe
            cells.append(v.replace(",", ";") if c == "error" else _fmt(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


BINNING_COLUMNS = ["bin_width", "binned", "binned_plus_log", "target", "defect", "resolved"]


def write_binning_csv(rows: list, path: Path) -> None:
    lines = [",".join(BINNING_COLUMNS)]
    for r in rows:
        cells = [_fmt(getattr(r, c)) for c in BINNING_COLUMNS[:-1]]
        lines.append(",".join(cells + ["resolved" if r.resolved else "unresolved"]))
    Path(path).write_text("\n".join(lines) + "\n")

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
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import RunConfig, SweepSpec
from .entropy import BinRow, Diagnostics, Series, _info_density, collect, summarize
from .grid import _spectral_derivative
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
    `run_simulation` does: row i is the closed form at i * observe_stride * dt,
    written into the stream's block (rho, v, j = rho v, rho_I, no floored
    point, and the spectral derivative of rho, one batched transform pair per
    block), and each block is handed over in one call.  The scenario must have
    a closed form (`oracle.closed_form` raises a SpecError otherwise), as a
    config from `parse_oracle_config` always has."""
    oracle = closed_form(cfg)
    stream = _stream(cfg, on_block)
    w = stream.window
    for lo in range(0, cfg.n_rows, stream.height):
        t = np.arange(lo, min(lo + stream.height, cfg.n_rows)) * cfg.observe_stride * cfg.dt
        for k, t_k in enumerate(t.tolist(), start=2):
            w.rho[k], w.velocity[k] = oracle.density_velocity(cfg.grid, t_k)
            np.multiply(w.rho[k], w.velocity[k], out=w.current[k])
            _info_density(w.rho[k], cfg.reg_floor, out=w.rho_I[k])
        w.floored_points[2 : 2 + len(t)] = 0
        _spectral_derivative(w.rho[2 : 2 + len(t)], cfg.grid, out=w.drho[2 : 2 + len(t)])
        stream.add_held(t, "fields")
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
    message if it failed: if its run fails, if its packet reached the
    periodic seam at any observed row, or if its delta_I is not above 2**12
    ulps of the larger |I| of its ends, the roundoff of the difference."""
    # the closed form's gain 1/2 ln(1 + s^2), by log1p to keep its digits at small s
    s = cfg.params.hbar * t_c / (2.0 * cfg.params.mass * cfg.sigma0**2)
    common = dict(epsilon=eps, hbar=cfg.params.hbar, dt=cfg.dt, n_steps=cfg.n_steps,
                  delta_I_expected=0.5 * math.log1p(s**2))
    seam = [0.0]  # the largest density at the seam over the observed rows

    def on_block(first, rows):
        seam[0] = max(seam[0], rows.rho[:, 0].max(), rows.rho[:, -1].max())

    try:
        _, summary = run_simulation(cfg, on_block)
        if seam[0] > 1e-20:
            raise ValueError(f"packet reached domain boundary (seam density {seam[0]:.3g})")
        roundoff = 2**12 * math.ulp(max(abs(summary["I_initial"]), abs(summary["I_final"])))
        if not summary["delta_I"] > roundoff:
            raise ValueError(f"delta_I = {summary['delta_I']:.3g} is within roundoff: not "
                             f"above 2**12 ulps of I ({roundoff:.3g})")
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
    (`_sweep_row`); max_workers must be 1.  Failed rows, a row whose delta_I
    is within roundoff among them, carry an error string and are excluded from
    the fit; the sweep continues past them.
    """
    if max_workers != 1:
        raise ValueError(f"the sweep runs serially: max_workers must be 1, got {max_workers}")
    rows = [_sweep_row(eps, cfg, spec.t_c)
            for eps, cfg in zip(spec.epsilons, spec.row_configs)]
    good = [r for r in rows if not r.error]
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


# 10**1 .. 10**19: a magnitude below 10**k has at most k digits
_POW10 = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)


def _text_slots(column: np.ndarray) -> np.ndarray:
    """The text of each value of an integer or string column as (len(column),
    width) uint8 slots, 0xFF in the bytes around it: strings %s in UTF-8, as
    `_g17.text_slots` lays them out, and integers %d, each at the end of its
    slot."""
    if column.dtype.kind != "i":
        from . import _g17
        texts = [("%s" % v).encode() for v in column.tolist()]
        return _g17.text_slots(texts, max(map(len, texts)))
    v = column.astype(np.int64, copy=False)
    negative = v < 0
    magnitude = v.view(np.uint64).copy()  # |v| in uint64, so -2**63 too
    np.negative(magnitude, out=magnitude, where=negative)
    digits = 1 + np.searchsorted(_POW10, magnitude, side="right")
    width = int((digits + negative).max())
    text = np.full((len(v), width), 0xFF, np.uint8)
    for j in range(int(digits.max())):  # digit j from the right
        tens = magnitude // np.uint64(10)
        np.add(magnitude - tens * np.uint64(10), ord("0"), out=text[:, width - 1 - j],
               where=digits > j, casting="unsafe")
        magnitude = tens
    rows = np.flatnonzero(negative)
    text[rows, width - 1 - digits[rows]] = ord("-")
    return text


def _rows(columns: list, floats: list) -> bytearray:
    """The CSV text of the rows of columns, whose float64 columns are at floats.

    Each value has a slot of `width` bytes in a buffer of the rows: its text,
    and 0xFF in its other bytes, which no UTF-8 text holds.  The float
    columns take one `_g17.format_into`, a `text_column` its own slots and
    the others `_text_slots`; the last byte of every slot holds the ',' or
    newline after the value.  The text is the buffer less its 0xFF bytes."""
    from . import _g17  # on first use: compiling it would add to every command's set-up
    texts = {j: c if c.ndim == 2 else _text_slots(c)
             for j, c in enumerate(columns) if j not in floats}
    width = max([_g17.WIDTH - 1, *(t.shape[1] for t in texts.values())]) // 8 * 8 + 8
    text = bytearray(b"\xff") * (len(columns[0]) * len(columns) * width)
    slots = np.frombuffer(text, np.uint64).reshape(-1, len(columns), width // 8)
    slot_bytes = slots.view(np.uint8)
    for j, t in texts.items():
        slot_bytes[:, j, : t.shape[1]] = t
    if floats:
        values = np.stack([columns[j] for j in floats], axis=1)
        words = np.empty(values.shape + (_g17.WORDS,), np.uint64)
        _g17.format_into(values, words)
        slots[:, floats, : _g17.WORDS] = words
    slot_bytes[:, :, -1] = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    return text.translate(None, b"\xff")


def _chunks(columns):
    """The CSV text of the rows of columns, a chunk at a time: integers,
    strings and `text_column` slots as they are, anything else as float64,
    read in place where it is float64 already.  A chunk holds the rows whose
    floats fill one `_g17` pass, at least one row."""
    from . import _g17
    columns = [np.asarray(c) for c in columns]
    floats = [j for j, c in enumerate(columns) if c.ndim == 1 and c.dtype.kind not in "iU"]
    columns = [np.asarray(c, np.float64) if j in floats else c for j, c in enumerate(columns)]
    step = max(1, _g17.PASS_VALUES // max(1, len(floats)))
    for lo in range(0, len(columns[0]) if columns else 0, step):
        yield _rows([c[lo : lo + step] for c in columns], floats)


def text_column(values) -> np.ndarray:
    """values formatted as `write_table` formats floats, as the slots of
    `_g17.format_into` less their last byte, (len(values), WIDTH - 1) uint8: a
    column shared by many tables (a grid) is then formatted once."""
    from . import _g17
    x = np.asarray(values, dtype=np.float64)
    words = np.empty(x.shape + (_g17.WORDS,), np.uint64)
    _g17.format_into(x, words)
    return words.view(np.uint8)[:, : _g17.WIDTH - 1]


def write_table(path: Path, header, columns) -> None:
    """Write equal-length columns as CSV under a header line, in UTF-8.

    Each column is formatted by its dtype: integers %d, strings %s, the slots
    of a `text_column` as they are, and anything else as float64 by %.17g, so
    a float keeps every bit of its value.  `_g17` gives the exact bytes of
    %.17g a chunk of rows at a time, and no column is copied.
    """
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        f.writelines(_chunks(columns))


def write_series_csv(columns: dict, path: Path) -> None:
    write_table(path, CSV_COLUMNS, [columns[c] for c in CSV_COLUMNS])


def write_summary_json(summary: dict, path: Path) -> None:
    """Write summary as strict JSON: a nan or infinite value is written as null."""
    strict = {k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in summary.items()}
    text = json.dumps(strict, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


SNAPSHOT_COLUMNS = ["x", "rho", "current", "velocity", "rho_I"]
# the name of every file `write_snapshots` writes: snapshot_{row:06d}.csv
SNAPSHOT_NAME = re.compile(r"snapshot_([0-9]{6}|[1-9][0-9]{6,})\.csv")


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
    *columns, errors = ([getattr(r, name) for r in report.rows] for name in SWEEP_COLUMNS)
    # keep the error string CSV-safe
    errors = [e.replace(",", ";") for e in errors]
    write_table(path, SWEEP_COLUMNS, [*columns, errors])


BINNING_COLUMNS = [f.name for f in fields(BinRow)]


def write_binning_csv(rows: list, path: Path) -> None:
    *columns, resolved = ([getattr(r, name) for r in rows] for name in BINNING_COLUMNS)
    write_table(path, BINNING_COLUMNS,
                [*columns, np.where(resolved, "resolved", "unresolved")])

"""Command-line driver.

Subcommands:
  simulate  evolve a wavepacket and write series.csv + summary.json
  oracle    emit the analytic-field series for the same schema
  sweep     classical-limit sweep, writes sweep.csv + sweep_summary.json
  binning   bin-width convergence study, writes binning.csv

Exit codes: 0 all configured checks pass, 1 usage/config error, an output
file or directory that cannot be written, or a run out of memory, 2 tolerance
failure.  Outputs are byte-identical across reruns of the same config.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    parse_binning_config,
    parse_config,
    parse_oracle_config,
    parse_sweep_config,
)
from .entropy import binning_limit_study
from .report import (
    run_oracle,
    run_simulation,
    run_sweep,
    write_binning_csv,
    write_series_csv,
    write_snapshots,
    write_summary_json,
    write_sweep_csv,
)


def _set_malloc_thresholds() -> bool:
    """Keep a run's temporaries on glibc's heap, not mapped anew; whether both took."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, name or value
        return False
    mallopt = ctypes.CDLL(None).mallopt
    # 32 MiB is glibc's cap on its own dynamic M_MMAP_THRESHOLD (-3) on 64-bit, and 64 MiB
    # the M_TRIM_THRESHOLD (-1) that its dynamic rule pairs with it: the most it would set.
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1


def _read_config(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as the config's lines are
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ConfigError(f"byte 0x{data[exc.start]:02x} of {path} is not UTF-8", line)


def _out_dir(path: str) -> Path:
    """The output directory path, made (with its parents) if it does not exist."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot make output directory {path}: {exc}")
    return out


def _cmd_run(args, analytic: bool) -> int:
    parse = parse_oracle_config if analytic else parse_config
    cfg = parse(_read_config(args.config))
    out = _out_dir(args.out)
    on_block = None
    if cfg.save_snapshots:
        snapshots = _out_dir(out / "snapshots")

        def on_block(first, rows):
            write_snapshots(rows, snapshots, first)
    columns, summary = (run_oracle if analytic else run_simulation)(cfg, on_block)
    write_series_csv(columns, out / "series.csv")
    write_summary_json(summary, out / "summary.json")
    if not args.quiet:
        print(
            f"{'oracle' if analytic else 'simulate'}: {len(columns['t'])} rows, "
            f"I = {summary['I_final']:.6g}, "
            f"delta_I = {summary['delta_I']:.6g}, "
            f"checks {'passed' if summary['passed'] else 'FAILED'}"
        )
    return 0 if summary["passed"] else 2


def _cmd_sweep(args) -> int:
    spec = parse_sweep_config(_read_config(args.config))
    out = _out_dir(args.out)
    report = run_sweep(spec)
    write_sweep_csv(report, out / "sweep.csv")
    summary = {
        "exponent": report.exponent,
        "n_rows": len(report.rows),
        "n_failed": sum(1 for r in report.rows if r.error),
    }
    write_summary_json(summary, out / "sweep_summary.json")
    if not args.quiet:
        print(
            f"sweep: {len(report.rows)} rows, fitted exponent = {report.exponent:.4g}"
        )
    return 2 if summary["n_failed"] else 0


def _cmd_binning(args) -> int:
    cfg = parse_binning_config(_read_config(args.config))
    out = _out_dir(args.out)
    rows = binning_limit_study(cfg.rho, cfg.bin_widths, cfg.reg_floor)
    write_binning_csv(rows, out / "binning.csv")
    if not args.quiet:
        for r in rows:
            print(
                f"binning: dq = {r.bin_width:g}, defect = {r.defect:.3e}, "
                f"{'resolved' if r.resolved else 'unresolved'}"
            )
    return 0


def main(argv=None) -> int:
    _set_malloc_thresholds()
    parser = argparse.ArgumentParser(
        prog="entroflux",
        description="1-D wavepacket simulator with entropy balance diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "oracle", "sweep", "binning"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key = value config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_run(args, analytic=False)
        if args.command == "oracle":
            return _cmd_run(args, analytic=True)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_binning(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the config was read: any file error is an output's
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

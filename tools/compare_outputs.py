#!/usr/bin/env python3
"""Check that this checkout's CLI writes the same outputs as a parent revision's.

    python3 tools/compare_outputs.py PARENT_REV [--tolerance TOL]

Exports PARENT_REV with `git archive` into a temporary directory and runs the
`entroflux` CLI of both trees, one process per run, on the same configs: the
four bench workloads of `bench/workloads.py` at seeds 1-3, and the fixed
configs below, which reach block seams, table chunk seams, snapshot files,
failing sweep rows, sweep rows that share a trajectory, signed zeros in a
free run's states, a simulated coherent packet and the binning study.  Each
pair of runs must agree in exit code, stdout and every output file, byte for
byte.  Prints one line per difference and exits 1 if there is any, 0 otherwise.

With --tolerance TOL, a CSV or JSON file that differs byte-wise still agrees
if it has the same columns (CSV) or keys (JSON), the same non-numeric values,
and every numeric column or key differs by at most TOL * max(1, max|column|).
The largest |difference| of each changed column is printed either way.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, make  # noqa: E402

COHERENT = ("x_min = -20\nx_max = 20\nn = 512\ninitial = coherent\nomega = 1.0\n"
            "amplitude = 1.0\npotential = harmonic\npotential_omega = 1.0\n")
FIXED = {
    # at n = 512 a block holds 64 rows: 151 and 134 rows end in a partial block
    "simulate_snapshots": ("simulate", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\n"
                           "k0 = 0.5\npotential = harmonic\npotential_omega = 1.0\n"
                           "dt = 1e-3\nt_final = 0.15\nobserve_stride = 1\n"
                           "subvolume_a = -2\nsubvolume_b = 2.5\nsave_snapshots = true\n"),
    "oracle_snapshots": ("oracle", COHERENT + "dt = 1e-3\nt_final = 0.133\n"
                         "observe_stride = 1\nsave_snapshots = true\n"),
    # the coherent packet through the propagator: 134 rows end in a partial block
    "simulate_coherent": ("simulate", COHERENT + "dt = 1e-3\nt_final = 0.133\n"
                          "observe_stride = 1\nsave_snapshots = true\n"),
    # the flush edges: a run of one row, and 64 rows that fill one block exactly
    "simulate_one_row": ("simulate", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\n"
                         "k0 = 0.5\ndt = 1e-3\nt_final = 0\nsave_snapshots = true\n"),
    "oracle_one_block": ("oracle", COHERENT + "dt = 1e-3\nt_final = 0.063\n"
                         "observe_stride = 1\nsave_snapshots = true\n"),
    # 2501 rows of series.csv: two full chunks of report.TABLE_CHUNK_ROWS and a partial one
    "simulate_n64_stride1": ("simulate", "x_min = -8\nx_max = 8\nn = 64\nsigma0 = 1.0\n"
                             "k0 = 0.5\ndt = 1e-3\nt_final = 2.5\nobserve_stride = 1\n"),
    # at n = 16384 a block holds 2 rows; 101 rows
    "barrier_16384": ("simulate", "x_min = -160\nx_max = 160\nn = 16384\nsigma0 = 1.0\n"
                      "x0 = -2\nk0 = 10\npotential = gaussian_barrier\nbarrier_height = 50\n"
                      "barrier_width = 0.5\ndt = 1e-4\nt_final = 0.01\nobserve_stride = 1\n"
                      "subvolume_a = -5\nsubvolume_b = 5\n"),
    # the larger epsilon's packet reaches the seam, so its row fails
    "sweep_failing_row": ("sweep", "epsilons = 2.0, 0.4\nt_c = 2.0\nL_c = 1.0\nx_min = -14\n"
                          "x_max = 14\nn = 512\nk0 = 5\ndt_ref = 1e-3\n"),
    # rows that share one trajectory: the 1.6 and 0.8 rows reach the seam
    "sweep_shared_failing": ("sweep", "epsilons = 1.6, 0.8, 0.4\nt_c = 2.0\nL_c = 1.0\n"
                             "x_min = -14\nx_max = 14\nn = 512\nk0 = 5\ndt_ref = 1e-3\n"),
    # 0.8, 0.4 and 0.2 share one trajectory; 0.5 runs alone
    "sweep_two_groups": ("sweep", "epsilons = 0.8, 0.5, 0.4, 0.2\nt_c = 2.0\nL_c = 1.0\n"
                         "dt_ref = 2e-3\n"),
    # row 0's current column holds 105 cells of -0: the tails of exp underflow to
    # signed zeros, which a skipped identity kick must not flip
    "narrow_signed_zeros": ("simulate", "x_min = -20\nx_max = 20\nn = 1024\nsigma0 = 0.2\n"
                            "k0 = 40\ndt = 1e-4\nt_final = 0.02\nobserve_stride = 1\n"
                            "save_snapshots = true\n"),
    "binning": ("binning", "x_min = -12.8\nx_max = 12.8\nn = 1024\nsigma0 = 1.0\n"
                "bin_widths = 0.4, 0.2, 0.1\n"),
}


def configs() -> dict:
    cases = {f"{name}_seed{seed}": (make(name, seed).command, make(name, seed).config)
             for name in WORKLOADS for seed in (1, 2, 3)}
    return {**cases, **FIXED}


def run(tree: Path, command: str, config: Path, out: Path) -> tuple[int, str, dict]:
    """Exit code, stdout and {relative path: bytes} of one CLI run of tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "entroflux.cli", command, "--config", str(config),
            "--out", str(out)]
    proc = subprocess.run(argv, env=env, cwd=tree, capture_output=True, text=True)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, files


def _number(value):
    """value as a float if it is a number (not a bool) or a numeric CSV cell, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _columns(path: str, data: bytes) -> dict:
    """{column or key: list of values} of a CSV (header first) or JSON file."""
    text = data.decode("utf-8")
    if path.endswith(".json"):
        flat = {}

        def walk(key, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{key}.{k}" if key else k, v)
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    walk(f"{key}[{i}]", v)
            else:
                flat[key] = [value]

        walk("", json.loads(text))
        return flat
    header, *rows = list(csv.reader(io.StringIO(text)))
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged rows")
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def numeric_diff(path: str, a: bytes, b: bytes, tolerance: float) -> list[tuple]:
    """(column, max |difference|, allowed) of each changed column of a CSV or JSON file.

    Raises ValueError if the files differ other than in numeric values.
    """
    cols_a, cols_b = _columns(path, a), _columns(path, b)
    if list(cols_a) != list(cols_b):
        raise ValueError("columns or keys differ")
    changed = []
    for name, values_a in cols_a.items():
        values_b = cols_b[name]
        if values_a == values_b:
            continue
        if len(values_a) != len(values_b):
            raise ValueError(f"{name}: {len(values_a)} -> {len(values_b)} rows")
        nums = [_number(v) for v in values_a + values_b]
        deltas = []
        for va, vb, x, y in zip(values_a, values_b, nums, nums[len(values_a):]):
            if va == vb:
                continue
            if x is None or y is None:
                raise ValueError(f"{name}: {va!r} -> {vb!r}")
            deltas.append(abs(x - y))
        largest = math.nan if any(map(math.isnan, deltas)) else max(deltas)
        scale = max([1.0] + [abs(x) for x in nums if x is not None and math.isfinite(x)])
        changed.append((name, largest, tolerance * scale))
    return changed


def compare(name: str, parent: tuple, child: tuple, tolerance: float | None = None) -> list[str]:
    """Difference lines of one config; with a tolerance, changed columns are printed here."""
    (code_a, out_a, files_a), (code_b, out_b, files_b) = parent, child
    diffs = [f"{name}: exit code {code_a} -> {code_b}"] if code_a != code_b else []
    if out_a != out_b:
        diffs.append(f"{name}: stdout {out_a.strip()!r} -> {out_b.strip()!r}")
    for path in sorted(files_a.keys() | files_b.keys()):
        if files_a.get(path) == files_b.get(path):
            continue
        if path not in files_b or path not in files_a:
            diffs.append(f"{name}: {path} {'missing' if path not in files_b else 'new'}")
            continue
        if tolerance is None or not path.endswith((".csv", ".json")):
            diffs.append(f"{name}: {path} differs")
            continue
        try:
            changed = numeric_diff(path, files_a[path], files_b[path], tolerance)
        except ValueError as exc:
            diffs.append(f"{name}: {path} differs: {exc}")
            continue
        for column, largest, allowed in changed:
            line = f"{name}: {path} {column} max|diff| {largest:.3g} (allowed {allowed:.3g})"
            if not largest <= allowed:
                diffs.append(line)
            else:
                print(line)
    return diffs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="compare differing CSV and JSON files per numeric column")
    args = parser.parse_args(argv)
    if args.tolerance is not None and not args.tolerance >= 0.0:
        parser.error("--tolerance must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent_rev],
                                 capture_output=True, check=True).stdout
        (tmp / "parent.tar").write_bytes(archive)
        with tarfile.open(tmp / "parent.tar") as tar:
            tar.extractall(parent, filter="data")
        diffs, cases = [], configs()
        for name, (command, text) in cases.items():
            config = tmp / f"{name}.cfg"
            config.write_text(text, encoding="utf-8")
            results = [run(tree, command, config, tmp / f"{name}.{label}")
                       for tree, label in ((parent, "parent"), (ROOT, "child"))]
            diffs += compare(name, *results, args.tolerance)
    for line in diffs:
        print(line)
    print(f"{len(cases)} configs, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

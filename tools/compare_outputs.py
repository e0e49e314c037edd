#!/usr/bin/env python3
"""Check that this checkout's CLI writes the same outputs as a parent revision's.

    python3 tools/compare_outputs.py PARENT_REV

Exports PARENT_REV with `git archive` into a temporary directory and runs the
`entroflux` CLI of both trees, one process per run, on the same configs: the
four bench workloads of `bench/workloads.py` at seeds 1-3, and the fixed
configs below, which reach block seams, table chunk seams, snapshot files,
failing sweep rows before a good one, a sweep of four rows with different
step counts and strides, a sweep that sets every key of its rows' `simulate`
configs, signed zeros in a free run's states, a free run observed at every
step at n = 16384, a free run observed at every 7th step, a simulated
coherent packet, the free packet's closed form and the binning study.  Each
pair of runs must agree in exit code, stdout and every output file, byte for
byte.  Prints one line per difference and exits 1 if there is any, 0
otherwise.
"""
from __future__ import annotations

import argparse
import io
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
    # the free Gaussian's closed form, moving (k0 != 0): 151 rows end in a partial block
    "oracle_free": ("oracle", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\nx0 = -1\n"
                    "k0 = 2\ndt = 1e-3\nt_final = 0.15\nobserve_stride = 1\n"
                    "subvolume_a = -2\nsubvolume_b = 2.5\nsave_snapshots = true\n"),
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
    # a free run observed at every step at n = 16384: its blocks of 2 rows
    # hold 512 KiB of transforms each; 51 rows end in a partial block
    "free_16384": ("simulate", "x_min = -160\nx_max = 160\nn = 16384\nsigma0 = 1.0\n"
                   "x0 = -2\nk0 = 10\ndt = 1e-4\nt_final = 0.005\nobserve_stride = 1\n"
                   "subvolume_a = -5\nsubvolume_b = 5\n"),
    # a free run observed at every 7th of 231 steps (0b11100111): each gap
    # changes several bits of the step; 34 rows end in a partial block
    "free_stride7": ("simulate", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\n"
                     "x0 = 1\nk0 = 1.5\ndt = 1e-3\nt_final = 0.231\nobserve_stride = 7\n"
                     "save_snapshots = true\n"),
    # the larger epsilon's packet reaches the seam, so its row fails
    "sweep_failing_row": ("sweep", "epsilons = 2.0, 0.4\nt_c = 2.0\nL_c = 1.0\nx_min = -14\n"
                          "x_max = 14\nn = 512\nk0 = 5\ndt_ref = 1e-3\n"),
    # two failing rows before a good one: the 1.6 and 0.8 rows reach the seam
    "sweep_shared_failing": ("sweep", "epsilons = 1.6, 0.8, 0.4\nt_c = 2.0\nL_c = 1.0\n"
                             "x_min = -14\nx_max = 14\nn = 512\nk0 = 5\ndt_ref = 1e-3\n"),
    # four rows of 1000, 624, 500 and 250 steps, observed every 10, 6, 5 and
    # 2 steps
    "sweep_two_groups": ("sweep", "epsilons = 0.8, 0.5, 0.4, 0.2\nt_c = 2.0\nL_c = 1.0\n"
                         "dt_ref = 2e-3\n"),
    # every key a sweep row's `row_config` passes, off its default: the 0.05
    # row's step is capped at t_c / n_samples, so it takes 4 steps, as 0.2 does
    "sweep_row_keys": ("sweep", "epsilons = 0.4, 0.2, 0.05\nt_c = 2.0\nL_c = 1.0\nn = 128\n"
                       "mass = 1.5\nx0 = 0.5\nk0 = 0.25\ndt_ref = 0.25\nn_samples = 4\n"
                       "reg_floor = 1e-14\n"),
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


def export(rev: str, dest: Path) -> None:
    """Extract the files of git revision rev of this checkout into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, command: str, config: Path, out: Path) -> tuple[int, str, dict]:
    """Exit code, stdout and {relative path: bytes} of one CLI run of tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "entroflux.cli", command, "--config", str(config),
            "--out", str(out)]
    proc = subprocess.run(argv, env=env, cwd=tree, capture_output=True, text=True)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, proc.stdout, files


def compare(name: str, parent: tuple, child: tuple) -> list[str]:
    """Difference lines of one config."""
    (code_a, out_a, files_a), (code_b, out_b, files_b) = parent, child
    diffs = [f"{name}: exit code {code_a} -> {code_b}"] if code_a != code_b else []
    if out_a != out_b:
        diffs.append(f"{name}: stdout {out_a.strip()!r} -> {out_b.strip()!r}")
    for path in sorted(files_a.keys() | files_b.keys()):
        if path not in files_b or path not in files_a:
            diffs.append(f"{name}: {path} {'missing' if path not in files_b else 'new'}")
        elif files_a[path] != files_b[path]:
            diffs.append(f"{name}: {path} differs")
    return diffs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent_rev")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        export(args.parent_rev, parent)
        diffs, cases = [], configs()
        for name, (command, text) in cases.items():
            config = tmp / f"{name}.cfg"
            config.write_text(text, encoding="utf-8")
            results = [run(tree, command, config, tmp / f"{name}.{label}")
                       for tree, label in ((parent, "parent"), (ROOT, "child"))]
            diffs += compare(name, *results)
    for line in diffs:
        print(line)
    print(f"{len(cases)} configs, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

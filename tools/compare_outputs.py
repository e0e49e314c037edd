#!/usr/bin/env python3
"""Check that this checkout's CLI writes the same outputs as a parent revision's.

    python3 tools/compare_outputs.py PARENT_REV

Exports PARENT_REV with `git archive` into a temporary directory and runs the
`entroflux` CLI of both trees, one process per run, on the same configs: the
four bench workloads of `bench/workloads.py` at seeds 1-3, and the fixed
configs below, which reach block seams, a floor edge that moves in a
block's halo, table chunk seams, snapshot files, a snapshot grid longer
than one pass of the table formatter, failing sweep rows before a good one,
a sweep of four rows with different step counts and strides, a sweep that
sets every key of its rows' `simulate` configs, signed zeros in a
free run's states, a free run observed at every step at n = 16384, a free
run observed at every 7th step, a simulated coherent packet, the free
packet's closed form, a closed form whose density falls through the
subnormal range, a subvolume of the whole grid, whose integrals reach the
first and last grid intervals, the free packet's closed form at n = 2**15,
where a block holds one row, a packet that reflects off a tall barrier, so
that its blocks mix rows whose derivatives are taken relative to a carrier
and rows without one, kicked runs at n = 2048, 4096 and 16384, on both sides
of the threshold from which the kicked loop takes four-step transforms, one
at n = 8192, whose split into 64 x 128 is not square, one at n = 32768
(128 x 256), whose rows each make a block, a coherent packet
through that loop at n = 16384, a barrier of height 0, whose V is 0 under a
kind that is not free, so that it takes the free loop, and the binning study:
40 configs in all.
Each pair of runs must agree in exit code, stdout and every output file,
byte for byte.  Prints one line per
difference, naming the CSV columns (with their count of differing rows) or
the JSON keys in which a file differs, and exits 1 if there is any, 0
otherwise.

The CSV values reach every class of `%.17g` text that the table formatter
(`entroflux._g17`) lays out apart:

- fixed notation with e < 0 and with e >= 0: every config;
- scientific with two exponent digits: every config but `binning`;
- scientific with three: the coherent closed forms (`oracle_dump_seed*`,
  `oracle_snapshots`, `oracle_one_block`, `oracle_subnormal`) and
  `simulate_coherent`;
- subnormals: `oracle_subnormal`;
- 0: every `simulate` and `oracle` config; -0: `oracle_dump_seed*`,
  `oracle_snapshots`, `oracle_one_block`, `oracle_subnormal`,
  `simulate_snapshots`, `simulate_floored`, `simulate_one_row`,
  `snapshots_4096`, `free_stride7` and `narrow_signed_zeros`;
- nan: `sweep_failing_row` and `sweep_shared_failing`;
- near-ties, which the formatter leaves to `%`: every `simulate` and `oracle`
  config, and `sweep_climit_seed2`.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
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
    # a moving packet under a raised floor: the floor's edge moves between rows
    # 126 and 127, the halo of the block that starts at row 128, whose ln rho
    # and mask rows must move with it
    "simulate_floored": ("simulate", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\n"
                         "x0 = -1\nk0 = 2\ndt = 1e-3\nt_final = 0.15\nobserve_stride = 1\n"
                         "subvolume_a = -2\nsubvolume_b = 2.5\nreg_floor = 2e-8\n"
                         "save_snapshots = true\n"),
    # the coherent packet through the propagator: 134 rows end in a partial block
    "simulate_coherent": ("simulate", COHERENT + "dt = 1e-3\nt_final = 0.133\n"
                          "observe_stride = 1\nsave_snapshots = true\n"),
    # the flush edges: a run of one row, and 64 rows that fill one block exactly
    "simulate_one_row": ("simulate", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\n"
                         "k0 = 0.5\ndt = 1e-3\nt_final = 0\nsave_snapshots = true\n"),
    "oracle_one_block": ("oracle", COHERENT + "dt = 1e-3\nt_final = 0.063\n"
                         "observe_stride = 1\nsave_snapshots = true\n"),
    # 2501 rows of series.csv, 10 float columns: 12 full chunks of 204 rows and
    # a partial one
    "simulate_n64_stride1": ("simulate", "x_min = -8\nx_max = 8\nn = 64\nsigma0 = 1.0\n"
                             "k0 = 0.5\ndt = 1e-3\nt_final = 2.5\nobserve_stride = 1\n"),
    # 3 snapshot files of 4096 rows: a grid column formatted in two kernel
    # passes, and 8 chunks of 512 rows per file
    "snapshots_4096": ("simulate", "x_min = -40\nx_max = 40\nn = 4096\nsigma0 = 1.0\n"
                       "k0 = 1.5\ndt = 1e-4\nt_final = 0.0002\nobserve_stride = 1\n"
                       "save_snapshots = true\n"),
    # at n = 16384 a block holds 2 rows; 101 rows
    "barrier_16384": ("simulate", "x_min = -160\nx_max = 160\nn = 16384\nsigma0 = 1.0\n"
                      "x0 = -2\nk0 = 10\npotential = gaussian_barrier\nbarrier_height = 50\n"
                      "barrier_width = 0.5\ndt = 1e-4\nt_final = 0.01\nobserve_stride = 1\n"
                      "subvolume_a = -5\nsubvolume_b = 5\n"),
    # the kicked loop at FOUR_STEP_POINTS, where it takes four-step transforms,
    # and one power of two below it, where it takes single-row ones; 101 rows
    "barrier_4096": ("simulate", "x_min = -40\nx_max = 40\nn = 4096\nsigma0 = 1.0\n"
                     "x0 = -2\nk0 = 10\npotential = gaussian_barrier\nbarrier_height = 50\n"
                     "barrier_width = 0.5\ndt = 1e-4\nt_final = 0.01\nobserve_stride = 1\n"
                     "subvolume_a = -5\nsubvolume_b = 5\n"),
    "barrier_2048": ("simulate", "x_min = -20\nx_max = 20\nn = 2048\nsigma0 = 1.0\n"
                     "x0 = -2\nk0 = 10\npotential = gaussian_barrier\nbarrier_height = 50\n"
                     "barrier_width = 0.5\ndt = 1e-4\nt_final = 0.01\nobserve_stride = 1\n"
                     "subvolume_a = -5\nsubvolume_b = 5\n"),
    # the four-step kicked loop on a non-square split, 64 x 128: 300 steps, 31 rows
    "barrier_8192": ("simulate", "x_min = -80\nx_max = 80\nn = 8192\nsigma0 = 1.0\n"
                     "x0 = -2\nk0 = 10\npotential = gaussian_barrier\nbarrier_height = 50\n"
                     "barrier_width = 0.5\ndt = 1e-4\nt_final = 0.03\nobserve_stride = 10\n"
                     "subvolume_a = -5\nsubvolume_b = 5\n"),
    # the four-step kicked loop on a non-square split, 128 x 256, where a block
    # holds one row: 50 steps, 6 rows
    "barrier_32768": ("simulate", "x_min = -320\nx_max = 320\nn = 32768\nsigma0 = 1.0\n"
                      "x0 = -2\nk0 = 10\npotential = gaussian_barrier\nbarrier_height = 50\n"
                      "barrier_width = 0.5\ndt = 1e-4\nt_final = 0.005\nobserve_stride = 10\n"
                      "subvolume_a = -5\nsubvolume_b = 5\n"),
    # the coherent packet through the four-step kicked loop: 2000 steps, 41 rows
    "coherent_16384": ("simulate", "x_min = -160\nx_max = 160\nn = 16384\ninitial = coherent\n"
                       "omega = 1.0\namplitude = 1.0\npotential = harmonic\n"
                       "potential_omega = 1.0\ndt = 1e-4\nt_final = 0.2\n"
                       "observe_stride = 50\n"),
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
    # V is 0 on the grid under a barrier kind: the run builds no half kick and
    # takes the free loop; 101 rows end in a partial block
    "barrier_height0": ("simulate", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\n"
                        "x0 = -1\nk0 = 2\npotential = gaussian_barrier\nbarrier_height = 0\n"
                        "barrier_width = 0.5\ndt = 1e-3\nt_final = 0.1\nobserve_stride = 1\n"),
    "binning": ("binning", "x_min = -12.8\nx_max = 12.8\nn = 1024\nsigma0 = 1.0\n"
                "bin_widths = 0.4, 0.2, 0.1\n"),
    # a subvolume of the whole grid, x_min to the last point (ia = 0, ib = n - 1):
    # the subvolume integrals reach both edge intervals; 151 rows over three
    # 64-row blocks
    "subvolume_whole_grid": ("simulate", "x_min = -16\nx_max = 16\nn = 512\nsigma0 = 1.0\n"
                             "dt = 1e-3\nt_final = 0.15\nobserve_stride = 1\n"
                             "subvolume_a = -16\nsubvolume_b = 15.9375\n"),
    # the coherent packet's closed form on [-32, 32]: the tails of its density
    # fall through the subnormal range, down to 2e-323
    "oracle_subnormal": ("oracle", "x_min = -32\nx_max = 32\nn = 512\ninitial = coherent\n"
                         "omega = 1.0\namplitude = 1.0\npotential = harmonic\n"
                         "potential_omega = 1.0\ndt = 1e-3\nt_final = 0.003\n"
                         "observe_stride = 1\nsave_snapshots = true\n"),
    # the free packet's closed form at n = 2**15, where a block holds one row:
    # every row of given fields is a block and its hand-over; 4 rows at stride 2
    "oracle_height1": ("oracle", "x_min = -40\nx_max = 40\nn = 32768\nsigma0 = 1.0\n"
                       "x0 = -1\nk0 = 2\ndt = 2e-6\nt_final = 1.2e-5\nobserve_stride = 2\n"
                       "subvolume_a = -2\nsubvolume_b = 2.5\nsave_snapshots = true\n"),
    # a k0 = 5 packet that reflects off a barrier of height 40: of its 121 rows,
    # in blocks of 64, the first block holds 54 rows with the carrier k_c > 0
    # and 10 without one, the second 29 without and 28 with k_c < 0
    "barrier_reflection": ("simulate", "x_min = -20\nx_max = 20\nn = 512\nsigma0 = 1.0\n"
                           "x0 = -4\nk0 = 5\npotential = gaussian_barrier\n"
                           "barrier_height = 40\nbarrier_width = 0.5\ndt = 1e-3\n"
                           "t_final = 1.2\nobserve_stride = 10\nsubvolume_a = -2\n"
                           "subvolume_b = 2.5\nsave_snapshots = true\n"),
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


def where(path: str, a: bytes, b: bytes) -> str:
    """The columns of a CSV, or the keys of a JSON object, in which a and b differ."""
    if path.endswith(".json"):
        x, y = json.loads(a), json.loads(b)
        keys = [k for k in sorted(x.keys() | y.keys()) if x.get(k) != y.get(k)]
        return f" in {', '.join(keys)}" if keys else ""
    if not path.endswith(".csv"):
        return ""
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(io.StringIO(t.decode())))
                                            for t in (a, b))
    if head_a != head_b or len(rows_a) != len(rows_b):
        return " in its header or row count"
    columns = {head_a[j]: sum(r[j] != q[j] for r, q in zip(rows_a, rows_b))
               for j in range(len(head_a))}
    return " in " + ", ".join(f"{c} ({k} of {len(rows_a)} rows)"
                              for c, k in columns.items() if k)


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
            diffs.append(f"{name}: {path} differs{where(path, files_a[path], files_b[path])}")
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

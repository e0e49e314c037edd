#!/usr/bin/env python3
"""Distances of the propagator's outputs from the closed forms.

    python3 tools/accuracy.py [PARENT_REV] [--json PATH]

For the runs with a closed form, the CLI of a tree runs `simulate` and
`oracle` on the same config, one process per run, and the table holds
max|simulate - oracle| of the series.csv columns I, dIdt_fd, rhs_eq16 and
norm.  The configs are the free packets of the `dense_diag` bench workload at
seeds 1-3 and of the `FIXED` configs `oracle_free`, `narrow_signed_zeros`,
`simulate_n64_stride1` and `free_16384` of `compare_outputs.py`, and the
coherent states of the `oracle_dump` workload at seeds 1-3 and of the `FIXED`
`simulate_coherent`, without their snapshot files, and the `FIXED`
`coherent_16384`.  The coherent states run through the kicked loop, so their
distances are the Strang splitting's error (about 1e-9 to 3e-8), and they
judge a bit move in the kicked loop or in the diagnostics of kicked runs;
`coherent_16384` judges the loop's four-step transforms.

The kicked runs without a closed form (the `wide_barrier` workload at seeds
1-3 and the `FIXED` `barrier_16384`) are judged by their norm alone: the
table holds max|norm - 1| of series.csv, which is exact for every run, so it
is the propagator's and the diagnostics' roundoff.  This does not judge the
time error, which a rerun at dt/2 would.

For the sweeps (the `sweep_climit` workload at seeds 1-3 and the `FIXED`
`sweep_two_groups`), it holds each row's |delta_I - delta_I of the oracle
density sampled on the same grid, with the same floor|.  The reference is not
0.5 ln(1 + eps^2/4): the sampled density's own offset from it, about 1e-12,
would hide the propagator's error.

With PARENT_REV, the tree of that revision (`git archive`) is measured too,
and each distance may grow from the parent's by at most
max(10%, 1e-14 * scale).  The scale is the column's max|value| (over the
rows of a sweep for delta_I, 1 for a norm judged against 1), except for
dIdt_fd, a difference quotient, whose scale is that of its operands:
max|I| / (2 * sample spacing).  Prints
one line per distance and exits 1 if any grows by more.  --json PATH writes
the table.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from compare_outputs import FIXED, ROOT, export, run
from workloads import make

sys.path.insert(0, str(ROOT / "src"))
from entroflux.config import parse_sweep_config  # noqa: E402
from entroflux.entropy import _info_density  # noqa: E402
from entroflux.oracle import closed_form  # noqa: E402

COLUMNS = ("I", "dIdt_fd", "rhs_eq16", "norm")
GROWTH, FLOOR = 0.10, 1e-14  # the rule: growth <= max(GROWTH * parent, FLOOR * scale)
RULE = (f"an error may grow by at most max({GROWTH:.0%} of the parent's, "
        f"{FLOOR:g} * scale); scale = max|column|, for dIdt_fd max|I| / (2 * sample spacing), "
        f"1 for a norm judged against 1")


def _without_snapshots(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("save_snapshots"))


def configs() -> tuple[dict, dict, dict]:
    """{name: config text} of the runs with a closed form, of the sweeps and of
    the runs judged by their norm."""
    runs = {f"dense_diag_seed{s}": make("dense_diag", s).config for s in (1, 2, 3)}
    runs.update({name: FIXED[name][1]
                 for name in ("oracle_free", "narrow_signed_zeros", "simulate_n64_stride1",
                              "free_16384")})
    runs.update({f"oracle_dump_seed{s}": _without_snapshots(make("oracle_dump", s).config)
                 for s in (1, 2, 3)})
    runs["simulate_coherent"] = _without_snapshots(FIXED["simulate_coherent"][1])
    runs["coherent_16384"] = FIXED["coherent_16384"][1]
    sweeps = {f"sweep_climit_seed{s}": make("sweep_climit", s).config for s in (1, 2, 3)}
    sweeps["sweep_two_groups"] = FIXED["sweep_two_groups"][1]
    norms = {f"wide_barrier_seed{s}": make("wide_barrier", s).config for s in (1, 2, 3)}
    norms["barrier_16384"] = FIXED["barrier_16384"][1]
    return runs, sweeps, norms


def _table(tree: Path, command: str, text: str, tmp: Path, name: str) -> dict:
    """{column: array} of the table a CLI run writes."""
    tmp.mkdir(parents=True, exist_ok=True)
    config = tmp / f"{name}.cfg"
    config.write_text(text, encoding="utf-8")
    code, _, files = run(tree, command, config, tmp / f"{name}.{command}")
    table = "sweep.csv" if command == "sweep" else "series.csv"
    if table not in files:
        raise RuntimeError(f"{command} of {name} exited {code} without {table}")
    header, *rows = csv.reader(io.StringIO(files[table].decode("utf-8")))
    return {key: np.array([row[i] for row in rows]) for i, key in enumerate(header)}


def run_distances(tree: Path, name: str, text: str, tmp: Path) -> dict:
    """{column: (max|simulate - oracle|, scale)} of one config with a closed form."""
    sim, ref = (_table(tree, command, text, tmp / command, name)
                for command in ("simulate", "oracle"))
    spacing = float(ref["t"][1]) - float(ref["t"][0])
    out = {}
    for column in COLUMNS:
        a, b = sim[column].astype(float), ref[column].astype(float)
        scale = (np.max(np.abs(ref["I"].astype(float))) / (2.0 * spacing)
                 if column == "dIdt_fd" else np.max(np.abs(b)))
        out[column] = (float(np.max(np.abs(a - b))), float(scale))
    return out


def norm_distance(tree: Path, name: str, text: str, tmp: Path) -> dict:
    """{"norm": (max|norm - 1|, 1)} of one simulate run."""
    norm = _table(tree, "simulate", text, tmp, name)["norm"].astype(float)
    return {"norm": (float(np.max(np.abs(norm - 1.0))), 1.0)}


def grid_delta_i(text: str) -> dict:
    """{epsilon: delta_I} of the oracle density sampled on each sweep row's grid."""
    spec = parse_sweep_config(text)
    out = {}
    for eps in spec.epsilons:
        cfg = spec.row_config(eps)
        oracle, grid = closed_form(cfg), cfg.grid
        info = [grid.dx * _info_density(oracle.density_velocity(grid, t)[0], cfg.reg_floor).sum()
                for t in (0.0, cfg.n_steps * cfg.dt)]
        out[eps] = float(info[1] - info[0])
    return out


def sweep_distances(tree: Path, name: str, text: str, tmp: Path) -> dict:
    """{delta_I[eps]: (|delta_I - grid oracle's|, scale)} of one sweep."""
    rows = _table(tree, "sweep", text, tmp, name)
    reference = grid_delta_i(text)
    scale = max(abs(v) for v in reference.values())
    return {f"delta_I[{eps!r}]": (abs(float(got) - reference[eps]), scale)
            for eps, got in zip(reference, rows["delta_I"])}


def measure(tree: Path, tmp: Path) -> dict:
    """{config: {column: (error, scale)}} of one tree."""
    runs, sweeps, norms = configs()
    table = {name: run_distances(tree, name, text, tmp) for name, text in runs.items()}
    table.update({name: sweep_distances(tree, name, text, tmp) for name, text in sweeps.items()})
    table.update({name: norm_distance(tree, name, text, tmp / "norm")
                  for name, text in norms.items()})
    return table


def judge(parent: float, change: float, scale: float) -> bool:
    return change - parent <= max(GROWTH * parent, FLOOR * scale)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent_rev", nargs="?")
    parser.add_argument("--json", type=Path, help="write the table to this file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"change": ROOT}
        if args.parent_rev:
            trees = {"parent": tmp / "parent", **trees}
            export(args.parent_rev, trees["parent"])
        tables = {label: measure(tree, tmp / label) for label, tree in trees.items()}
    rows, failed = [], 0
    for config, columns in tables["change"].items():
        for column, (error, scale) in columns.items():
            row = {"config": config, "column": column, "scale": scale, "change": error}
            line = f"{config:22} {column:22} {error:9.3g}"
            if args.parent_rev:
                before = tables["parent"][config][column][0]
                row.update(parent=before, ok=judge(before, error, scale))
                failed += not row["ok"]
                line = (f"{config:22} {column:22} {before:9.3g} -> {error:9.3g}"
                        f"  {'ok' if row['ok'] else 'GREW'}")
            rows.append(row)
            print(line)
    if args.json:
        head = {"command": "python3 tools/accuracy.py " + " ".join(argv), "rule": RULE}
        if args.parent_rev:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent_rev],
                                 capture_output=True, text=True, check=True).stdout.strip()
            head["parent"] = sha
        args.json.write_text(json.dumps({**head, "rows": rows}, indent=1) + "\n")
    if args.parent_rev:
        print(f"{len(rows)} distances, {failed} grew beyond the rule")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

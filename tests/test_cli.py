import json
from pathlib import Path

import numpy as np
import pytest

import entroflux as ef
from entroflux.cli import main
from entroflux.report import CSV_COLUMNS


SIM_CONFIG = """\
x_min = -20
x_max = 20
n = 512
sigma0 = 1.0
dt = 1e-3
t_final = 0.2
observe_stride = 20
"""

COHERENT_CONFIG = """\
x_min = -20
x_max = 20
n = 512
initial = coherent
omega = 1.0
amplitude = 1.0
potential = harmonic
potential_omega = 1.0
dt = 1e-3
t_final = 0.5
observe_stride = 25
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_writes_series_and_summary(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 12  # header + 11 samples
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["norm"] is True
    assert summary["delta_I"] > 0.0


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out_a), "--quiet"])
    main(["simulate", "--config", cfg, "--out", str(out_b), "--quiet"])
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_empty_run_emits_single_row(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG.replace("t_final = 0.2", "t_final = 0"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert len(lines) == 2


def test_config_error_exit_code_and_line(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", SIM_CONFIG.replace("n = 512", "n = 500"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "power of two" in err


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1


def test_tolerance_failure_exit_code(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG + "eq16_rel_tol = 1e-18\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["eq16"] is False


def test_oracle_matches_simulation_on_coherent_state(tmp_path):
    cfg = _write(tmp_path, "run.cfg", COHERENT_CONFIG)
    out_sim, out_orc = tmp_path / "sim", tmp_path / "orc"
    assert main(["simulate", "--config", cfg, "--out", str(out_sim), "--quiet"]) == 0
    assert main(["oracle", "--config", cfg, "--out", str(out_orc), "--quiet"]) == 0
    sim = np.genfromtxt(out_sim / "series.csv", delimiter=",", names=True)
    orc = np.genfromtxt(out_orc / "series.csv", delimiter=",", names=True)
    for col in ("t", "norm", "I", "dIdt_fd", "rhs_eq16"):
        assert np.max(np.abs(sim[col] - orc[col])) < 1e-6, col


def test_oracle_rejects_unsupported_scenario(tmp_path, capsys):
    text = SIM_CONFIG + "potential = harmonic\npotential_omega = 1.0\n"
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_snapshots_written_on_request(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG + "save_snapshots = true\n")
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
    snaps = sorted((out / "snapshots").glob("snapshot_*.csv"))
    assert len(snaps) == 11
    header = snaps[0].read_text().splitlines()[0]
    assert header == "x,rho,current,velocity,rho_I"


def test_sweep_command(tmp_path):
    cfg = _write(
        tmp_path,
        "sweep.cfg",
        "epsilons = 0.4, 0.2\nt_c = 2.0\nL_c = 1.0\ndt_ref = 2e-3\n",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["n_failed"] == 0
    assert abs(summary["exponent"] - 2.0) < 0.1


def test_sweep_summary_is_strict_json_with_one_good_row(tmp_path):
    # fast packet on a narrow domain: the larger epsilon overruns the seam,
    # which leaves one row and no exponent to fit
    cfg = _write(
        tmp_path,
        "sweep.cfg",
        "epsilons = 2.0, 0.4\nt_c = 2.0\nL_c = 1.0\nx_min = -14\nx_max = 14\n"
        "n = 512\nk0 = 5\ndt_ref = 1e-3\n",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    text = (out / "sweep_summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary == {"exponent": None, "n_failed": 1, "n_rows": 2}


def test_binning_command(tmp_path):
    cfg = _write(
        tmp_path,
        "binning.cfg",
        "x_min = -12.8\nx_max = 12.8\nn = 1024\nsigma0 = 1.0\nbin_widths = 0.4, 0.2, 0.1\n",
    )
    out = tmp_path / "out"
    assert main(["binning", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "binning.csv").read_text().splitlines()
    assert len(lines) == 4
    defects = [float(line.split(",")[4]) for line in lines[1:]]
    assert defects[0] > defects[1] > defects[2]


@pytest.mark.parametrize(
    "extra,line",
    [
        ("k0 = nan\n", 8),
        ("x0 = 1e300\n", 8),
        ("potential = gaussian_barrier\nbarrier_width = 1.0\nbarrier_height = inf\n", 10),
        ("mass = inf\n", 8),
        ("k0 = 1e5\n", 8),  # n = 512 on [-20, 20) resolves |k| below pi/dx ~ 40
        ("subvolume_a = 0.0\nsubvolume_b = 0.01\n", 8),  # narrower than dx
        ("hbar = 1\nmass = -1\n", 9),
        # a pair replaces a line of SIM_CONFIG in place of adding one:
        # t_final / dt overflows to inf, or is 2e299 steps
        (("dt = 1e-3", "dt = 1e-320"), 5),
        (("dt = 1e-3", "dt = 1e-300"), 5),
        (("dt = 1e-3\nt_final = 0.2\nobserve_stride = 20",
          "dt = 1e-300\nt_final = 0.2\nobserve_stride = 1"), 5),
    ],
    ids=["k0_nan", "x0_off_grid", "barrier_inf", "mass_inf", "k0_unresolved",
         "subvolume_below_dx", "mass_negative", "dt_tiny", "dt_too_many_steps",
         "dt_too_many_rows"],
)
def test_non_finite_or_off_grid_value_is_config_error(tmp_path, capsys, extra, line):
    text = SIM_CONFIG.replace(*extra) if isinstance(extra, tuple) else SIM_CONFIG + extra
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}:")
    assert "Traceback" not in err


SWEEP_BASE = "epsilons = 0.4, 0.2\nt_c = 2.0\nL_c = 1.0\n"
BINNING_BASE = "x_min = -12.8\nx_max = 12.8\nn = 1024\nsigma0 = 1.0\nbin_widths = 0.4, 0.2, 0.1\n"


@pytest.mark.parametrize(
    "command,text,line,message",
    [
        ("sweep", SWEEP_BASE + "n = 100\n", 4, "power of two"),
        ("sweep", SWEEP_BASE + "x_min = 5\nx_max = 1\n", 5, "x_max must exceed x_min"),
        ("sweep", SWEEP_BASE + "mass = -1\n", 4, "mass must be positive"),
        ("sweep", SWEEP_BASE + "n_samples = 0\n", 4, "n_samples must be positive"),
        ("sweep", SWEEP_BASE + "dt_ref = 0\n", 4, "dt_ref must be positive"),
        ("sweep", SWEEP_BASE + "x0 = 1e300\n", 4, "x0 = 1e+300 lies outside the grid"),
        ("sweep", SWEEP_BASE + "reg_floor = -1\n", 4, "reg_floor must be positive"),
        ("binning", BINNING_BASE.replace("0.4, 0.2, 0.1", "0.4, 0.3"), 5, "do not tile"),
        ("binning", BINNING_BASE + "x0 = 40\n", 6, "x0 = 40.0 lies outside the grid"),
        ("binning", BINNING_BASE.replace("sigma0 = 1.0", "sigma0 = 3"), 4, "not normalized"),
        ("sweep", SWEEP_BASE + "k0 = 1e5\n", 4, "k0 = 100000.0 is not resolved"),
        # hbar = 0.2, dt = 1 on dx = 40/1024: kinetic phase 647 per step
        ("sweep", SWEEP_BASE + "dt_ref = 1\n", 4, "time step too large"),
        # t_c / dt overflows to inf, or is about 1e300 steps
        ("sweep", SWEEP_BASE + "dt_ref = 1e-320\n", 4, "time step too small"),
        ("sweep", SWEEP_BASE + "dt_ref = 1e-300\n", 4, "time step too small"),
    ],
    ids=["sweep_n", "sweep_x_range", "sweep_mass", "sweep_n_samples", "sweep_dt_ref",
         "sweep_x0", "sweep_reg_floor", "binning_tiling", "binning_x0", "binning_sigma0",
         "sweep_k0", "sweep_dt_ref_phase", "sweep_dt_ref_tiny", "sweep_dt_ref_too_many_steps"],
)
def test_sweep_and_binning_config_errors_name_their_line(
    tmp_path, capsys, command, text, line, message
):
    cfg = _write(tmp_path, "run.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}:")
    assert message in err
    assert "Traceback" not in err


def test_oracle_rejects_off_centre_harmonic_well(tmp_path, capsys):
    # the closed-form coherent state oscillates about x = 0
    cfg = _write(tmp_path, "run.cfg", COHERENT_CONFIG + "potential_center = 3\n")
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "potential_center = 0" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0

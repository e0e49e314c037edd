import csv
import json
import math
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
    # the free oracle has no harmonic well: the error is at the potential line
    err = capsys.readouterr().err
    assert err.startswith("config error: line 8: oracle for a gaussian initial state")
    assert not (tmp_path / "o").exists()


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


def test_sweep_reaches_the_quasi_classical_regime(tmp_path):
    # below eps = 0.01 the step dt_ref * eps_max / eps passes t_c / n_samples: the
    # cap leaves each such row n_samples steps, where 1e-4 and 1e-5 would take one
    cfg = _write(tmp_path, "sweep.cfg",
                 "epsilons = 0.1, 0.01, 0.001, 1e-4, 1e-5\nt_c = 2.0\nL_c = 1.0\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["n_failed"] == 0
    assert abs(summary["exponent"] - 2.0) < 0.01
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert [float(r["epsilon"]) for r in rows] == [0.1, 0.01, 0.001, 1e-4, 1e-5]
    for r in rows:
        # hbar t_c / (2 m L_c^2) = eps / 2
        expected = 0.5 * math.log1p(float(r["epsilon"]) ** 2 / 4.0)
        assert abs(float(r["delta_I_expected"]) / expected - 1.0) < 1e-14, r
        assert abs(float(r["delta_I"]) / expected - 1.0) < 1e-4, r


def test_sweep_refuses_rows_whose_delta_I_is_within_roundoff(tmp_path):
    # I(t_c) - I(0) is a difference of two numbers near 2.42: at eps = 1e-6,
    # 1e-7 and 1e-8 it is 281, 2 and 0 ulps of I, below the 2**12 ulps
    # (1.8e-12) a row needs, so those rows fail with an error string, leave
    # the fit and count in n_failed, and the sweep exits 2; 1e-5 (28 147 ulps)
    # passes.  Before, the 1e-8 row's delta_I of 0.0 left the fit unseen
    cfg = _write(tmp_path, "sweep.cfg", "epsilons = 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6, "
                                        "1e-7, 1e-8\nt_c = 2\nL_c = 1\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert (summary["n_rows"], summary["n_failed"]) == (8, 3)
    assert abs(summary["exponent"] - 2.0) < 1e-3
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    failed = [float(r["epsilon"]) for r in rows if r["error"]]
    assert failed == [1e-6, 1e-7, 1e-8]
    for r in rows[5:]:
        assert r["error"].endswith("is within roundoff: not above 2**12 ulps of I (1.82e-12)")
        assert r["delta_I"] == "nan"
    assert rows[7]["error"].startswith("delta_I = 0 is within roundoff")


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
        # 1e16 steps on 512 points: over the work ceiling of 2**36 point-steps
        (("dt = 1e-3\nt_final = 0.2\nobserve_stride = 20",
          "dt = 1e-17\nt_final = 0.1\nobserve_stride = 1"), 5),
        # 2**25 steps on 512 points is within the work ceiling, but 2**25 + 1
        # rows exceed the row ceiling of 2**24
        (("t_final = 0.2\nobserve_stride = 20", "t_final = 33554.432\nobserve_stride = 1"), 7),
        ("norm_tol = -1\n", 8),
        ("eq16_rel_tol = -5\n", 8),
        # V(x)*dt/hbar overflows: omega**2 overflows to inf, or V*dt/hbar itself
        ("potential = harmonic\npotential_omega = 1e200\n", 8),
        ("potential = harmonic\npotential_omega = 1e160\n", 8),
        ("hbar = 1e-10\npotential = gaussian_barrier\nbarrier_height = 1e305\n"
         "barrier_width = 1\n", 9),
        # below hbar = 1/DBL_MAX, 1/hbar is inf: the barrier's half kick is nan,
        # refused at the potential; and with mass = hbar, ħ/m = 1 passes the step
        # check, but 1/mass is inf and the kinetic factor nan at k = 0, refused at mass
        ("hbar = 1e-310\npotential = gaussian_barrier\nbarrier_height = 1\n"
         "barrier_width = 1\n", 9),
        ("hbar = 1e-310\nmass = 1e-310\n", 9),
        # 2 rows have no interior row for the eq 16 check
        (("t_final = 0.2\nobserve_stride = 20",
          "t_final = 0.001\nobserve_stride = 1\neq16_rel_tol = 1e-12"), 8),
        # over the ceiling of 2**22 grid points: refused before any array is made
        (("n = 512", "n = 35184372088832"), 3),
        (("n = 512", "n = 8388608"), 3),
    ],
    ids=["k0_nan", "x0_off_grid", "barrier_inf", "mass_inf", "k0_unresolved",
         "subvolume_below_dx", "mass_negative", "dt_tiny", "dt_too_many_steps",
         "dt_too_many_rows", "dt_over_work_ceiling", "stride_over_row_ceiling",
         "norm_tol_negative", "eq16_rel_tol_negative", "harmonic_overflow",
         "harmonic_square_overflow", "barrier_phase_overflow", "barrier_kick_nan",
         "kinetic_factor_nan", "eq16_rel_tol_two_rows",
         "n_2_45", "n_over_point_ceiling"],
)
def test_non_finite_or_off_grid_value_is_config_error(tmp_path, capsys, extra, line):
    text = SIM_CONFIG.replace(*extra) if isinstance(extra, tuple) else SIM_CONFIG + extra
    cfg = _write(tmp_path, "run.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}:")
    assert "Traceback" not in err


SWEEP_BASE = "epsilons = 0.4, 0.2\nt_c = 2.0\nL_c = 1.0\n"
# a free Gaussian whose centre, x0, is left at its default of 0, off the grid
OFF_GRID_CENTRE = "x_min = 1\nx_max = 41\nn = 1024\nsigma0 = 1\ndt = 1e-4\nt_final = 0.1\n"
BINNING_BASE = "x_min = -12.8\nx_max = 12.8\nn = 1024\nsigma0 = 1.0\nbin_widths = 0.4, 0.2, 0.1\n"


@pytest.mark.parametrize(
    "command,text,line,message",
    [
        ("sweep", SWEEP_BASE + "n = 100\n", 4, "power of two"),
        ("sweep", SWEEP_BASE + "x_min = 5\nx_max = 1\n", 5, "x_max must exceed x_min"),
        ("sweep", SWEEP_BASE + "mass = -1\n", 4, "mass must be positive"),
        ("sweep", SWEEP_BASE + "n_samples = 0\n", 4, "n_samples must be positive"),
        # each row would hold 2 samples, too few for a centred difference
        ("sweep", SWEEP_BASE + "n_samples = 1\n", 4, "n_samples must be at least 2"),
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
        # the first row's t_c / dt_ref steps, with dt_ref at its default: at t_c
        ("sweep", SWEEP_BASE.replace("t_c = 2.0", "t_c = 1e300"), 2, "time step too small"),
        # 1e15 steps of the first row on 1024 points
        ("sweep", SWEEP_BASE + "dt_ref = 1e-15\n", 4, "work ceiling"),
        # 5e8 steps of the first row on 1024 points, with dt_ref at its default: at t_c
        ("sweep", SWEEP_BASE.replace("t_c = 2.0", "t_c = 1e6"), 2, "work ceiling"),
        # dt capped at t_c / n_samples: 2**24 + 1 steps within the work ceiling,
        # observed at every step
        ("sweep", SWEEP_BASE + "n_samples = 16777217\n", 4, "too many observed rows"),
        # 1e8 capped steps on 1024 points: the cap, not dt_ref, sets the step
        ("sweep", SWEEP_BASE + "dt_ref = 1e-3\nn_samples = 100000000\n", 5, "work ceiling"),
        ("sweep", SWEEP_BASE + "n = 35184372088832\n", 4, "ceiling of 2**22 grid points"),
        # the packet of width L_c = 1 on 6 length units: reported at L_c, the first key
        # of the width check the text sets
        ("sweep", SWEEP_BASE + "x_min = -3\nx_max = 3\n", 3, "packet too wide"),
        # x0 keeps its default, so the off-grid centre is reported at x_min
        ("sweep", SWEEP_BASE + "x_min = 1\nx_max = 41\n", 4,
         "x0 = 0.0 lies outside the grid"),
        ("binning", BINNING_BASE.replace("n = 1024", "n = 35184372088832"), 3,
         "ceiling of 2**22 grid points"),
        ("oracle", COHERENT_CONFIG.replace("n = 512", "n = 35184372088832"), 3,
         "ceiling of 2**22 grid points"),
        # hbar = 0.5, dt = 2e-3: kinetic phase 3.23 per step; dt_ref keeps its
        # default, so the step is reported at epsilons, the next key that sets it
        ("sweep", "epsilons = 1\nt_c = 2\nL_c = 1\n", 1, "time step too large"),
        # L_c**2 underflows to 0, or overflows: both reported at L_c
        ("sweep", SWEEP_BASE.replace("L_c = 1.0", "L_c = 1e-200"), 3,
         "hbar = eps*mass*L_c**2/t_c must be positive, got 0.0"),
        ("sweep", SWEEP_BASE.replace("L_c = 1.0", "L_c = 1e300"), 3,
         "L_c is out of range: a value it sets overflows"),
        # sigma0**2 underflows to 0: the density is nan, 0/0, on the whole grid
        ("binning", BINNING_BASE.replace("sigma0 = 1.0", "sigma0 = 1e-300"), 4,
         "the normal density of sigma0 = 1e-300 is not finite on the grid"),
        # x0 keeps its default of 0, below x_min or at x_max: reported at the bound
        ("simulate", OFF_GRID_CENTRE, 1, "x0 = 0.0 lies outside the grid [1.0, 41.0)"),
        ("oracle", OFF_GRID_CENTRE, 1, "x0 = 0.0 lies outside the grid [1.0, 41.0)"),
        ("binning", BINNING_BASE.replace("x_max = 12.8", "x_max = 0"), 2,
         "x0 = 0.0 lies outside the grid [-12.8, 0.0)"),
    ],
    ids=["sweep_n", "sweep_x_range", "sweep_mass", "sweep_n_samples", "sweep_n_samples_one",
         "sweep_dt_ref",
         "sweep_x0", "sweep_reg_floor", "binning_tiling", "binning_x0", "binning_sigma0",
         "sweep_k0", "sweep_dt_ref_phase", "sweep_dt_ref_tiny", "sweep_dt_ref_too_many_steps",
         "sweep_t_c_too_many_steps",
         "sweep_dt_ref_over_work_ceiling", "sweep_t_c_over_work_ceiling",
         "sweep_n_samples_over_row_ceiling", "sweep_n_samples_over_work_ceiling",
         "sweep_n_2_45", "sweep_too_wide", "sweep_x0_default_off_grid", "binning_n_2_45",
         "oracle_n_2_45", "sweep_epsilons_phase", "sweep_L_c_underflow", "sweep_L_c_overflow",
         "binning_sigma0_underflow", "simulate_x0_default_off_grid",
         "oracle_x0_default_off_grid", "binning_x0_default_off_grid"],
)
# a numpy warning on the way to a refusal fails the test
@pytest.mark.filterwarnings("error")
def test_sweep_and_binning_config_errors_name_their_line(
    tmp_path, capsys, command, text, line, message
):
    cfg = _write(tmp_path, "run.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}:")
    assert message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err and "(34" not in err


@pytest.mark.parametrize(
    "command,text,line",
    [
        # on 40 length units a floor of 1e-3 may set aside 0.04 of the mass
        ("simulate", SIM_CONFIG + "reg_floor = 1e-3\n", 8),
        ("oracle", COHERENT_CONFIG + "reg_floor = 1e-3\n", 12),
        ("sweep", SWEEP_BASE + "reg_floor = 1\n", 4),
        ("binning", BINNING_BASE + "reg_floor = 1e-3\n", 6),
        # 2.5e-8 * 40 reaches the bound of 1e-6 itself
        ("simulate", SIM_CONFIG + "reg_floor = 2.5e-8\n", 8),
    ],
    ids=["simulate", "oracle", "sweep", "binning", "simulate_at_bound"],
)
def test_reg_floor_holding_mass_is_config_error(tmp_path, capsys, command, text, line):
    cfg = _write(tmp_path, "run.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: reg_floor = ")
    assert "must be below 1e-06" in err
    assert not (tmp_path / "o").exists()


def test_reg_floor_below_mass_bound_runs(tmp_path):
    # 2.4e-8 * 40 = 9.6e-7 of the mass at most
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG + "reg_floor = 2.4e-8\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_oracle_rejects_off_centre_harmonic_well(tmp_path, capsys):
    # the closed-form coherent state oscillates about x = 0
    cfg = _write(tmp_path, "run.cfg", COHERENT_CONFIG + "potential_center = 3\n")
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "potential_center = 0" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"]) == 0


@pytest.mark.parametrize("command", ["simulate", "oracle", "sweep", "binning"])
def test_config_not_utf8_is_config_error_at_its_line(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"x_min = -20\r\nx_max = 20\r\n# caf\xe9\r\nn = 512\r\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: line 3: byte 0xe9 of ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command,text",
    [
        ("simulate", SIM_CONFIG + "save_snapshots = true\n"),
        ("oracle", COHERENT_CONFIG),
        ("sweep", SWEEP_BASE),
        ("binning", BINNING_BASE),
    ],
    ids=["simulate", "oracle", "sweep", "binning"],
)
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_out_is_one_line_error_before_the_run(tmp_path, capsys, command, text, out):
    cfg = _write(tmp_path, "run.cfg", text)
    (tmp_path / "file").write_text("kept\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot make output directory {tmp_path / out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flat_barrier_runs_as_the_free_packet(tmp_path, capsys):
    # width**2 overflows to inf: V is the barrier's height everywhere, a
    # constant that only turns the phase
    flat = _write(tmp_path, "flat.cfg", SIM_CONFIG + "potential = gaussian_barrier\n"
                  "barrier_height = 3.0\nbarrier_width = 1e200\n")
    free = _write(tmp_path, "free.cfg", SIM_CONFIG)
    assert main(["simulate", "--config", flat, "--out", str(tmp_path / "flat"), "--quiet"]) == 0
    assert main(["simulate", "--config", free, "--out", str(tmp_path / "free"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    series = [np.genfromtxt(tmp_path / name / "series.csv", delimiter=",", names=True)
              for name in ("flat", "free")]
    assert np.max(np.abs(series[0]["I"] - series[1]["I"])) <= 1e-12


def test_snapshots_path_taken_by_a_file_is_one_line_error_before_the_run(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG + "save_snapshots = true\n")
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "snapshots").write_text("kept\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot make output directory {tmp_path / 'o'}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["snapshots"]


@pytest.mark.parametrize(
    "command,text,name",
    [
        ("simulate", SIM_CONFIG, "series.csv"),
        ("oracle", COHERENT_CONFIG, "summary.json"),
        ("sweep", SWEEP_BASE, "sweep.csv"),
        ("binning", BINNING_BASE, "binning.csv"),
    ],
    ids=["simulate", "oracle", "sweep", "binning"],
)
def test_output_file_taken_by_a_directory_is_one_line_error(tmp_path, capsys, command,
                                                            text, name):
    cfg = _write(tmp_path, "run.cfg", text)
    (tmp_path / "o" / name).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(tmp_path / "o" / name) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_snapshot_file_taken_by_a_directory_stops_the_run_with_one_line(tmp_path, capsys):
    # 201 rows in blocks of 64: the first block's sixth file fails, so the
    # run stops partway; the files written before it stay
    cfg = _write(tmp_path, "run.cfg", SIM_CONFIG.replace("observe_stride = 20",
                                                         "observe_stride = 1")
                 + "save_snapshots = true\n")
    snapshots = tmp_path / "o" / "snapshots"
    (snapshots / "snapshot_000005.csv").mkdir(parents=True)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "snapshot_000005.csv" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in snapshots.iterdir()) == [
        f"snapshot_{i:06d}.csv" for i in range(6)]
    assert not (tmp_path / "o" / "series.csv").exists()


@pytest.mark.parametrize("libc", ["no confstr", ValueError("unrecognized configuration name"),
                                  None, ""], ids=["no_confstr", "unknown_name", "none", "musl"])
def test_malloc_thresholds_stay_unset_without_glibc(monkeypatch, libc):
    # away from glibc the allocator keeps its defaults: no libc is loaded
    from entroflux import cli

    def confstr(name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    if libc == "no confstr":
        monkeypatch.delattr(cli.os, "confstr")
    else:
        monkeypatch.setattr(cli.os, "confstr", confstr)
    monkeypatch.setattr(cli.ctypes, "CDLL", None)
    assert cli._set_malloc_thresholds() is False


@pytest.mark.parametrize("command,text", [("simulate", SIM_CONFIG), ("sweep", SWEEP_BASE)],
                         ids=["simulate", "sweep"])
def test_run_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch, command, text):
    from entroflux import entropy

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(entropy, "split_steps", exhausted)
    cfg = _write(tmp_path, "run.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "memory error: Unable to allocate 64.0 GiB for an array\n"


# ---------- an output directory holds one run's outputs ----------

RERUN_CONFIG = "x_min = -20\nx_max = 20\nn = 256\nsigma0 = 1.0\ndt = 1e-3\nobserve_stride = 1\n"


@pytest.mark.parametrize("save", ["true", "false"])
def test_rerun_leaves_only_its_own_snapshots(tmp_path, save):
    # a 5-row run with snapshots, then a 3-row rerun into the same --out: the
    # earlier run's snapshot files go, whether the rerun writes snapshots or not
    out = tmp_path / "o"
    first = _write(tmp_path, "five.cfg", RERUN_CONFIG + "t_final = 0.004\nsave_snapshots = true\n")
    rerun = _write(tmp_path, "three.cfg",
                   RERUN_CONFIG + f"t_final = 0.002\nsave_snapshots = {save}\n")
    assert main(["simulate", "--config", first, "--out", str(out), "--quiet"]) == 0
    assert len(list((out / "snapshots").iterdir())) == 5
    assert main(["simulate", "--config", rerun, "--out", str(out), "--quiet"]) == 0
    expected = [f"snapshot_{i:06d}.csv" for i in range(3)] if save == "true" else []
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == expected
    assert len((out / "series.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("command,text", [("simulate", SIM_CONFIG), ("sweep", SWEEP_BASE)],
                         ids=["simulate", "sweep"])
def test_run_out_of_memory_leaves_no_summary(tmp_path, capsys, monkeypatch, command, text):
    # a finished run, then a rerun that fails partway: no summary says passed
    from entroflux import entropy

    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    before = sorted(p.name for p in out.iterdir())

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(entropy, "split_steps", exhausted)
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("memory error: ")
    assert len(before) == 2 and list(out.iterdir()) == []


# names each command writes, with two snapshot files no rerun here writes
SNAPSHOT_OUTPUTS = ["series.csv", "summary.json", "snapshots/snapshot_000099.csv",
                    "snapshots/snapshot_1000000.csv"]
OUTPUTS = {"simulate": SNAPSHOT_OUTPUTS, "oracle": SNAPSHOT_OUTPUTS,
           "sweep": ["sweep.csv", "sweep_summary.json"], "binning": ["binning.csv"]}
# names no command writes
NOT_OUTPUTS = ["notes.txt", "series.csv.bak", "snapshots/notes.txt", "snapshots/snapshot_1.csv",
               "snapshots/snapshot_0000001.csv", "snapshots/snapshot_000001.csv.bak"]


@pytest.mark.parametrize(
    "command,text",
    [
        ("simulate", SIM_CONFIG + "save_snapshots = true\n"),
        ("oracle", COHERENT_CONFIG + "save_snapshots = true\n"),
        ("sweep", SWEEP_BASE),
        ("binning", BINNING_BASE),
    ],
    ids=["simulate", "oracle", "sweep", "binning"],
)
def test_rerun_removes_only_the_files_its_command_writes(tmp_path, command, text):
    # the names a command writes are removed before it runs; names no command
    # writes, and the outputs of the other commands, stay
    out = tmp_path / "o"
    (out / "snapshots").mkdir(parents=True)
    stale = OUTPUTS[command]
    kept = NOT_OUTPUTS + [name for names in OUTPUTS.values() for name in names
                          if name not in stale]
    for name in kept:
        (out / name).write_text("kept\n")
    for name in stale:
        (out / name).write_text("stale\n")
    cfg = _write(tmp_path, "run.cfg", text)
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    for name in kept:
        assert (out / name).read_text() == "kept\n", name
    for name in stale:
        if "snapshot_" in name:
            assert not (out / name).exists(), name
        else:
            assert (out / name).read_text() != "stale\n", name


@pytest.mark.parametrize("command", ["simulate", "oracle", "sweep", "binning"])
def test_config_error_leaves_the_output_directory_untouched(tmp_path, capsys, command):
    out = tmp_path / "o"
    (out / "snapshots").mkdir(parents=True)
    names = ["series.csv", "summary.json", "sweep.csv", "sweep_summary.json", "binning.csv",
             "notes.txt", "snapshots/snapshot_000000.csv"]
    for name in names:
        (out / name).write_text("earlier\n")
    cfg = _write(tmp_path, "bad.cfg", "unknown_key = 1\n")
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error: line 1: ")
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == \
        sorted(names)
    assert all((out / name).read_text() == "earlier\n" for name in names)

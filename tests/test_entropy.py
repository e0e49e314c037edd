import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entroflux as ef
from conftest import I_GAUSS_SIGMA1, plane_wave


PARAMS = ef.PhysicalParams()


def gaussian_density(grid, sigma=1.0, x0=0.0):
    rho = np.exp(-((grid.x - x0) ** 2) / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
    return ef.RealField(grid, rho)


# ---------- information density ----------

def test_info_density_values():
    g = ef.Grid1D(0.0, 1.0, 64)
    out = ef.info_density(ef.RealField(g, np.ones(64)))
    assert np.max(np.abs(out.values - 1.0)) < 1e-15
    out = ef.info_density(ef.RealField(g, np.full(64, np.e)))
    assert np.max(np.abs(out.values)) < 1e-14


def test_info_density_floor():
    g = ef.Grid1D(0.0, 1.0, 64)
    out = ef.info_density(ef.RealField(g, np.full(64, 1e-15)), reg_floor=1e-12)
    assert np.all(out.values == 0.0)


def test_info_density_rejects_negative():
    g = ef.Grid1D(0.0, 1.0, 64)
    rho = np.ones(64)
    rho[3] = -0.1
    with pytest.raises(ValueError, match="negative density"):
        ef.info_density(ef.RealField(g, rho))


# ---------- information entropy ----------

def test_info_entropy_uniform_unit_interval():
    g = ef.Grid1D(0.0, 1.0, 64)
    assert ef.info_entropy(ef.RealField(g, np.ones(64))) == pytest.approx(1.0, abs=1e-12)


def test_info_entropy_uniform_length_two():
    g = ef.Grid1D(0.0, 2.0, 64)
    val = ef.info_entropy(ef.RealField(g, np.full(64, 0.5)))
    assert val == pytest.approx(np.log(2.0) + 1.0, abs=1e-12)


def test_info_entropy_gaussian_matches_quadrature_oracle():
    # independent oracle: brute-force trapezoid quadrature of -rho(ln rho - 1)
    # for the closed-form unit Gaussian on a fine non-periodic grid
    xs = np.linspace(-30.0, 30.0, 1_000_001)
    rho = np.exp(-(xs**2) / 2) / np.sqrt(2 * np.pi)
    integrand = np.where(rho > 0, -rho * (np.log(np.maximum(rho, 1e-300)) - 1.0), 0.0)
    oracle = np.trapezoid(integrand, xs)
    assert oracle == pytest.approx(I_GAUSS_SIGMA1, abs=1e-10)

    g = ef.Grid1D(-20.0, 20.0, 2048)
    val = ef.info_entropy(gaussian_density(g))
    assert val == pytest.approx(I_GAUSS_SIGMA1, rel=1e-6)


def test_info_entropy_rejects_unnormalized():
    g = ef.Grid1D(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="not normalized"):
        ef.info_entropy(ef.RealField(g, np.full(64, 2.0)))


def test_info_entropy_is_differential_entropy_plus_one():
    g = ef.Grid1D(-10.0, 10.0, 512)
    rho = 1.0 + 0.4 * np.sin(2 * np.pi * g.x / g.length) + 0.2 * np.cos(
        4 * np.pi * g.x / g.length
    )
    rho /= g.dx * rho.sum()
    f = ef.RealField(g, rho)
    diff_entropy = -g.dx * np.sum(rho * np.log(rho))
    assert ef.info_entropy(f) == pytest.approx(diff_entropy + 1.0, abs=1e-12)


def test_info_entropy_translation_and_phase_invariance():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.init_gaussian(g, PARAMS, sigma0=1.0, k0=2.0)
    rho = ef.density(wf)
    i0 = ef.info_entropy(rho)
    shifted = ef.RealField(g, np.roll(rho.values, 100))
    assert ef.info_entropy(shifted) == pytest.approx(i0, abs=1e-12)
    phased = wf.psi * np.exp(1j * 0.7)
    import dataclasses
    wf2 = dataclasses.replace(wf, psi=phased)
    assert ef.info_entropy(ef.density(wf2)) == pytest.approx(i0, abs=1e-12)


# ---------- binned entropy ----------

def test_binned_entropy_uniform():
    g = ef.Grid1D(0.0, 1.0, 64)
    rho = ef.RealField(g, np.ones(64))
    # 8 bins of width 1/8 -> ln 8
    assert ef.binned_entropy(rho, 0.125) == pytest.approx(np.log(8.0), abs=1e-12)


def test_binned_entropy_single_bin():
    g = ef.Grid1D(0.0, 1.0, 64)
    rho = ef.RealField(g, np.ones(64))
    assert ef.binned_entropy(rho, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_binned_entropy_rejects_non_tiling_width():
    g = ef.Grid1D(0.0, 1.0, 64)
    rho = ef.RealField(g, np.ones(64))
    with pytest.raises(ValueError, match="integer multiple"):
        ef.binned_entropy(rho, 0.3)


def test_binned_entropy_gaussian_relation():
    # binned + ln(dq) approximates the differential entropy I - 1
    g = ef.Grid1D(-12.8, 12.8, 1024)
    rho = gaussian_density(g)
    binned = ef.binned_entropy(rho, 0.1)
    assert binned + np.log(0.1) == pytest.approx(0.5 * np.log(2 * np.pi * np.e), abs=5e-4)


def test_binning_limit_study_uniform_exact():
    g = ef.Grid1D(0.0, 1.0, 64)
    rows = ef.binning_limit_study(ef.RealField(g, np.ones(64)), [0.25, 0.125])
    for r in rows:
        assert r.defect < 1e-12


def test_binning_limit_study_convergence():
    g = ef.Grid1D(-12.8, 12.8, 1024)
    rows = ef.binning_limit_study(gaussian_density(g), [0.4, 0.2, 0.1])
    assert [r.bin_width for r in rows] == [0.4, 0.2, 0.1]
    assert rows[0].defect / rows[1].defect >= 3.5
    assert rows[1].defect / rows[2].defect >= 3.5
    assert all(r.resolved for r in rows)


def test_binning_limit_study_unresolved_control():
    # sigma = 2 * bin width: delta-like relative to the bins
    g = ef.Grid1D(-12.8, 12.8, 1024)
    rows = ef.binning_limit_study(gaussian_density(g, sigma=0.8), [0.4])
    assert not rows[0].resolved


# ---------- rate identity (chain rule) ----------

def test_rate_identity_stationary_is_zero():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    rho = gaussian_density(g)
    l2, linf = ef.rate_identity_residual(rho, rho, rho, 1e-3)
    assert l2 == 0.0 and linf == 0.0


def test_rate_identity_plane_wave_zero():
    g = ef.Grid1D(0.0, 4.0, 64)
    wf, _ = plane_wave(g, PARAMS, mode=2)
    rho = ef.density(wf)
    l2, _ = ef.rate_identity_residual(rho, rho, rho, 1e-3)
    assert l2 == 0.0


def _spread_rate_residual(dt):
    g = ef.Grid1D(-16.0, 16.0, 512)
    wf = ef.evolve(
        ef.init_gaussian(g, PARAMS, sigma0=1.0), ef.Potential.free(), dt,
        int(round(0.4 / dt))
    )
    rhos = [ef.density(wf)]
    for _ in range(2):
        wf = ef.step(wf, ef.Potential.free(), dt)
        rhos.append(ef.density(wf))
    return ef.rate_identity_residual(rhos[0], rhos[1], rhos[2], dt)


def test_rate_identity_second_order_in_dt():
    l2_a, _ = _spread_rate_residual(1e-3)
    l2_b, _ = _spread_rate_residual(5e-4)
    assert l2_a < 1e-6
    assert l2_a / l2_b >= 3.5


def test_rate_identity_grid_mismatch():
    a = gaussian_density(ef.Grid1D(-20.0, 20.0, 1024))
    b = gaussian_density(ef.Grid1D(-20.0, 20.0, 512))
    with pytest.raises(ValueError, match="mismatched grids"):
        ef.rate_identity_residual(a, b, a, 1e-3)


# ---------- local balance law ----------

def test_balance_residual_coherent_analytic():
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    orc = ef.CoherentOracle(omega=1.0, amplitude=1.0, params=PARAMS)
    dt = 1e-3
    worst = 0.0
    for t in np.linspace(0.0, 2 * np.pi, 9):
        snaps = [orc.fields(grid, t + s * dt) for s in (-1, 0, 1)]
        _, linf = ef.balance_residual(*snaps, dt)
        worst = max(worst, linf)
    assert worst < 1e-6


def test_balance_residual_plane_wave_zero():
    g = ef.Grid1D(0.0, 4.0, 64)
    wf, _ = plane_wave(g, PARAMS, mode=2)
    snaps = [ef.take_snapshot(wf)] * 3
    l2, linf = ef.balance_residual(snaps[0], snaps[1], snaps[2], 1e-3)
    assert linf < 1e-12


@pytest.mark.parametrize(
    "pot,x0,k0",
    [
        (ef.Potential.free(), 0.0, 0.0),
        (ef.Potential.harmonic(1.0), 1.0, 0.0),
        (ef.Potential.gaussian_barrier(0.5, 1.0, 3.0), -2.0, 2.0),
    ],
    ids=["free", "harmonic", "barrier"],
)
def test_balance_residual_second_order_in_dt(pot, x0, k0):
    g = ef.Grid1D(-16.0, 16.0, 512)
    wf0 = ef.init_gaussian(g, PARAMS, sigma0=1.0, x0=x0, k0=k0)

    def resid(dt):
        wf = ef.evolve(wf0, pot, dt, int(round(0.4 / dt)) - 1)
        snaps = [ef.take_snapshot(wf)]
        for _ in range(2):
            wf = ef.step(wf, pot, dt)
            snaps.append(ef.take_snapshot(wf))
        return ef.balance_residual(snaps[0], snaps[1], snaps[2], dt)[0]

    assert resid(1e-3) / resid(5e-4) >= 3.5


# ---------- integral laws ----------

def test_entropy_rate_check_spreading_analytic():
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    orc = ef.GaussianOracle(sigma0=1.0, params=PARAMS)
    times = np.arange(190, 211) * 0.01  # centered on t=2
    snaps = [orc.fields(grid, t) for t in times]
    reports = ef.entropy_rate_check(snaps)
    mid = reports[10]
    assert mid.t == pytest.approx(2.0)
    assert mid.dIdt_fd == pytest.approx(0.25, abs=1e-4)
    assert mid.rhs_eq16 == pytest.approx(0.25, abs=1e-6)
    assert mid.boundary_flux == 0.0


def test_entropy_rate_check_refuses_an_empty_series():
    with pytest.raises(ValueError, match="empty snapshot series"):
        ef.entropy_rate_check([])


def test_snapshots_on_two_grids_are_refused():
    a, b = (ef.take_snapshot(ef.init_gaussian(ef.Grid1D(-20.0, 20.0, n), PARAMS, sigma0=1.0))
            for n in (256, 512))
    with pytest.raises(ValueError, match="mismatched grids"):
        ef.balance_residual(a, a, b, 1e-3)
    with pytest.raises(ValueError, match="mismatched grids"):
        ef.entropy_rate_check([a, b])


def test_entropy_rate_check_at_rest():
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    orc = ef.GaussianOracle(sigma0=1.0, params=PARAMS)
    snaps = [orc.fields(grid, t) for t in (0.0, 0.01, 0.02)]
    reports = ef.entropy_rate_check(snaps)
    # sigma'(0) = 0, so dI/dt ~ 0 at the first sample; the one-sided
    # difference there is first order, I''(0) dt / 2 = 1.25e-3
    assert abs(reports[0].dIdt_fd) < 2e-3
    assert abs(reports[0].rhs_eq16) < 1e-12


def test_entropy_rate_check_subvolume_flux():
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    orc = ef.GaussianOracle(sigma0=1.0, params=PARAMS)
    times = np.arange(190, 211) * 0.01
    snaps = [orc.fields(grid, t) for t in times]
    sig = np.sqrt(2.0)
    reports = ef.entropy_rate_check(snaps, subvolume=(-2 * sig, 2 * sig))
    mid = reports[10]
    assert mid.boundary_flux != 0.0
    assert mid.rhs_eq15 == pytest.approx(-mid.boundary_flux + mid.rhs_eq16, abs=0.0)
    assert abs(mid.dIdt_fd - mid.rhs_eq15) < 1e-4 * max(abs(mid.dIdt_fd), 1.0)


def test_entropy_rate_check_rejects_irregular_spacing():
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    orc = ef.GaussianOracle(sigma0=1.0, params=PARAMS)
    snaps = [orc.fields(grid, t) for t in (0.0, 0.01, 0.03)]
    with pytest.raises(ValueError, match="uniform"):
        ef.entropy_rate_check(snaps)


def test_entropy_rate_check_single_snapshot():
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    orc = ef.GaussianOracle(sigma0=1.0, params=PARAMS)
    reports = ef.entropy_rate_check([orc.fields(grid, 0.0)])
    assert len(reports) == 1
    assert reports[0].dIdt_fd == 0.0


# ---------- sign witness ----------

def _report(t, didt, rhs16):
    return ef.BalanceReport(
        t=t, residual_l2=0.0, residual_linf=0.0, dIdt_fd=didt,
        rhs_eq16=rhs16, boundary_flux=0.0, rhs_eq15=rhs16,
    )


def test_sign_witness_counts_interior_agreement():
    reports = [
        _report(0.0, 1.0, -1.0),   # endpoint, ignored
        _report(1.0, 0.5, 0.4),
        _report(2.0, -0.5, -0.1),
        _report(3.0, 1e-12, -1.0),  # inside dead-band, skipped
        _report(4.0, 1.0, 1.0),    # endpoint, ignored
    ]
    w = ef.sign_witness(reports)
    assert w.n_eligible == 2
    assert w.fraction == 1.0


def test_sign_witness_detects_disagreement():
    reports = [_report(float(i), 1.0, -1.0) for i in range(4)]
    w = ef.sign_witness(reports)
    assert w.fraction == 0.0


def test_sign_witness_empty_eligible_is_one():
    reports = [_report(float(i), 1e-12, 1.0) for i in range(4)]
    assert ef.sign_witness(reports).fraction == 1.0


# ---------- stacked series vs the per-instant API ----------

STACKED_CONFIG = """\
x_min = -16
x_max = 16
n = 512
sigma0 = 1.0
k0 = 0.5
potential = harmonic
potential_omega = 1.0
dt = 1e-3
t_final = 0.15
observe_stride = 1
"""


def _run_csv(tmp_path, name, text):
    import json
    from entroflux.cli import main

    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    series = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
    return series, json.loads((out / "summary.json").read_text())


def _reference_residuals(prev, mid, nxt, dt, reg_floor):
    """Residuals of eq 13 and eq 9 at `mid`, one grid row at a time."""
    g = mid.den.rho.grid
    rho, v = mid.den.rho.values, mid.den.velocity.values
    d_rho_i = (nxt.rho_I.values - prev.rho_I.values) / (2.0 * dt)
    flux = (mid.rho_I.values - rho) * v
    r13 = d_rho_i + ef.derivative(ef.RealField(g, flux)).values + v * mid.den.drho.values
    d_rho = (nxt.den.rho.values - prev.den.rho.values) / (2.0 * dt)
    mask = rho >= reg_floor
    r9 = np.zeros(g.n)
    r9[mask] = d_rho_i[mask] + d_rho[mask] * np.log(rho[mask])
    l2 = [float(np.sqrt(g.dx * np.sum(r * r))) for r in (r13, r9)]
    return l2[0], float(np.max(np.abs(r13))), l2[1]


def test_series_columns_match_per_instant_api_bitwise(tmp_path):
    from entroflux.entropy import CHUNK_POINTS

    sub = (-2.0, 2.5)
    text = STACKED_CONFIG + f"subvolume_a = {sub[0]}\nsubvolume_b = {sub[1]}\n"
    cols, summary = _run_csv(tmp_path, "sub", text)
    cfg = ef.parse_config(text)
    # more samples than one block of rows, so block seams are exercised
    assert len(cols) > CHUNK_POINTS // cfg.grid.n + 2

    wf0 = ef.init_gaussian(cfg.grid, cfg.params, cfg.sigma0, cfg.x0, cfg.k0)
    snaps = [ef.take_snapshot(wf0, cfg.reg_floor)]
    ef.evolve(wf0, cfg.potential, cfg.dt, cfg.n_steps, stride=1,
              observer=lambda w: snaps.append(ef.take_snapshot(w, cfg.reg_floor)))
    assert len(snaps) == len(cols)
    dt = snaps[1].t - snaps[0].t
    reports = ef.entropy_rate_check(snaps, subvolume=sub)
    ia, ib = (int(round((a - cfg.grid.x_min) / cfg.grid.dx)) for a in sub)
    xs = cfg.grid.x[ia : ib + 1]
    for i, (s, rep) in enumerate(zip(snaps, reports)):
        row = cols[i]
        v = s.den.velocity.values
        v_drho = v * s.den.drho.values
        assert row["rhs_eq16"] == -float(np.trapezoid(v_drho[ia : ib + 1], xs))
        g = (s.rho_I.values - s.den.rho.values) * v
        assert row["boundary_flux"] == g[ib] - g[ia]
        assert row["t"] == s.t == rep.t
        assert row["norm"] == float(cfg.grid.dx * s.den.rho.values.sum())
        assert row["I"] == s.I
        assert row["floored_points"] == s.den.floored_points
        for col, attr in (("dIdt_fd", "dIdt_fd"), ("rhs_eq16", "rhs_eq16"),
                          ("boundary_flux", "boundary_flux"), ("rhs_eq15", "rhs_eq15"),
                          ("residual13_l2", "residual_l2"),
                          ("residual13_linf", "residual_linf")):
            assert row[col] == getattr(rep, attr), (i, col)
        if 0 < i < len(snaps) - 1:
            r13 = ef.balance_residual(snaps[i - 1], s, snaps[i + 1], dt)
            r9 = ef.rate_identity_residual(
                snaps[i - 1].den.rho, s.den.rho, snaps[i + 1].den.rho, dt, cfg.reg_floor
            )
            assert (row["residual13_l2"], row["residual13_linf"]) == r13, i
            assert row["residual9_l2"] == r9[0], i
            ref = _reference_residuals(snaps[i - 1], s, snaps[i + 1], dt, cfg.reg_floor)
            assert (row["residual13_l2"], row["residual13_linf"], row["residual9_l2"]) == ref
        else:
            assert row["residual13_l2"] == row["residual9_l2"] == 0.0

    # eq 16 agreement and the sign witness are full-domain values
    _, full = _run_csv(tmp_path, "full", STACKED_CONFIG)
    for key in ("eq16_rel_err", "sign_witness_fraction", "sign_witness_eligible"):
        assert summary[key] == full[key], key
    witness = ef.sign_witness(ef.entropy_rate_check(snaps))
    assert summary["sign_witness_fraction"] == witness.fraction
    assert summary["sign_witness_eligible"] == witness.n_eligible


# ---------- streamed blocks and snapshot files vs the per-instant API ----------

SEAM_GRIDS = {
    # blocks of 64 rows; 151 rows end in a partial block
    512: "x_min = -16\nx_max = 16\nn = 512\ndt = 1e-3\nt_final = 0.15\n",
    # blocks of 2 rows; 7 rows end in a partial block
    16384: "x_min = -160\nx_max = 160\nn = 16384\ndt = 1e-4\nt_final = 6e-4\n",
}
SEAM_SCENARIOS = {
    "simulate": "sigma0 = 1.0\nk0 = 0.5\npotential = gaussian_barrier\n"
                "barrier_height = 2.0\nbarrier_width = 0.5\nbarrier_center = 1.0\n",
    "oracle": "initial = coherent\nomega = 1.0\namplitude = 1.0\npotential = harmonic\n"
              "potential_omega = 1.0\n",
}


def _snapshot_bytes(s) -> bytes:
    columns = (s.den.rho.grid.x, s.den.rho.values, s.den.current.values,
               s.den.velocity.values, s.rho_I.values)
    lines = ["x,rho,current,velocity,rho_I"]
    lines += [",".join("%.17g" % float(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n", sorted(SEAM_GRIDS))
@pytest.mark.parametrize("command", sorted(SEAM_SCENARIOS))
def test_streamed_rows_and_snapshots_match_per_instant_api_bitwise(tmp_path, command, n):
    from entroflux.cli import main
    from entroflux.entropy import CHUNK_POINTS

    sub = (-2.0, 2.5)
    text = (SEAM_GRIDS[n] + SEAM_SCENARIOS[command] + "observe_stride = 1\n"
            f"subvolume_a = {sub[0]}\nsubvolume_b = {sub[1]}\nsave_snapshots = true\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    cols = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
    cfg = ef.parse_config(text)
    height = CHUNK_POINTS // n
    assert len(cols) > height and len(cols) % height != 0

    if command == "simulate":
        wf0 = ef.init_gaussian(cfg.grid, cfg.params, cfg.sigma0, cfg.x0, cfg.k0)
        snaps = [ef.take_snapshot(wf0, cfg.reg_floor)]
        ef.evolve(wf0, cfg.potential, cfg.dt, cfg.n_steps, stride=1,
                  observer=lambda w: snaps.append(ef.take_snapshot(w, cfg.reg_floor)))
    else:
        orc = ef.CoherentOracle(omega=cfg.omega, amplitude=cfg.x0, params=cfg.params)
        snaps = [orc.fields(cfg.grid, i * cfg.dt, cfg.reg_floor) for i in range(len(cols))]
    assert len(snaps) == len(cols)
    files = sorted((out / "snapshots").glob("snapshot_*.csv"))
    assert [f.name for f in files] == [f"snapshot_{i:06d}.csv" for i in range(len(snaps))]

    grid, dt = cfg.grid, snaps[1].t - snaps[0].t
    ia, ib = (int(round((a - grid.x_min) / grid.dx)) for a in sub)
    xs = grid.x[ia : ib + 1]
    i_sub = [float(np.trapezoid(s.rho_I.values[ia : ib + 1], xs)) for s in snaps]
    last = len(snaps) - 1
    for i, (s, f) in enumerate(zip(snaps, files)):
        row = cols[i]
        assert f.read_bytes() == _snapshot_bytes(s), i
        rho, v = s.den.rho.values, s.den.velocity.values
        v_drho = v * s.den.drho.values
        g = (s.rho_I.values - rho) * v
        assert row["t"] == s.t
        assert row["norm"] == float(grid.dx * rho.sum())
        assert row["I"] == s.I
        assert row["floored_points"] == s.den.floored_points
        assert row["rhs_eq16"] == -float(np.trapezoid(v_drho[ia : ib + 1], xs)), i
        assert row["boundary_flux"] == g[ib] - g[ia], i
        assert row["rhs_eq15"] == -row["boundary_flux"] + row["rhs_eq16"], i
        if 0 < i < last:
            assert row["dIdt_fd"] == (i_sub[i + 1] - i_sub[i - 1]) / (2.0 * dt), i
            ref = _reference_residuals(snaps[i - 1], s, snaps[i + 1], dt, cfg.reg_floor)
            assert (row["residual13_l2"], row["residual13_linf"], row["residual9_l2"]) == ref, i
        else:
            j = 1 if i == 0 else last
            assert row["dIdt_fd"] == (i_sub[j] - i_sub[j - 1]) / dt, i
            assert row["residual13_l2"] == row["residual9_l2"] == 0.0


# ---------- memory ----------

MEMORY_CONFIG = """\
x_min = -20
x_max = 20
n = 256
sigma0 = 1.0
dt = 1e-3
observe_stride = 1
subvolume_a = -2
subvolume_b = 2
"""


@pytest.mark.parametrize("run", ["run_simulation", "run_oracle"])
def test_run_holds_no_field_per_row(run):
    # four float (T, n) arrays would take 25 MB more at T = 4001 than at 1001
    import tracemalloc

    import entroflux.report as report

    peaks = []
    for t_final in (1.0, 4.0):
        cfg = ef.parse_config(MEMORY_CONFIG + f"t_final = {t_final}\n")
        tracemalloc.start()
        try:
            getattr(report, run)(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6, peaks


KICKED_16384 = """\
x_min = -160
x_max = 160
n = 16384
sigma0 = 1.0
x0 = -2
k0 = 10
potential = gaussian_barrier
barrier_height = 50
barrier_width = 0.5
dt = 1e-4
t_final = 0.02
observe_stride = 4
subvolume_a = -5
subvolume_b = 5
"""


def test_kicked_run_peak_is_its_block_buffers_and_nine_block_arrays():
    # blocks of 2 rows at n = 16384, and a last block of 1 row.  Beyond the
    # window and the held states, a warm run holds at most 9 arrays of a block's
    # (h, n) floats: the held states' derivatives (2), the propagator's four
    # n-point complex arrays (4: the state buffer, the half kick, the kinetic
    # factor and the twiddles), the initial state (1), ik psi_hat of half the
    # wavenumbers, from which the carriers' moments are taken (1), and small
    # temporaries and the four arrays' pads of n1 = 128 points each (measured
    # 0.11, 0.08 unpadded; 0.3 when each observed state was handed over in an
    # array of its own).  A block temporary the size of the held states, as a
    # forward transform made anew, adds 2
    import tracemalloc

    import entroflux.report as report
    from entroflux.entropy import Diagnostics

    cfg = ef.parse_config(KICKED_16384)
    stream = Diagnostics(cfg.grid, cfg.n_rows, cfg.reg_floor, cfg.subvolume)
    assert (stream.height, cfg.n_rows % stream.height) == (2, 1)
    w = stream.window
    window = sum(a.nbytes for a in (w.rho, w.current, w.velocity, w.rho_I, stream.v_drho,
                                    stream.ln_rho, stream.mask))
    fixed, block_array = window + stream.held.nbytes, stream.height * cfg.grid.n * 8
    del stream, w
    report.run_simulation(cfg)
    tracemalloc.start()
    try:
        report.run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - fixed) / block_array < 9, (peak - fixed) / block_array


# ---------- collect's blocks vs the per-instant API ----------

def _collected(wf, potential, dt, n_steps, stride, reg_floor):
    """The rows collect pushes, stacked into one Series from copies of its blocks."""
    from entroflux.entropy import Diagnostics, Series, collect

    names = ("t", "rho", "current", "velocity", "rho_I", "floored_points")
    blocks = []

    def keep(first, rows):
        assert first == sum(len(b[0]) for b in blocks)
        blocks.append([getattr(rows, name).copy() for name in names])

    stream = Diagnostics(wf.grid, n_steps // stride + 1, reg_floor, on_block=keep)
    collect(wf, potential, dt, n_steps, stride, stream)
    return Series(wf.grid, reg_floor, *map(np.concatenate, zip(*blocks)))


def test_collect_blocks_match_take_snapshot_bitwise():
    from entroflux.entropy import CHUNK_POINTS

    grid = ef.Grid1D(-16.0, 16.0, 512)
    pot = ef.Potential.gaussian_barrier(2.0, 0.5, 1.5)
    wf0 = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=2.0)
    stride, reg_floor = 3, 1e-8
    height = CHUNK_POINTS // grid.n
    n_steps = stride * (height + 6)  # a full block and a partial last one
    series = _collected(wf0, pot, 1e-3, n_steps, stride, reg_floor)

    snaps = [ef.take_snapshot(wf0, reg_floor)]
    ef.evolve(wf0, pot, 1e-3, n_steps, stride=stride,
              observer=lambda w: snaps.append(ef.take_snapshot(w, reg_floor)))
    assert len(series.t) == len(snaps) == height + 7
    for i, s in enumerate(snaps):
        assert series.t[i] == s.t, i
        assert np.array_equal(series.rho[i], s.den.rho.values), i
        assert np.array_equal(series.current[i], s.den.current.values), i
        assert np.array_equal(series.velocity[i], s.den.velocity.values), i
        assert np.array_equal(series.rho_I[i], s.rho_I.values), i
        assert series.floored_points[i] == s.den.floored_points, i
    assert series.floored_points.min() > 0


@pytest.mark.parametrize("n, half_width, dt, n_steps", [
    (512, 16.0, 1e-3, 3 * 70),  # a full block of 64 rows and a partial one
    (16384, 160.0, 1e-4, 3 * 5),  # blocks of 2 rows of 256 KiB each
], ids=["n512", "n16384"])
def test_free_collect_rows_match_take_snapshot(n, half_width, dt, n_steps):
    # a free run hands each observed state over as its transform psi_hat: a
    # block's states are one batched ifft of its transforms, the same bits as
    # evolve's state, and dpsi/dx is a second one, ifft(ik psi_hat), which
    # agrees with take_snapshot's FFT pair of the state to roundoff
    grid = ef.Grid1D(-half_width, half_width, n)
    wf0 = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=2.0)
    stride, reg_floor = 3, 1e-8
    series = _collected(wf0, ef.Potential.free(), dt, n_steps, stride, reg_floor)

    snaps = [ef.take_snapshot(wf0, reg_floor)]
    ef.evolve(wf0, ef.Potential.free(), dt, n_steps, stride=stride,
              observer=lambda w: snaps.append(ef.take_snapshot(w, reg_floor)))
    assert len(series.t) == len(snaps) == n_steps // stride + 1
    scale = max(np.max(np.abs(s.den.current.values)) for s in snaps)
    assert scale > 0.5
    for i, s in enumerate(snaps):
        assert series.t[i] == s.t, i
        if i:
            assert series.rho[i].tobytes() == s.den.rho.values.tobytes(), i
            assert series.rho_I[i].tobytes() == s.rho_I.values.tobytes(), i
        else:
            # row 0 is ifft(fft(psi0)), not psi0 itself
            np.testing.assert_allclose(series.rho[0], s.den.rho.values, rtol=0, atol=1e-15)
        # measured at most 8.1e-15 * scale
        np.testing.assert_allclose(series.current[i], s.den.current.values,
                                   rtol=0, atol=1e-13 * scale, err_msg=str(i))


def test_free_collect_takes_one_block_entry_per_block(monkeypatch):
    # 1001 rows at stride 1 on n = 1024: the loop writes the transforms into
    # the stream's blocks of 32 rows and hands over each block in one call, so
    # ceil(1001 / 32) = 32 calls, the last of 9 rows; the row times are
    # wf.t + i * dt to the bit
    from entroflux import entropy

    calls, add_held = [], entropy.Diagnostics.add_held

    def counting(self, t, kind, params=None):
        calls.append((len(t), kind))
        add_held(self, t, kind, params)

    monkeypatch.setattr(entropy.Diagnostics, "add_held", counting)
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    wf0 = ef.init_gaussian(grid, PARAMS, sigma0=1.0)
    wf0 = ef.WaveFunction(grid, PARAMS, wf0.psi, t=0.3)
    stream = entropy.Diagnostics(grid, 1001)
    entropy.collect(wf0, ef.Potential.free(), 5e-4, 1000, 1, stream)
    assert calls == [(32, "transforms")] * 31 + [(9, "transforms")]
    t = stream.columns()["t"]
    assert t.tobytes() == np.array([0.3 + i * 5e-4 for i in range(1001)]).tobytes()


def test_collect_refuses_a_stream_that_holds_rows():
    # the loop writes from the first row of the stream's block, so a row held
    # there would be overwritten
    from entroflux.entropy import Diagnostics, collect

    grid = ef.Grid1D(-20.0, 20.0, 256)
    wf0 = ef.init_gaussian(grid, PARAMS, sigma0=1.0)
    stream = Diagnostics(grid, 12)
    _add_state(stream, 0.0, wf0.psi)
    with pytest.raises(ValueError, match="holds 1 rows not yet computed"):
        collect(wf0, ef.Potential.free(), 1e-3, 10, 1, stream)


def test_add_held_refuses_rows_that_overrun_the_block():
    from entroflux.entropy import Diagnostics

    grid = ef.Grid1D(-20.0, 20.0, 8192)  # blocks of 4 rows
    stream = Diagnostics(grid, 10)
    stream.held[:] = _normalized_rows(grid, 4)
    stream.add_held(np.arange(3) * 1e-3, "states", PARAMS)
    with pytest.raises(ValueError, match="2 rows do not fit in a block of 4 that holds 3"):
        stream.add_held(np.arange(3, 5) * 1e-3, "states", PARAMS)
    assert stream.n_held == 3


@pytest.mark.parametrize("ia, ib", [(0, 511), (0, 1), (510, 511), (37, 300)],
                         ids=["whole_grid", "first_interval", "last_interval", "inner"])
def test_block_integrals_equal_trapezoid_bitwise(ia, ib):
    # the subvolume integrals of a block are numpy's trapezoid expression in
    # block scratch: the same bits as np.trapezoid for any values, subnormals,
    # signed zeros, nan and inf among them, and on intervals at either end
    from entroflux.entropy import _trapezoid_rows

    grid = ef.Grid1D(-16.0, 16.0, 512)
    rng = np.random.default_rng(11)
    specials = [5e-324, -5e-324, 2.2e-308, 1e-310, 0.0, -0.0]
    for rows in (1, 7, 64):
        y = rng.standard_normal((rows, grid.n)) * 10.0 ** rng.uniform(-310, 300, (rows, grid.n))
        picks = rng.integers(0, y.size, y.size // 20)
        y.flat[picks] = rng.choice(specials, picks.size)
        y[0, ia], y[-1, ib] = -0.0, 5e-324
        # nan and inf in row 0 only, so the other rows' sums stay finite
        y[0, rng.integers(ia, ib + 1, 3)] = [np.nan, np.inf, -np.inf]
        spacing = np.diff(grid.x[ia : ib + 1])
        work = np.full((rows, ib - ia), np.nan)
        out = np.full(rows, np.nan)
        with np.errstate(invalid="ignore", over="ignore"):
            got = _trapezoid_rows(y, ia, ib, spacing, work, out)
            want = np.trapezoid(y[:, ia : ib + 1], grid.x[ia : ib + 1], axis=1)
        assert got is out
        assert out.tobytes() == want.tobytes(), rows
        assert np.isfinite(out[1:]).all()
    # all signed zeros keep their sign, as np.trapezoid's do
    zeros = np.full((2, grid.n), -0.0)
    out = _trapezoid_rows(zeros, ia, ib, spacing, np.empty((2, ib - ia)), np.empty(2))
    assert out.tobytes() == np.trapezoid(zeros[:, ia : ib + 1], grid.x[ia : ib + 1],
                                         axis=1).tobytes()


def _add_state(stream, t, row, kind="states", params=PARAMS):
    """Write one state (or with kind "transforms" its transform) into the
    stream's block after its held rows, and hand it over."""
    stream.held[stream.n_held] = row
    stream.add_held(np.array([t]), kind, params)


def _add_fields(stream, rows):
    """Write the rows of a Series into the stream's blocks as given fields,
    handing over each block's share in one call, as `diagnose` does."""
    lo = 0
    while lo < len(rows.t):
        hi = min(len(rows.t), lo + stream.height - stream.n_held)
        k = 2 + stream.n_held
        for name in ("rho", "current", "velocity", "rho_I", "floored_points", "drho"):
            getattr(stream.window, name)[k : k + hi - lo] = getattr(rows, name)[lo:hi]
        stream.add_held(rows.t[lo:hi], "fields")
        lo = hi


def _row_adders(grid, psi):
    """Ways to hand row i of the normalized states psi to a `Diagnostics`, by kind."""
    from entroflux.entropy import Series

    rho = np.abs(psi) ** 2
    fields = Series.of(grid, 1e-3 * np.arange(len(psi)), rho, np.zeros_like(rho),
                       np.zeros_like(rho))
    return {
        "states": lambda stream, i: _add_state(stream, 1e-3 * i, psi[i]),
        "transforms": lambda stream, i: _add_state(stream, 1e-3 * i, np.fft.fft(psi[i]),
                                                   "transforms"),
        "fields": lambda stream, i: _add_fields(stream, fields.rows(i, i + 1)),
    }


def test_diagnostics_refuses_a_block_of_states_and_transforms():
    # a stream takes one kind of row, the kind of its first: a row of any
    # other kind is refused, whether it would share the first row's block or
    # arrive after that block was flushed (n = 2**15, where a block holds one row)
    from itertools import permutations

    from entroflux.entropy import Diagnostics

    for n, height in ((256, 3), (1 << 15, 1)):
        grid = ef.Grid1D(-20.0, 20.0, n)
        adders = _row_adders(grid, _normalized_rows(grid, 3))
        for first, second in permutations(adders, 2):
            stream = Diagnostics(grid, 3)
            assert stream.height == height
            adders[first](stream, 0)
            assert (stream.n_done, stream.n_held) == ((1, 0) if height == 1 else (0, 1))
            with pytest.raises(ValueError, match=f"this one takes {first}, not {second}"):
                adders[second](stream, 1)


@pytest.mark.parametrize("kind", ["state", "transform", "Fields", ""])
def test_add_held_refuses_an_unknown_kind(kind):
    # a misspelled kind is refused before any row is taken, rather than run
    # as states: a block of transforms would be observed as states, with no error
    from entroflux.entropy import Diagnostics

    grid = ef.Grid1D(-20.0, 20.0, 256)
    stream = Diagnostics(grid, 2)
    stream.held[0] = _normalized_rows(grid, 1)[0]
    with pytest.raises(ValueError, match=re.escape(f"unknown kind of row {kind!r}")):
        stream.add_held(np.array([0.0]), kind, PARAMS)
    assert (stream.kind, stream.n_held) == (None, 0)


@pytest.mark.parametrize("kind", ["states", "transforms"])
def test_add_held_refuses_states_without_params(kind):
    # states need their params when they are handed over: taken without them,
    # the flush would fail on None.hbar
    from entroflux.entropy import Diagnostics

    grid = ef.Grid1D(-20.0, 20.0, 256)
    stream = Diagnostics(grid, 1)
    stream.held[0] = _normalized_rows(grid, 1)[0]
    with pytest.raises(ValueError, match=f"{kind} need their physical parameters"):
        stream.add_held(np.array([0.0]), kind)
    assert (stream.kind, stream.n_held, stream.n_done) == (None, 0, 0)


def test_diagnostics_refuses_given_rows_after_a_state_and_keeps_its_rows():
    # a state, then given rows, in one block: the given rows are refused, and
    # the stream then takes the rest of its states as if they had never come
    from entroflux.entropy import Diagnostics

    grid = ef.Grid1D(-20.0, 20.0, 256)
    psi = _normalized_rows(grid, 3)
    adders = _row_adders(grid, psi)
    stream = Diagnostics(grid, 3)
    adders["states"](stream, 0)
    with pytest.raises(ValueError, match="this one takes states, not fields"):
        adders["fields"](stream, 1)
    reference = Diagnostics(grid, 3)
    for i in range(3):
        if i:
            adders["states"](stream, i)
        adders["states"](reference, i)
    columns, expected = stream.columns(), reference.columns()
    assert abs(columns["norm"][0] - 1.0) < 1e-12
    for key, column in expected.items():
        assert np.array_equal(columns[key], column), key


def test_diagnostics_refuses_a_state_with_other_params_and_keeps_its_rows():
    # a stream takes one set of physical parameters, set by its first state.
    # Where a state with hbar = 2 once shared a block with one of hbar = 1, the
    # block was observed with the last row's params: row 0's max current read
    # 0.798, not the 0.399 of the state added alone
    from entroflux.entropy import Diagnostics

    grid = ef.Grid1D(-20.0, 20.0, 256)
    psi = _normalized_rows(grid, 1)[0]
    currents = []

    def on_block(first, rows):
        currents.append(rows.current.copy())

    stream = Diagnostics(grid, 2, on_block=on_block)
    _add_state(stream, 0.0, psi)
    other = ef.PhysicalParams(hbar=2.0)
    for kind, row in (("states", psi), ("transforms", np.fft.fft(psi))):
        with pytest.raises(ValueError, match=re.escape(f"takes {PARAMS}, not {other}")):
            _add_state(stream, 1e-3, row, kind, other)
    _add_state(stream, 1e-3, psi)
    alone = Diagnostics(grid, 1, on_block=on_block)
    _add_state(alone, 0.0, psi)
    assert np.array_equal(currents[0][0], currents[1][0])
    assert abs(currents[1][0].max() - 0.399) < 1e-3


def test_diagnostics_columns_do_not_depend_on_how_rows_are_added():
    from entroflux.entropy import CHUNK_POINTS, Diagnostics

    grid = ef.Grid1D(-16.0, 16.0, 512)
    wf0 = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=2.0)
    series = _collected(wf0, ef.Potential.gaussian_barrier(2.0, 0.5, 1.5), 1e-3, 150, 1, 1e-8)
    n_rows, height = len(series.t), CHUNK_POINTS // grid.n
    assert n_rows == 151 and height == 64
    chunkings = {
        "all at once": [n_rows],
        "one at a time": [1] * n_rows,
        "uneven": [1, 2, 0, height + 3, 5, height - 7, n_rows - 2 * height - 4],
    }
    results = {}
    for name, sizes in chunkings.items():
        assert sum(sizes) == n_rows, name
        firsts = []
        stream = Diagnostics(grid, n_rows, series.reg_floor, (-2.0, 2.5),
                             on_block=lambda first, rows: firsts.append(first))
        lo = 0
        for size in sizes:
            # a size that straddles a block is handed over as its share of each
            _add_fields(stream, series.rows(lo, lo + size))
            lo += size
        results[name] = stream.columns(), firsts
        # no row past n_rows, as given fields or as a state
        with pytest.raises(ValueError):
            _add_fields(stream, series.rows(0, 1))
        with pytest.raises(ValueError):
            _add_state(stream, 1.0, wf0.psi)

    reference, firsts = results["all at once"]
    assert firsts == [0, height, 2 * height]
    for name, (columns, name_firsts) in results.items():
        assert name_firsts == firsts, name
        assert columns.keys() == reference.keys(), name
        for key, column in columns.items():
            assert np.array_equal(column, reference[key]), (name, key)

    stream = Diagnostics(grid, n_rows - 1, series.reg_floor)
    for lo, hi in ((0, height), (height, height + 1)):
        _add_fields(stream, series.rows(lo, hi))
        # the rows so far are computed (a full block), then held in the next
        with pytest.raises(ValueError):
            stream.columns()
    _add_fields(stream, series.rows(height + 1, 2 * height + 20))
    # one row too many, counting the 20 held rows too, refused before any is taken
    with pytest.raises(ValueError, match=f"cannot add 3 rows after 148 of {n_rows - 1}"):
        _add_fields(stream, series.rows(2 * height + 20, n_rows))
    assert (stream.n_done, stream.n_held) == (2 * height, 20)


def test_diagnose_runs_no_complex_fft(monkeypatch):
    # the one derivative the balance laws take is of a real field, the flux,
    # so it goes through a real-input FFT pair; d rho/dx comes with the series
    from entroflux import grid as grid_module
    from entroflux.entropy import diagnose

    grid = ef.Grid1D(-16.0, 16.0, 512)
    wf0 = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=2.0)
    series = _collected(wf0, ef.Potential.free(), 1e-3, 80, 1, 1e-8)

    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT in the diagnostics")

    monkeypatch.setattr(grid_module, "fft", refuse)
    monkeypatch.setattr(grid_module, "ifft", refuse)
    columns = diagnose(series, subvolume=(-2.0, 2.0))
    assert np.max(columns["residual13_l2"]) > 0.0


def _normalized_rows(grid, n_rows):
    x0 = np.linspace(-2.0, 2.0, n_rows)[:, None]
    psi = np.exp(-((grid.x - x0) ** 2) / 4.0 + 1j * grid.x).astype(complex)
    return psi / np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2, axis=1, keepdims=True))


@pytest.mark.parametrize("defect", ["nan", "norm"])
def test_collect_block_rejects_bad_row_like_a_wavefunction(defect):
    from entroflux.entropy import Diagnostics

    grid = ef.Grid1D(-20.0, 20.0, 256)
    psi = _normalized_rows(grid, 3)
    if defect == "nan":
        psi[1, 100] = np.nan
    else:
        psi[1] *= np.sqrt(1.0 + 1e-7)
    with pytest.raises(ValueError) as per_state:
        ef.WaveFunction(grid, PARAMS, psi[1])
    stream = Diagnostics(grid, 3)
    with pytest.raises(ValueError) as block:
        for i, row in enumerate(psi):
            _add_state(stream, 1e-3 * i, row)
    assert str(block.value) == str(per_state.value)
    assert str(block.value).startswith(
        "non-finite field" if defect == "nan" else "wavefunction not normalized")


def test_residual9_equals_boolean_indexing_reference_bitwise():
    # the rate identity is computed with where= on the points at or above the
    # floor: it must give the bits of a boolean-indexing pass, and +0.0 on
    # every floored point
    from entroflux.entropy import _log_density, _rate_identity, diagnose

    grid = ef.Grid1D(-16.0, 16.0, 512)
    wf0 = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=2.0)
    reg_floor, dt = 1e-8, 1e-3
    series = _collected(wf0, ef.Potential.gaussian_barrier(2.0, 0.5, 1.5), dt, 40, 1,
                        reg_floor)
    assert series.floored_points.min() > 0
    rho = series.rho[1:-1]
    d_rho_I = (series.rho_I[2:] - series.rho_I[:-2]) / (2.0 * dt)
    d_rho = (series.rho[2:] - series.rho[:-2]) / (2.0 * dt)
    mask = rho >= reg_floor
    reference = np.zeros_like(rho)
    reference[mask] = d_rho_I[mask] + d_rho[mask] * np.log(rho[mask])

    r9 = _rate_identity(d_rho, d_rho_I, *_log_density(rho, reg_floor))
    assert r9.tobytes() == reference.tobytes()
    assert not np.signbit(r9[~mask]).any() and not r9[~mask].any()

    columns = diagnose(series)
    l2 = np.sqrt(grid.dx * np.sum(reference * reference, axis=1))
    assert columns["residual9_l2"][1:-1].tobytes() == l2.tobytes()
    linf = np.max(np.abs(reference), axis=1)
    assert columns["residual9_linf"][1:-1].tobytes() == linf.tobytes()


@pytest.mark.parametrize("reg_floor", [1e-12, 1e-8, 0.3])
def test_info_density_equals_boolean_indexing_reference_bitwise(reg_floor):
    # the floor is applied with where=: it must give the bits of a
    # boolean-indexing pass, and +0.0 on every floored point
    from entroflux.entropy import _info_density

    rng = np.random.default_rng(7)
    below = np.nextafter(reg_floor, 0.0)
    edges = [0.0, 1e-300, 5e-324, reg_floor, below, np.nextafter(reg_floor, 1.0), 1.0, 3.5]
    rho = np.concatenate([np.repeat(edges, 8), 10.0 ** rng.uniform(-320, 1, 6 * 1024 - 64)])
    rho = rng.permutation(rho).reshape(6, 1024)
    mask = rho >= reg_floor
    reference = np.zeros_like(rho)
    reference[mask] = -rho[mask] * (np.log(rho[mask]) - 1.0)

    out = _info_density(rho, reg_floor)
    assert out.tobytes() == reference.tobytes()
    assert not np.signbit(out[~mask]).any() and not out[~mask].any()
    assert mask.any() and (~mask).any()


# ---------- glibc's mmap threshold ----------

HEAP_RUNS = """\
import resource, sys, tempfile
from pathlib import Path
from entroflux import cli

if sys.argv[1] == "unset":
    cli._set_malloc_thresholds = lambda: False
print(cli._set_malloc_thresholds())
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "run.cfg"
    cfg.write_text(sys.argv[2])
    for i in range(6):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(["simulate", "--config", str(cfg), "--out", f"{tmp}/o{i}",
                         "--quiet"]) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
HEAP_FREE = ("x_min = -160\nx_max = 160\nn = 16384\nsigma0 = 1.0\nx0 = -2\nk0 = 10\n"
             "dt = 1e-4\nt_final = 0.02\nobserve_stride = 20\n")
# the barrier transforms in every step; the free run makes one 256 KiB
# inverse transform per observed row
HEAP_CONFIGS = {
    "barrier": HEAP_FREE + "potential = gaussian_barrier\nbarrier_height = 50\n"
                           "barrier_width = 0.5\n",
    "free": HEAP_FREE,
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_warm_runs_keep_their_temporaries_on_the_heap():
    # cli.main sets glibc's mmap and trim thresholds, and must report that both
    # took.  Unset, glibc serves every block temporary and pocketfft scratch
    # array from a fresh mapping, and each warm run (runs 3-6) faults thousands
    # of pages in anew.  Each warm run with the thresholds set, and so their
    # median, stays within a quarter of the unset warm median: a single run
    # whose heap top was trimmed fails it too
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, config in HEAP_CONFIGS.items():
        faults, taken = {}, {}
        for mode in ("set", "unset"):
            out = subprocess.run([sys.executable, "-c", HEAP_RUNS, mode, config], env=env,
                                 capture_output=True, text=True, check=True).stdout.split()
            taken[mode], faults[mode] = out[0], [int(count) for count in out[1:]]
        assert taken == {"set": "True", "unset": "False"}, name
        assert max(faults["set"][2:]) <= float(np.median(faults["unset"][2:])) / 4, \
            (name, faults)

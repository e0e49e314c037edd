import numpy as np
import pytest

import entroflux as ef
from conftest import DELTA_I_SPREAD_T2, I_COHERENT_UNIT


PARAMS = ef.PhysicalParams()
GRID = ef.Grid1D(-20.0, 20.0, 2048)


def test_gaussian_velocity_uniform_at_t0():
    orc = ef.GaussianOracle(sigma0=1.0, k0=2.0, params=PARAMS)
    snap = orc.fields(GRID, 0.0)
    assert np.max(np.abs(snap.den.velocity.values - 2.0)) < 1e-14


def test_gaussian_entropy_growth():
    orc = ef.GaussianOracle(sigma0=1.0, params=PARAMS)
    assert orc.entropy(2.0) - orc.entropy(0.0) == pytest.approx(
        DELTA_I_SPREAD_T2, abs=1e-14
    )
    assert orc.entropy_rate(2.0) == pytest.approx(0.25, abs=1e-14)


def test_gaussian_grid_entropy_matches_closed_form():
    orc = ef.GaussianOracle(sigma0=1.0, params=PARAMS)
    for t in (0.0, 1.0, 2.0):
        snap = orc.fields(GRID, t)
        assert snap.I == pytest.approx(orc.entropy(t), abs=1e-10)


def test_gaussian_moving_center():
    orc = ef.GaussianOracle(sigma0=1.0, x0=-3.0, k0=1.5, params=PARAMS)
    assert orc.center(2.0) == pytest.approx(0.0, abs=1e-14)


def test_coherent_entropy_constant():
    orc = ef.CoherentOracle(omega=1.0, amplitude=3.0, params=PARAMS)
    assert orc.entropy() == pytest.approx(I_COHERENT_UNIT, abs=1e-12)
    assert orc.entropy_rate() == 0.0
    snap_a = orc.fields(GRID, 0.3)
    snap_b = orc.fields(GRID, 4.1)
    assert snap_a.I == pytest.approx(snap_b.I, abs=1e-11)


def test_coherent_velocity_at_quarter_period():
    orc = ef.CoherentOracle(omega=1.0, amplitude=3.0, params=PARAMS)
    snap = orc.fields(GRID, np.pi / 2)
    assert np.max(np.abs(snap.den.velocity.values + 3.0)) < 1e-12


def test_oracle_fields_carry_the_spectral_derivative_of_rho():
    # a closed form's rows bring d rho/dx as a run's oracle takes it, the
    # spectral derivative of its rho, which is -(x - x_c) rho / sigma^2 to roundoff
    from entroflux.grid import _spectral_derivative

    for orc in (ef.GaussianOracle(sigma0=1.0, x0=0.5, k0=2.0, params=PARAMS),
                ef.CoherentOracle(omega=1.0, amplitude=1.0, params=PARAMS)):
        t = 0.7
        den = orc.fields(GRID, t).den
        rho = den.rho.values
        assert den.drho.values.tobytes() == _spectral_derivative(rho, GRID).tobytes()
        closed = -(GRID.x - orc.center(t)) * rho / orc.sigma2(t)
        assert np.max(np.abs(den.drho.values - closed)) < 1e-13


def test_analytic_balance_residual_is_discretization_noise():
    # both oracles satisfy the local balance law exactly; on the grid the
    # residual is pure differencing error
    dt = 1e-4
    for orc in (
        ef.GaussianOracle(sigma0=1.0, params=PARAMS),
        ef.CoherentOracle(omega=1.0, amplitude=1.0, params=PARAMS),
    ):
        snaps = [orc.fields(GRID, 1.0 + s * dt) for s in (-1, 0, 1)]
        _, linf = ef.balance_residual(*snaps, dt)
        assert linf < 1e-8


def test_classical_limit_freezes_entropy():
    # hbar -> 0 with t, m, sigma0 fixed: velocity collapses to the drift and
    # the entropy stops growing
    small = ef.PhysicalParams(hbar=1e-3, mass=1.0)
    orc = ef.GaussianOracle(sigma0=1.0, k0=2.0, params=small)
    assert orc.entropy(2.0) - orc.entropy(0.0) < 1e-6
    snap = orc.fields(GRID, 2.0)
    drift = small.hbar * 2.0 / small.mass
    assert np.max(np.abs(snap.den.velocity.values - drift)) < 1e-4


def test_oracle_validation():
    with pytest.raises(ValueError):
        ef.GaussianOracle(sigma0=-1.0)
    with pytest.raises(ValueError):
        ef.CoherentOracle(omega=0.0, amplitude=1.0)


# ---------- run_oracle's blocks ----------

ORACLE_RUN = "x_min = -20\nx_max = 20\nsigma0 = 1.0\nk0 = 0.5\nobserve_stride = 2\n"


def test_run_oracle_takes_one_block_entry_per_block(monkeypatch):
    # 1001 rows on n = 1024: run_oracle writes the closed form's fields into
    # the stream's blocks of 32 rows and hands over each block in one call, so
    # ceil(1001 / 32) = 32 calls, the last of 9 rows; row i is at
    # i * observe_stride * dt to the bit
    from entroflux import entropy
    from entroflux.report import run_oracle

    calls, add_held = [], entropy.Diagnostics.add_held

    def counting(self, t, kind, params=None):
        calls.append((len(t), kind))
        add_held(self, t, kind, params)

    monkeypatch.setattr(entropy.Diagnostics, "add_held", counting)
    cfg = ef.parse_oracle_config(ORACLE_RUN + "n = 1024\ndt = 5e-4\nt_final = 1.0\n")
    columns, _ = run_oracle(cfg)
    assert calls == [(32, "fields")] * 31 + [(9, "fields")]
    assert columns["t"].tobytes() == np.array([i * 2 * 5e-4 for i in range(1001)]).tobytes()


def test_run_oracle_makes_no_diagnostics_call_or_series_per_row():
    # at n = 128 a block holds up to 256 rows, so 101 and 201 rows are one block
    # each: the 100 more rows add no call to a `Diagnostics` method and build no
    # `Series`
    import inspect
    import sys

    from entroflux.entropy import Diagnostics, Series
    from entroflux.report import run_oracle

    methods = {f.__code__ for f in vars(Diagnostics).values() if inspect.isfunction(f)}

    def profiled(t_final):
        cfg = ef.parse_oracle_config(ORACLE_RUN + f"n = 128\ndt = 1e-3\nt_final = {t_final}\n")
        counts = {"diagnostics": 0, "series": 0}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in methods:
                counts["diagnostics"] += 1
            elif event == "call" and frame.f_code is Series.__init__.__code__:
                counts["series"] += 1

        sys.setprofile(profile)
        try:
            run_oracle(cfg)
        finally:
            sys.setprofile(None)
        return cfg.n_rows, counts

    (few_rows, few), (many_rows, many) = profiled(0.2), profiled(0.4)
    assert (few_rows, many_rows) == (101, 201)
    assert few["diagnostics"] > 0
    assert many == few

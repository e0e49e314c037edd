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

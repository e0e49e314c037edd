import dataclasses

import numpy as np
import pytest

import entroflux as ef

# closed forms, verified against independent quadrature in test_entropy
I_GAUSS_SIGMA1 = 2.4189385332046727   # 0.5*ln(2*pi*e) + 1
I_COHERENT_UNIT = 2.0723649429247001  # 0.5*ln(pi*e) + 1, sigma^2 = 1/2
DELTA_I_SPREAD_T2 = 0.34657359027997264  # 0.5*ln(2)


def plane_wave(grid, params, mode=1, t=0.0):
    """Momentum eigenstate e^{ikx}/sqrt(L) with k an exact grid mode."""
    k = 2.0 * np.pi * mode / grid.length
    psi = np.exp(1j * k * grid.x) / np.sqrt(grid.length)
    return ef.WaveFunction(grid, params, psi, t=t), k


@pytest.fixture(scope="session")
def spreading_run():
    """Free sigma0=1 packet evolved to t=2; samples every 0.02."""
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    params = ef.PhysicalParams()
    wf0 = ef.init_gaussian(grid, params, sigma0=1.0)
    snaps = [ef.take_snapshot(wf0)]
    wf_final = ef.evolve(
        wf0,
        ef.Potential.free(),
        5e-4,
        4000,
        observer=lambda w: snaps.append(ef.take_snapshot(w)),
        stride=40,
    )
    return {"snaps": snaps, "wf0": wf0, "wf_final": wf_final, "grid": grid,
            "params": params, "dt": 5e-4, "stride": 40}


@pytest.fixture(scope="session")
def contracting_run(spreading_run):
    """Conjugated spread packet: contracts back toward sigma0 over [0, 1.9]."""
    grid = spreading_run["grid"]
    params = spreading_run["params"]
    wf2 = spreading_run["wf_final"]
    wfc = dataclasses.replace(
        wf2, psi=np.conj(wf2.psi), t=0.0
    )
    snaps = [ef.take_snapshot(wfc)]
    ef.evolve(
        wfc,
        ef.Potential.free(),
        5e-4,
        3800,
        observer=lambda w: snaps.append(ef.take_snapshot(w)),
        stride=40,
    )
    return snaps


@pytest.fixture(scope="session")
def coherent_run():
    """Coherent state (omega=1, amplitude=2) over one full period."""
    grid = ef.Grid1D(-20.0, 20.0, 1024)
    params = ef.PhysicalParams()
    omega, amplitude = 1.0, 2.0
    sigma = np.sqrt(params.hbar / (2.0 * params.mass * omega))
    wf0 = ef.init_gaussian(grid, params, sigma0=sigma, x0=amplitude)
    dt = 5e-4
    n_steps = int(round(2.0 * np.pi / dt))
    snaps = [ef.take_snapshot(wf0)]
    ef.evolve(
        wf0,
        ef.Potential.harmonic(omega),
        dt,
        n_steps,
        observer=lambda w: snaps.append(ef.take_snapshot(w)),
        stride=100,
    )
    return {"snaps": snaps, "grid": grid, "params": params, "omega": omega,
            "amplitude": amplitude, "dt": dt, "n_steps": n_steps}

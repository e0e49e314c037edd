"""Distances of free runs from their closed forms, pinned (see tools/accuracy.py).

Each bound is the distance measured when the free loop began reaching each
step by the kinetic factors of the step's set bits, times MARGIN.  The free
loop that took one product per step read 2.7e-15 (I), 7.8e-16 (rhs_eq16) and
2.2e-15 (norm) on `oracle_free`, within these bounds after its 150 steps, but
1.2e-14 on the sweep's 0.4 row, above its bound.  The kicked loop with a
transform pair per step read 3.1e-14, 7.0e-15 and 2.1e-14 on `oracle_free`, and
1.7e-13 on the sweep's first row: above every bound.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import entroflux as ef
from entroflux.config import parse_config, parse_oracle_config
from entroflux.entropy import _info_density, madelung_arrays
from entroflux.grid import _spectral_derivative, _state_derivative, fft
from entroflux.oracle import GaussianOracle
from entroflux.report import run_oracle, run_simulation

from test_climit import ACCEPTANCE

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
MARGIN = 4.0


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fixed(compare_outputs):
    return compare_outputs.FIXED


def test_free_run_stays_near_its_closed_form(fixed):
    # the moving free packet of `oracle_free`, simulated and sampled from the closed form
    text = fixed["oracle_free"][1]
    sim, _ = run_simulation(parse_config(text))
    ref, _ = run_oracle(parse_oracle_config(text))
    measured = {"I": 1.4e-15, "rhs_eq16": 6.2e-16, "norm": 7.8e-16}
    for column, distance in measured.items():
        assert np.max(np.abs(sim[column] - ref[column])) <= MARGIN * distance, column


def test_sweep_rows_stay_near_the_sampled_closed_form():
    # each row's delta_I against that of the closed-form density sampled on the
    # same grid, with the same floor; 4.5e-16 at most, on the 0.2 row
    spec = ef.SweepSpec(**ACCEPTANCE)
    grid = ef.Grid1D(spec.x_min, spec.x_max, spec.n)
    for row in ef.run_sweep(spec).rows:
        oracle = GaussianOracle(sigma0=spec.L_c, x0=spec.x0, k0=spec.k0,
                                params=ef.PhysicalParams(hbar=row.hbar, mass=spec.mass))
        info = [grid.dx * _info_density(oracle.density_velocity(grid, t)[0], spec.reg_floor).sum()
                for t in (0.0, row.n_steps * row.dt)]
        assert abs(row.delta_I - (info[1] - info[0])) <= MARGIN * 4.5e-16, row.epsilon


# a k0 = 10 packet that reflects off a barrier of height 100: its rows take a
# carrier k_c > 0, then none while the packet is split, then k_c < 0
BARRIER_K10 = ("x_min = -40\nx_max = 40\nn = 2048\nsigma0 = 1.0\nx0 = -3\nk0 = 10\n"
               "potential = gaussian_barrier\nbarrier_height = 100\nbarrier_width = 0.5\n"
               "dt = 2e-4\nt_final = 0.6\nobserve_stride = 100\n")
# the configs, and every how many of their rows are checked
LONG_DOUBLE_CASES = {"barrier_k10": 1, "free_16384": 10, "narrow_signed_zeros": 20,
                     "dense_diag_seed1": 100}


def _long_double_fields(psi, grid, params):
    """rho, j and d rho/dx = 2 Re(psi* dpsi/dx) of psi in long double, with the
    grid's own wavenumbers and its Nyquist mode's zero."""
    z = psi.astype(np.clongdouble)
    dz = np.fft.ifft(1j * grid._ik.imag.astype(np.longdouble) * np.fft.fft(z))
    product = np.conj(z) * dz
    hbar_m = np.longdouble(params.hbar) / np.longdouble(params.mass)
    return z.real**2 + z.imag**2, hbar_m * product.imag, 2 * product.real


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double on this host, so it is no reference")
@pytest.mark.parametrize("name", sorted(LONG_DOUBLE_CASES))
def test_observed_states_are_no_further_from_long_double_than_the_spectral_form(
        compare_outputs, name):
    # j and rhs_eq16 = -dx sum v d rho/dx of the observed states, as a block takes
    # them (d rho/dx = 2 Re(psi* dpsi/dx), dpsi relative to the row's carrier),
    # against the spectral form (j from ik psi_hat, d rho/dx the spectral
    # derivative of rho) and against both recomputed in long double.  Both forms'
    # sums are taken in long double, so a distance is the error the fields carry:
    # a double sum adds its own rounding, about eps * dx sum |v d rho/dx| for
    # either form, which on free_16384 is larger than the fields' error.
    # Measured, rhs_eq16 spectral -> carrier: barrier_k10 3.3e-13 -> 4.4e-15,
    # free_16384 3.3e-16 -> 1.9e-16 (without the carrier 6.8e-15),
    # narrow_signed_zeros 1.2e-14 -> 1.1e-14, dense_diag_seed1 4.6e-17 -> 3.3e-17;
    # j moves at most from 1.8e-14 to 3.5e-14 (narrow_signed_zeros, scale 80)
    if name == "barrier_k10":
        text = BARRIER_K10
    elif name == "dense_diag_seed1":
        text = compare_outputs.make("dense_diag", 1).config
    else:
        text = compare_outputs.FIXED[name][1]
    cfg = parse_config(text)
    grid, params = cfg.grid, cfg.params
    wf0 = ef.init_gaussian(grid, params, cfg.sigma0, cfg.x0, cfg.k0)
    states = [wf0]
    ef.evolve(wf0, cfg.potential, cfg.dt, cfg.n_steps, states.append,
              stride=cfg.observe_stride * LONG_DOUBLE_CASES[name])
    dx = np.longdouble(grid.dx)
    distance = {form: {"j": 0.0, "rhs_eq16": 0.0} for form in ("spectral", "carrier")}
    scale = {"j": 0.0, "rhs_eq16": 0.0}
    for wf in states:
        psi = wf.psi[np.newaxis]
        rho, j, v, mask, _ = madelung_arrays(psi.copy(), _state_derivative(fft(psi), grid),
                                             params, cfg.reg_floor)
        den = ef.take_snapshot(wf, cfg.reg_floor).den
        forms = {"spectral": (j[0], v[0], _spectral_derivative(rho, grid)[0]),
                 "carrier": (den.current.values, den.velocity.values, den.drho.values)}
        rho_l, j_l, drho_l = _long_double_fields(wf.psi, grid, params)
        v_l = np.zeros(grid.n, np.longdouble)
        v_l[mask[0]] = j_l[mask[0]] / rho_l[mask[0]]
        rhs_l = -dx * np.sum(v_l * drho_l)
        scale["j"] = max(scale["j"], float(np.max(np.abs(j_l))))
        scale["rhs_eq16"] = max(scale["rhs_eq16"], abs(float(rhs_l)))
        for form, (j_f, v_f, drho_f) in forms.items():
            rhs = -dx * np.sum(v_f.astype(np.longdouble) * drho_f)
            d = distance[form]
            d["j"] = max(d["j"], float(np.max(np.abs(j_f - j_l))))
            d["rhs_eq16"] = max(d["rhs_eq16"], abs(float(rhs - rhs_l)))
    for column in ("j", "rhs_eq16"):
        spectral, carrier = distance["spectral"][column], distance["carrier"][column]
        assert carrier <= max(1.1 * spectral, 1e-14 * scale[column]), (column, spectral, carrier)

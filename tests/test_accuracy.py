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
from entroflux.entropy import _info_density
from entroflux.oracle import GaussianOracle
from entroflux.report import run_oracle, run_simulation

from test_climit import ACCEPTANCE

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
MARGIN = 4.0


@pytest.fixture(scope="module")
def fixed():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXED


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

import numpy as np
import pytest

import entroflux as ef
from entroflux.climit import SpecError


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="descending"):
        ef.SweepSpec(epsilons=(0.1, 0.2), t_c=2.0, L_c=1.0)
    with pytest.raises(ValueError, match="positive"):
        ef.SweepSpec(epsilons=(0.2, -0.1), t_c=2.0, L_c=1.0)
    with pytest.raises(ValueError):
        ef.SweepSpec(epsilons=(), t_c=2.0, L_c=1.0)


def test_sweep_epsilon_realized_through_hbar():
    spec = ef.SweepSpec(epsilons=(0.4, 0.2), t_c=2.0, L_c=1.0)
    assert spec.hbar_for(0.4) == pytest.approx(0.2)


def test_sweep_matches_closed_form():
    spec = ef.SweepSpec(epsilons=(0.4, 0.2), t_c=2.0, L_c=1.0, dt_ref=2e-3)
    rep = ef.run_sweep(spec, max_workers=1)
    for row in rep.rows:
        expected = 0.5 * np.log(1.0 + row.epsilon**2 / 4.0)
        assert row.error == ""
        assert row.delta_I_expected == pytest.approx(expected, abs=1e-12)
        assert row.delta_I == pytest.approx(expected, abs=1e-5)
        assert row.sign_fraction == 1.0


def test_sweep_eq16_agreement_uniform_in_epsilon():
    spec = ef.SweepSpec(epsilons=(0.4, 0.1), t_c=2.0, L_c=1.0, dt_ref=2e-3)
    rep = ef.run_sweep(spec)
    for row in rep.rows:
        assert row.eq16_rel_err < 1e-3


def test_sweep_exponent_near_two():
    spec = ef.SweepSpec(epsilons=(0.4, 0.2, 0.1), t_c=2.0, L_c=1.0, dt_ref=2e-3)
    rep = ef.run_sweep(spec, max_workers=1)
    assert rep.exponent == pytest.approx(2.0, abs=0.1)


def test_sweep_continues_past_failed_row():
    # fast packet on a narrow domain: the largest epsilon overruns the seam
    spec = ef.SweepSpec(
        epsilons=(2.0, 0.4), t_c=2.0, L_c=1.0,
        x_min=-14.0, x_max=14.0, n=512, k0=5.0, dt_ref=1e-3,
    )
    rep = ef.run_sweep(spec, max_workers=1)
    assert rep.rows[0].error != ""
    assert np.isnan(rep.rows[0].delta_I)
    assert rep.rows[1].error == ""


def test_sweep_row_without_centred_samples_fails():
    spec = ef.SweepSpec(epsilons=(0.4,), t_c=2.0, L_c=1.0, n=256, n_samples=1)
    row = ef.run_sweep(spec).rows[0]
    assert "no centred difference" in row.error
    assert np.isnan(row.eq16_rel_err)


def test_sweep_runs_serially_only():
    spec = ef.SweepSpec(epsilons=(0.4, 0.2), t_c=2.0, L_c=1.0, dt_ref=2e-3)
    for workers in (0, 2, None):
        with pytest.raises(ValueError, match="max_workers must be 1"):
            ef.run_sweep(spec, max_workers=workers)


def test_sweep_rows_sorted_descending():
    spec = ef.SweepSpec(epsilons=(0.4, 0.2, 0.1), t_c=2.0, L_c=1.0, dt_ref=2e-3)
    rep = ef.run_sweep(spec)
    eps = [r.epsilon for r in rep.rows]
    assert eps == sorted(eps, reverse=True)


def test_sweep_ends_at_t_c():
    # 1234 steps do not split into strides of 12: the steps are rounded to
    # 1236 = 103 strides, so the last sample lies at t_c
    spec = ef.SweepSpec(epsilons=(0.4,), t_c=2.0, L_c=1.0, n=256, dt_ref=2.0 / 1234)
    row = ef.run_sweep(spec).rows[0]
    assert row.error == ""
    assert row.n_steps == 1236
    assert row.dt * row.n_steps == pytest.approx(2.0, rel=1e-15)
    assert abs(row.delta_I / row.delta_I_expected - 1.0) < 1e-9


def test_sweep_spec_errors_name_their_field():
    with pytest.raises(SpecError, match="n must be a power of two") as info:
        ef.SweepSpec(epsilons=(0.4,), t_c=2.0, L_c=1.0, n=100)
    assert info.value.keys[0] == "n"
    with pytest.raises(SpecError, match="not resolved") as info:
        ef.SweepSpec(epsilons=(0.4,), t_c=2.0, L_c=1.0, k0=1e5)
    assert info.value.keys[0] == "k0"

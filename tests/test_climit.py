import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import entroflux as ef
from entroflux import entropy, report
from entroflux.cli import main
from entroflux.config import parse_config, parse_sweep_config
from entroflux.grid import SpecError
from entroflux.propagate import split_steps


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


def test_sweep_row_fails_if_its_packet_crossed_the_seam_before_t_c():
    # the 0.8 packet drifts eps * L_c**2 * k0 = 40, one domain length: it
    # crosses the seam mid-run and is back at the centre by t_c
    spec = ef.SweepSpec(epsilons=(0.8, 0.4), t_c=2.0, L_c=1.0, k0=50.0)
    rows = ef.run_sweep(spec).rows
    assert [r.error for r in rows] == [
        "packet reached domain boundary (seam density 0.391)"] * 2
    assert np.isnan(rows[0].delta_I)


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


# ---------- each row runs alone, as simulate runs ----------

ACCEPTANCE = dict(epsilons=(0.4, 0.2, 0.1, 0.05), t_c=2.0, L_c=1.0, dt_ref=2e-3)
# 0.8, 0.4 and 0.2 halve one another; 0.5 does not, so its dt is no
# power-of-two multiple of the others'
UNEVEN = dict(epsilons=(0.8, 0.5, 0.4, 0.2), t_c=2.0, L_c=1.0, dt_ref=2e-3)
# a fast packet on a narrow domain: the two larger epsilons' rows reach the seam
SEAM_FAILING = dict(epsilons=(1.6, 0.8, 0.4), t_c=2.0, L_c=1.0, x_min=-14.0,
                    x_max=14.0, n=512, k0=5.0, dt_ref=1e-3)
# the fewest samples a row may take: n_samples = 2 gives each row three, so
# one centred difference
TWO_SAMPLES = dict(epsilons=(0.4, 0.2), t_c=2.0, L_c=1.0, n=256, n_samples=2)
# dt_ref alone would give 8, 4 and 1 steps; the cap of t_c / n_samples gives
# each row 100, so every row has a centred difference
CAPPED = dict(epsilons=(0.4, 0.2, 0.05), t_c=2.0, L_c=1.0, n=128, dt_ref=0.25)


def _row_alone(spec, eps):
    """The row at eps run by itself: its own free run and Diagnostics, through
    collect; the Diagnostics' on_block keeps the largest density at the seam."""
    from entroflux.entropy import Diagnostics, collect, summarize

    hbar, dt, n_steps, stride = spec.time_grid(eps)
    params = ef.PhysicalParams(hbar=hbar, mass=spec.mass)
    grid = ef.Grid1D(spec.x_min, spec.x_max, spec.n)
    expected = 0.5 * math.log1p((hbar * spec.t_c / (2.0 * spec.mass * spec.L_c**2)) ** 2)
    common = dict(epsilon=eps, hbar=hbar, dt=dt, n_steps=n_steps, delta_I_expected=expected)
    try:
        wf = ef.init_gaussian(grid, params, sigma0=spec.L_c, x0=spec.x0, k0=spec.k0)
        n_rows = n_steps // stride + 1
        seams = []

        def on_block(first, rows):
            seams.extend(rows.rho[:, [0, -1]].ravel())

        stream = Diagnostics(grid, n_rows, spec.reg_floor, on_block=on_block)
        collect(wf, ef.Potential.free(), dt, n_steps, stride, stream)
        seam = max(seams)
        if seam > 1e-20:
            raise ValueError(f"packet reached domain boundary (seam density {seam:.3g})")
        summary = summarize(stream.columns())
    except ValueError as exc:
        nan = float("nan")
        return ef.SweepRow(**common, delta_I=nan, residual13_l2_max=nan,
                           eq16_rel_err=nan, sign_fraction=nan, error=str(exc))
    return ef.SweepRow(
        **common,
        delta_I=summary["delta_I"],
        residual13_l2_max=summary["max_residual13_l2"],
        eq16_rel_err=summary["eq16_rel_err"],
        sign_fraction=summary["sign_witness_fraction"],
    )


def _bits(row):
    """Every field of a SweepRow: the error string, and the bytes of each number."""
    return [v if isinstance(v, str) else np.float64(v).tobytes()
            for v in dataclasses.astuple(row)]


@pytest.mark.parametrize("kwargs", [ACCEPTANCE, UNEVEN, SEAM_FAILING, TWO_SAMPLES,
                                    CAPPED])
def test_sweep_rows_match_rows_run_alone(kwargs):
    spec = ef.SweepSpec(**kwargs)
    rows = ef.run_sweep(spec).rows
    alone = [_row_alone(spec, eps) for eps in spec.epsilons]
    assert [_bits(r) for r in rows] == [_bits(r) for r in alone]


def test_failing_rows_fail_one_by_one():
    # the failures the comparison above must reach: rows that reach the seam
    # fail while the next finishes; capped rows all run
    rows = ef.run_sweep(ef.SweepSpec(**SEAM_FAILING)).rows
    assert [r.error != "" for r in rows] == [True, True, False]
    assert "domain boundary" in rows[1].error
    rows = ef.run_sweep(ef.SweepSpec(**CAPPED)).rows
    assert [(r.n_steps, r.error) for r in rows] == [(100, "")] * 3


@pytest.mark.parametrize("kwargs", [ACCEPTANCE, CAPPED])
def test_each_row_runs_its_own_steps_at_full_block_height(kwargs, monkeypatch):
    # one split_steps call of the row's own n_steps per row, into a
    # Diagnostics whose blocks take the whole CHUNK_POINTS
    steps, heights = [], []

    def counting(wf, potential, dt, n_steps, observe_at=(), rows=None, on_block=None):
        steps.append(n_steps)
        return split_steps(wf, potential, dt, n_steps, observe_at, rows, on_block)

    def recording(wf, potential, dt, n_steps, stride, stream):
        heights.append(stream.height)
        entropy.collect(wf, potential, dt, n_steps, stride, stream)

    monkeypatch.setattr(entropy, "split_steps", counting)
    monkeypatch.setattr(report, "collect", recording)
    spec = ef.SweepSpec(**kwargs)
    ef.run_sweep(spec)
    sampled = [(n_steps, n_steps // stride + 1)
               for *_, n_steps, stride in map(spec.time_grid, spec.epsilons)]
    assert steps == [n_steps for n_steps, _ in sampled]
    assert heights == [min(n_rows, entropy.CHUNK_POINTS // spec.n) for _, n_rows in sampled]


def test_a_row_that_fails_mid_run_fails_alone(monkeypatch):
    spec = ef.SweepSpec(**ACCEPTANCE)
    clean = ef.run_sweep(spec).rows

    def failing(wf, potential, dt, n_steps, observe_at=(), rows=None, on_block=None):
        def watched(steps, spectral):
            if n_steps == 500 and 250 in steps:
                raise ValueError("failed at step 250")
            on_block(steps, spectral)

        return split_steps(wf, potential, dt, n_steps, observe_at, rows, watched)

    monkeypatch.setattr(entropy, "split_steps", failing)
    rep = ef.run_sweep(spec)
    assert [r.n_steps for r in rep.rows] == [1000, 500, 250, 125]
    assert [r.error for r in rep.rows] == ["", "failed at step 250", "", ""]
    assert np.isnan(rep.rows[1].delta_I)
    # the rows after the failed one finish, with the bits they have alone
    assert [_bits(rep.rows[k]) for k in (0, 2, 3)] == [_bits(clean[k]) for k in (0, 2, 3)]
    assert rep.exponent == pytest.approx(2.0, abs=0.1)


# ---------- a sweep row is exactly its simulate run ----------

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_configs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.configs()


def _simulate_text(spec, eps):
    """The simulate config of the row at eps, written out by hand."""
    hbar, dt, _, stride = spec.time_grid(eps)
    return (f"x_min = {spec.x_min!r}\nx_max = {spec.x_max!r}\nn = {spec.n}\n"
            f"hbar = {hbar!r}\nmass = {spec.mass!r}\nsigma0 = {spec.L_c!r}\n"
            f"x0 = {spec.x0!r}\nk0 = {spec.k0!r}\ndt = {dt!r}\nt_final = {spec.t_c!r}\n"
            f"observe_stride = {stride}\nreg_floor = {spec.reg_floor!r}\n")


def _field_values(cfg):
    grid = cfg.grid
    return {f.name: (grid.x_min, grid.x_max, grid.n) if f.name == "grid"
            else getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


@pytest.mark.parametrize("name", ["acceptance", "sweep_climit_seed1"])
def test_each_sweep_row_is_its_simulate_run(tmp_path, compare_configs, name):
    # ACCEPTANCE, and the bench's sweep at seed 1
    text = ("epsilons = 0.4, 0.2, 0.1, 0.05\nt_c = 2.0\nL_c = 1.0\ndt_ref = 2e-3\n"
            if name == "acceptance" else compare_configs[name][1])
    spec = parse_sweep_config(text)
    if name == "acceptance":
        assert spec == ef.SweepSpec(**ACCEPTANCE)
    (tmp_path / "sweep.cfg").write_text(text)
    assert main(["sweep", "--config", str(tmp_path / "sweep.cfg"), "--out",
                 str(tmp_path / "sweep"), "--quiet"]) == 0
    header, *lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    columns = {"delta_I": "delta_I", "max_residual13_l2": "residual13_l2_max",
               "eq16_rel_err": "eq16_rel_err", "sign_witness_fraction": "sign_fraction"}
    for k, (eps, row) in enumerate(zip(spec.epsilons, rows)):
        run_text = _simulate_text(spec, eps)
        assert _field_values(parse_config(run_text)) == _field_values(spec.row_config(eps))
        cfg, out = tmp_path / f"row{k}.cfg", tmp_path / f"row{k}"
        cfg.write_text(run_text)
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for key, column in columns.items():
            assert (np.float64(summary[key]).tobytes()
                    == np.float64(float(row[column])).tobytes()), (eps, key)

import numpy as np
import pytest

import entroflux as ef
from conftest import plane_wave
from entroflux.grid import _state_derivative


GRID = ef.Grid1D(-20.0, 20.0, 1024)
PARAMS = ef.PhysicalParams()


def mean_momentum(wf):
    dpsi = _state_derivative(np.fft.fft(wf.psi), wf.grid)
    val = wf.grid.dx * np.sum(np.conj(wf.psi) * (-1j * wf.params.hbar) * dpsi)
    return val.real


def position_variance(wf):
    rho = np.abs(wf.psi) ** 2
    mean = wf.grid.dx * np.sum(wf.grid.x * rho)
    return wf.grid.dx * np.sum((wf.grid.x - mean) ** 2 * rho)


def test_init_gaussian_normalized():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    assert abs(wf.norm() - 1.0) < 1e-12


def test_init_gaussian_mean_momentum():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=2.0)
    assert mean_momentum(wf) == pytest.approx(2.0, abs=1e-10)


def test_init_gaussian_variance():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    assert position_variance(wf) == pytest.approx(1.0, abs=1e-10)


def test_init_gaussian_too_coarse():
    g = ef.Grid1D(-20.0, 20.0, 16)
    with pytest.raises(ValueError, match="grid too coarse"):
        ef.init_gaussian(g, PARAMS, sigma0=1.0)


def test_init_gaussian_too_wide():
    with pytest.raises(ValueError, match="too wide"):
        ef.init_gaussian(GRID, PARAMS, sigma0=6.0)


def test_step_plane_wave_phase():
    g = ef.Grid1D(0.0, 4.0, 64)
    wf, k = plane_wave(g, PARAMS, mode=3)
    dt = 1e-3
    out = ef.step(wf, ef.Potential.free(), dt)
    expected = wf.psi * np.exp(-1j * PARAMS.hbar * k**2 * dt / (2 * PARAMS.mass))
    assert np.max(np.abs(out.psi - expected)) < 1e-13
    assert np.max(np.abs(np.abs(out.psi) - np.abs(wf.psi))) < 1e-13


def test_harmonic_ground_state_stationary():
    # ground state of the continuum H; density drift after 100 small steps
    # is pure splitting error
    g = ef.Grid1D(-16.0, 16.0, 512)
    psi = np.pi**-0.25 * np.exp(-0.5 * g.x**2)
    psi = psi / np.sqrt(g.dx * np.sum(np.abs(psi) ** 2))
    wf = ef.WaveFunction(g, PARAMS, psi.astype(complex))
    rho0 = np.abs(wf.psi) ** 2
    out = ef.evolve(wf, ef.Potential.harmonic(1.0), 1e-4, 100)
    assert np.max(np.abs(np.abs(out.psi) ** 2 - rho0)) < 1e-9


def test_free_gaussian_variance_at_t2():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    out = ef.evolve(wf, ef.Potential.free(), 5e-4, 4000)
    # sigma^2(t) = sigma0^2 (1 + (t/2)^2) = 2 at t=2
    assert position_variance(out) == pytest.approx(2.0, abs=1e-6)


def test_evolve_matches_chained_steps_bitwise():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=1.0)
    pot = ef.Potential.harmonic(1.0)
    chained = wf
    for _ in range(10):
        chained = ef.step(chained, pot, 1e-4)
    evolved = ef.evolve(wf, pot, 1e-4, 10)
    assert np.array_equal(evolved.psi, chained.psi)
    assert evolved.t == pytest.approx(chained.t, abs=1e-15)


def test_free_evolve_matches_chained_steps():
    # a free run transforms its state once and steps in Fourier space, while
    # each chained step takes its own transform pair: the states agree to
    # roundoff, not bit for bit
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=1.0)
    pot = ef.Potential.free()
    chained = wf
    for _ in range(200):
        chained = ef.step(chained, pot, 1e-4)
    evolved = ef.evolve(wf, pot, 1e-4, 200)
    assert np.max(np.abs(evolved.psi - chained.psi)) < 1e-12
    assert evolved.t == pytest.approx(chained.t, abs=1e-15)


def test_evolve_zero_steps_returns_input():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    assert ef.evolve(wf, ef.Potential.free(), 1e-3, 0) is wf


def test_norm_conserved():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=2.0)
    out = ef.evolve(wf, ef.Potential.gaussian_barrier(1.0, 1.0, 5.0), 5e-4, 1000)
    assert abs(out.norm() - 1.0) < 1e-11


def test_free_energy_conserved():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=2.0)

    def energy(w):
        dpsi = _state_derivative(np.fft.fft(w.psi), w.grid)
        return w.grid.dx * np.sum(np.abs(dpsi) ** 2) * w.params.hbar**2 / (2 * w.params.mass)

    e0 = energy(wf)
    out = ef.evolve(wf, ef.Potential.free(), 5e-4, 2000)
    assert abs(energy(out) - e0) < 1e-10


def test_time_reversal():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=1.0)
    pot = ef.Potential.harmonic(1.0)
    forward = ef.evolve(wf, pot, 5e-4, 2000)
    back = ef.evolve(forward, pot, -5e-4, 2000)
    assert np.max(np.abs(back.psi - wf.psi)) < 1e-8


def test_dt_bound_enforced():
    with pytest.raises(ValueError, match="time step too large"):
        ef.step(ef.init_gaussian(GRID, PARAMS, sigma0=1.0), ef.Potential.free(), 1.0)


def test_zero_dt_refused():
    with pytest.raises(ValueError, match="time step must be nonzero"):
        ef.step(ef.init_gaussian(GRID, PARAMS, sigma0=1.0), ef.Potential.free(), 0.0)


def test_evolve_refuses_an_observer_stride_below_one():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
        ef.evolve(wf, ef.Potential.free(), 1e-3, 4, observer=lambda w: None, stride=0)


def test_unknown_potential_kind_refused():
    with pytest.raises(ValueError, match="unknown potential kind 'bogus'"):
        ef.Potential(kind="bogus").values(GRID.x)


def test_discrete_continuity_second_order():
    # (rho(t+dt) - rho(t-dt)) / 2dt + dj/dx -> 0 at O(dt^2)
    pot = ef.Potential.harmonic(1.0)
    g = ef.Grid1D(-16.0, 16.0, 512)
    wf0 = ef.init_gaussian(g, PARAMS, sigma0=1.0, x0=1.0)
    resids = []
    for dt in (1e-3, 5e-4):
        wf = ef.evolve(wf0, pot, dt, int(round(0.2 / dt)))
        prev = ef.density(wf).values
        wf = ef.step(wf, pot, dt)
        j = ef.take_snapshot(wf).den.current
        wf = ef.step(wf, pot, dt)
        nxt = ef.density(wf).values
        r = (nxt - prev) / (2 * dt) + ef.derivative(j).values
        resids.append(np.sqrt(g.dx * np.sum(r**2)))
    assert resids[0] / resids[1] >= 3.5


def _observed(wf, pot, dt, n_steps, schedule, height=4):
    """split_steps observing schedule into a buffer of height rows: the final
    state, the (step, copy of its row) of every observed step, and the steps
    and spectral flag of every block."""
    from entroflux.propagate import split_steps

    rows = np.empty((height, wf.grid.n), complex)
    handed, blocks = [], []

    def on_block(steps, spectral):
        assert steps.dtype == np.int64 and 1 <= len(steps) <= height
        blocks.append((steps.tolist(), spectral))
        handed.extend(zip(steps.tolist(), rows[: len(steps)].copy()))

    final = split_steps(wf, pot, dt, n_steps, schedule, rows, on_block)
    assert not np.shares_memory(final, rows) and not np.shares_memory(final, wf.psi)
    return final, handed, blocks


def _expression_states(wf, pot, dt, n_steps):
    """{i: the state after i kicked Strang steps}, with np.fft: a single-row
    transform pair below FOUR_STEP_POINTS, and from it the four-step
    transforms on the (n1, n2) view of the state, with the spectrum in its
    transposed order, C[k1, k2] = psi_hat[k1 + n1 k2], and the inverse as
    conj(fft(conj C)) / n."""
    from entroflux.grid import FOUR_STEP_POINTS, FourStep

    grid = wf.grid
    exp_v_half = np.exp(-0.5j * pot.values(grid.x) * dt / PARAMS.hbar)
    psi, expected = wf.psi, {}
    if grid.n < FOUR_STEP_POINTS:
        exp_t = np.exp(-0.5j * PARAMS.hbar * grid.k**2 * dt / PARAMS.mass)
        for i in range(1, n_steps + 1):
            psi = exp_v_half * psi
            psi = np.fft.ifft(exp_t * np.fft.fft(psi))
            psi = exp_v_half * psi
            expected[i] = psi
        return expected
    n1 = 2 ** (int(np.log2(grid.n)) // 2)
    n2 = grid.n // n1
    twiddles = FourStep(grid.n).twiddles
    k = grid.k.reshape(n2, n1).T  # k[k1, k2] = grid.k[k1 + n1 k2]
    exp_t = np.exp(-0.5j * PARAMS.hbar * k**2 * dt / PARAMS.mass)
    for i in range(1, n_steps + 1):
        psi = exp_v_half * psi
        c = np.multiply(np.fft.fft(psi.reshape(n1, n2), axis=0), twiddles)
        c = np.multiply(np.fft.fft(c, axis=1), exp_t)
        x = np.multiply(np.fft.fft(np.conj(c), axis=1, norm="forward"), twiddles)
        psi = np.conj(np.fft.fft(x, axis=0, norm="forward")).reshape(grid.n)
        psi = exp_v_half * psi
        expected[i] = psi
    return expected


@pytest.mark.parametrize("n", [1024, 2048, 4096, 8192, 16384])
def test_split_steps_matches_expression_loop_bitwise(n):
    # the complex product's last bit depends on the order of its operands:
    # below FOUR_STEP_POINTS (4096) the loop takes single-row transforms and
    # its kinetic product takes the factor first, as `exp_t * np.fft.fft(psi)`
    # does at these sizes; from it, four-step transforms, with the state
    # first.  8192 splits into 64 x 128, so a view of the wrong shape fails
    grid = ef.Grid1D(-8.0 * n / 1024, 8.0 * n / 1024, n)
    wf = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=5.0)
    pot = ef.Potential.gaussian_barrier(20.0, 0.5, 0.5)
    dt, n_steps, stride = 1e-4, 7, 2
    expected = _expression_states(wf, pot, dt, n_steps)

    final, handed, blocks = _observed(wf, pot, dt, n_steps, range(stride, n_steps + 1, stride),
                                      height=2)
    assert np.array_equal(final, expected[n_steps])
    # a block of the buffer's two rows, then the last observed step alone
    assert blocks == [([2, 4], False), ([6], False)]
    for i, given in handed:
        assert np.array_equal(given, expected[i]), i

    # evolve copies each kicked state out of its one-row buffer
    states = []
    out = ef.evolve(wf, pot, dt, n_steps, observer=states.append, stride=stride)
    assert np.array_equal(out.psi, expected[n_steps])
    assert not any(w.psi.flags.writeable for w in (*states, out))
    assert [w.t for w in states] == [i * dt for i in (2, 4, 6)]
    for w, i in zip(states, (2, 4, 6)):
        assert np.array_equal(w.psi, expected[i]), i
    assert len({w.psi.ctypes.data for w in (*states, out)}) == len(states) + 1


def test_a_bare_kicked_run_below_four_step_points_steps_in_place():
    # a warm bare kicked run at n = 2048 takes its single-row transforms in
    # its state buffer, so its loop holds three n-point complex arrays: the
    # state buffer, the half kick and the kinetic factor.  Its traced peak is
    # in making the factor, beside the half kick (3.54 arrays measured); a
    # buffer for the transforms makes it 4.10, or 5.54 if made with the
    # state before the factor
    import tracemalloc

    from entroflux.propagate import split_steps

    grid = ef.Grid1D(-16.0, 16.0, 2048)
    wf = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=5.0)
    pot = ef.Potential.gaussian_barrier(20.0, 0.5, 0.5)
    split_steps(wf, pot, 1e-4, 10)
    tracemalloc.start()
    try:
        split_steps(wf, pot, 1e-4, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * grid.n) < 4, peak / (16 * grid.n)


def test_four_step_loop_stays_near_the_single_row_loop():
    # 1000 steps at n = 16384: the four-step transforms round differently from
    # the single-row ones, and the states drift apart by roundoff only
    from entroflux.propagate import split_steps

    n = 16384
    grid = ef.Grid1D(-128.0, 128.0, n)
    wf = ef.init_gaussian(grid, PARAMS, sigma0=1.0, x0=-1.0, k0=5.0)
    pot = ef.Potential.gaussian_barrier(20.0, 0.5, 0.5)
    dt, n_steps = 1e-4, 1000
    exp_v_half = np.exp(-0.5j * pot.values(grid.x) * dt / PARAMS.hbar)
    exp_t = np.exp(-0.5j * PARAMS.hbar * grid.k**2 * dt / PARAMS.mass)
    psi = wf.psi
    for _ in range(n_steps):
        psi = exp_v_half * np.fft.ifft(exp_t * np.fft.fft(exp_v_half * psi))
    final = split_steps(wf, pot, dt, n_steps)
    assert not np.array_equal(final, psi)
    assert np.max(np.abs(final - psi)) < 1e-12


def _kicked_states(wf, pot, dt, n_steps):
    """Each state of n_steps Strang steps that apply both half kicks, with np.fft."""
    from entroflux.propagate import half_kick, kinetic_factor

    exp_v_half = half_kick(wf.grid, wf.params, pot, dt)
    exp_t = kinetic_factor(wf.grid, wf.params, dt)
    psi, states = wf.psi, []
    for _ in range(n_steps):
        psi = exp_v_half * np.fft.ifft(exp_t * np.fft.fft(exp_v_half * psi))
        states.append(psi)
    return states


@pytest.mark.parametrize("pot, sigma0, k0", [
    # a kick that is not 1 must be applied
    (ef.Potential.harmonic(1.0), 1.0, 5.0),
], ids=["harmonic"])
def test_split_steps_equal_kicked_loop_bytewise(pot, sigma0, k0):
    # the states of a potential are those of the loop that applies both half kicks
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=sigma0, k0=k0)
    dt, n_steps = 1e-4, 200
    expected = _kicked_states(wf, pot, dt, n_steps)
    final, handed, blocks = _observed(wf, pot, dt, n_steps, range(1, n_steps + 1), height=32)
    assert final.tobytes() == expected[-1].tobytes()
    assert [len(steps) for steps, _ in blocks] == [32] * 6 + [8]
    assert [i for i, _ in handed] == list(range(1, n_steps + 1))
    for (i, got), want in zip(handed, expected):
        assert got.tobytes() == want.tobytes(), i


def _fourier_transforms(wf, dt, steps):
    """{i: the transform of the state after i free Strang steps} for each i of
    steps, with np.fft and no product shared between steps: fft(psi_0) times
    the kinetic factor of 2**b * dt for each set bit b of i, highest first,
    the state the first operand of each product.  np.fft.ifft of each is the
    state."""
    from entroflux.propagate import kinetic_factor

    psi_hat_0, factors, transforms = np.fft.fft(wf.psi), {}, {}
    for i in steps:
        psi_hat = psi_hat_0
        for b in reversed(range(i.bit_length())):
            if i >> b & 1:
                if b not in factors:
                    factors[b] = kinetic_factor(wf.grid, wf.params, (1 << b) * dt)
                psi_hat = np.multiply(psi_hat, factors[b])
        transforms[i] = psi_hat
    return transforms


class _CountingNumpy:
    """numpy, with a count of the np.multiply calls made through it."""

    def __init__(self):
        self.products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        self.products += 1
        return np.multiply(*args, **kwargs)


@pytest.mark.parametrize("n, sigma0, k0", [
    # exact zeros in every initial state; the two narrow packets' underflowed
    # tails hold signed zeros (-0.0), which a kick could flip
    (1024, 1.0, 0.0),
    (1024, 0.2, 40.0),
    (1024, 0.15, 60.0),
    # 256 KiB states, from which numpy takes `factor * temporary` as
    # `temporary * factor`; the free loop takes the state first at every size
    (16384, 1.0, 5.0),
], ids=["free_wide", "free_narrow", "free_narrowest", "free_16384"])
def test_split_steps_equal_fourier_space_loop_bytewise(monkeypatch, n, sigma0, k0):
    # split_steps skips a half kick equal to 1 everywhere and reaches each
    # step by the kinetic factors of its set bits; the transforms it writes
    # into the buffer and the state it returns must be those of the
    # from-scratch products, to the sign of every zero, observed at every step
    # or at every 7th (gaps that change several bits), with one product per
    # step observed at every step
    from entroflux import propagate

    grid = ef.Grid1D(-20.0 * n / 1024, 20.0 * n / 1024, n)
    wf = ef.init_gaussian(grid, PARAMS, sigma0=sigma0, k0=k0)
    dt, n_steps = 1e-4, 200
    expected = _fourier_transforms(wf, dt, range(n_steps + 1))
    for schedule in (range(1, n_steps + 1), range(0, n_steps + 1, 7)):
        counting = _CountingNumpy()
        monkeypatch.setattr(propagate, "np", counting)
        final, handed, blocks = _observed(wf, ef.Potential.free(), dt, n_steps, schedule)
        monkeypatch.undo()
        assert final.tobytes() == np.fft.ifft(expected[n_steps]).tobytes()
        assert [i for i, _ in handed] == list(schedule)
        assert all(spectral for _, spectral in blocks)
        for i, got in handed:
            assert got.tobytes() == expected[i].tobytes(), i
        if schedule.step == 1:
            assert counting.products == n_steps


def test_a_bare_free_run_takes_one_product_per_set_bit(monkeypatch):
    # 2**20 - 1 steps, all 20 bits set: 20 products, and the bits of the
    # from-scratch composition; the packet spreads to a width of about 1.5
    # and stays clear of the seam
    from entroflux import propagate

    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    dt, n_steps = 2e-6, 2**20 - 1
    counting = _CountingNumpy()
    monkeypatch.setattr(propagate, "np", counting)
    final = propagate.split_steps(wf, ef.Potential.free(), dt, n_steps)
    monkeypatch.undo()
    assert counting.products == 20
    expected = np.fft.ifft(_fourier_transforms(wf, dt, [n_steps])[n_steps])
    assert final.tobytes() == expected.tobytes()
    rho = np.abs(final) ** 2
    assert max(rho[0], rho[-1]) < 1e-30
    assert position_variance(ef.WaveFunction(GRID, PARAMS, final)) \
        == pytest.approx(1.0 + (n_steps * dt / 2.0) ** 2, rel=1e-9)


def test_a_free_run_makes_factors_only_for_the_bit_levels_it_reaches(monkeypatch):
    # a bare run of 2**20 steps sets one bit: one product, and no factor but
    # F_0 and F_20; a stride-8 schedule over 64 steps sets no bit below 3, so
    # levels 1 and 2 take no factor
    from entroflux import propagate

    made, kinetic_factor = [], propagate.kinetic_factor

    def counting_factor(grid, params, dt):
        made.append(dt)
        return kinetic_factor(grid, params, dt)

    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    dt, n_steps, schedule = 2e-6, 2**20, range(0, 65, 8)
    counting = _CountingNumpy()
    monkeypatch.setattr(propagate, "np", counting)
    monkeypatch.setattr(propagate, "kinetic_factor", counting_factor)
    final = propagate.split_steps(wf, ef.Potential.free(), dt, n_steps)
    assert counting.products == 1 and made == [dt, n_steps * dt]
    made.clear()
    _, handed, _ = _observed(wf, ef.Potential.free(), dt, 64, schedule)
    assert made == [dt] + [(1 << b) * dt for b in range(3, 7)]
    monkeypatch.undo()
    expected = np.fft.ifft(_fourier_transforms(wf, dt, [n_steps])[n_steps])
    assert final.tobytes() == expected.tobytes()
    expected = _fourier_transforms(wf, dt, schedule)
    assert [i for i, _ in handed] == list(schedule)
    for i, got in handed:
        assert got.tobytes() == expected[i].tobytes(), i


@pytest.mark.parametrize("pot", [ef.Potential.free(), ef.Potential.harmonic(1.0)],
                         ids=["free", "harmonic"])
def test_split_steps_observes_its_schedule_only(pot):
    # a free run writes each state as its transform (spectral), a kicked run
    # as the state; step 0 is the initial state; the buffer's 4 rows are
    # handed over when full, and the last observed step ends a block
    from entroflux.propagate import split_steps

    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=1.0)
    schedule = [0, 1, 2, 5, 13, 20]
    free = pot.kind == "free"
    final, handed, blocks = _observed(wf, pot, 1e-4, 20, iter(schedule))
    assert blocks == [([0, 1, 2, 5], free), ([13, 20], free)]
    alone = {i: split_steps(wf, pot, 1e-4, i) for i in schedule}
    for i, given in handed:
        # the state after step i (through ifft from a transform)
        state = np.fft.ifft(given) if free else given
        assert state.tobytes() == alone[i].tobytes(), i
    assert final.tobytes() == alone[20].tobytes()


def test_split_steps_hands_out_step_0_of_an_empty_run():
    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0, k0=1.0)
    for pot in (ef.Potential.free(), ef.Potential.harmonic(1.0)):
        final, handed, blocks = _observed(wf, pot, 1e-4, 0, [0], height=1)
        assert blocks == [([0], pot.kind == "free")], pot.kind
        given = handed[0][1]
        state = np.fft.ifft(given) if pot.kind == "free" else given
        assert state.tobytes() == final.tobytes(), pot.kind
        np.testing.assert_allclose(state, wf.psi, rtol=0, atol=1e-15)


@pytest.mark.parametrize("schedule", [[2, 1], [1, 1], [3, 21], [-1]],
                         ids=["unsorted", "repeated", "past_the_end", "negative"])
def test_split_steps_refuses_a_schedule_outside_its_steps(schedule):
    from entroflux.propagate import split_steps

    wf = ef.init_gaussian(GRID, PARAMS, sigma0=1.0)
    handed = []
    with pytest.raises(ValueError, match="ascend strictly within 0..20"):
        split_steps(wf, ef.Potential.free(), 1e-4, 20, schedule,
                    np.empty((4, GRID.n), complex), lambda *block: handed.append(block))
    assert handed == []
    with pytest.raises(ValueError, match="need a buffer of rows"):
        split_steps(wf, ef.Potential.free(), 1e-4, 20, [1], None,
                    lambda *block: handed.append(block))
    assert handed == []


@pytest.mark.parametrize("pot, n, copies", [(ef.Potential.free(), 1024, 0),
                                             (ef.Potential.harmonic(1.0), 1024, 1),
                                             (ef.Potential.harmonic(1.0), 4096, 2)],
                         ids=["free", "harmonic", "harmonic_four_step"])
def test_split_steps_makes_no_call_or_copy_per_observed_row(pot, n, copies):
    # each observed row costs one Python call, reach, and a copy into the
    # buffer: 100 more observed rows add exactly 100 Python calls outside
    # the consumer, and no `ndarray.copy` is made for any row.  A kicked run
    # copies its initial state once, into the buffer it steps in and returns;
    # from FOUR_STEP_POINTS (4096) it takes four-step transforms and also
    # copies the wavenumbers once, into spectrum order.  Garbage collection is
    # off while profiling: a collection calls the `gc.callbacks` that other
    # libraries register (hypothesis does), which would count as calls
    import gc
    import sys

    from entroflux.propagate import split_steps

    grid = ef.Grid1D(-20.0 * n / 1024, 20.0 * n / 1024, n)
    wf = ef.init_gaussian(grid, PARAMS, sigma0=1.0, k0=1.0)
    rows = np.empty((16, n), complex)

    def profiled(n_rows):
        counts = {"calls": 0, "copies": 0, "blocks": 0}

        def on_block(steps, spectral):
            counts["blocks"] += 1

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is not on_block.__code__:
                counts["calls"] += 1
            elif event == "c_call" and getattr(arg, "__name__", "") == "copy" \
                    and isinstance(getattr(arg, "__self__", None), np.ndarray):
                counts["copies"] += 1

        gc.disable()
        sys.setprofile(profile)
        try:
            split_steps(wf, pot, 1e-4, 200, range(0, n_rows), rows, on_block)
        finally:
            sys.setprofile(None)
            gc.enable()
        return counts

    few, many = profiled(100), profiled(200)
    assert (few["blocks"], many["blocks"]) == (7, 13)
    assert many["calls"] - few["calls"] == 100
    assert few["copies"] == many["copies"] == copies

import dataclasses

import numpy as np
import pytest

import entroflux as ef
from conftest import plane_wave
from entroflux.grid import _state_derivative


PARAMS = ef.PhysicalParams()


def test_density_plane_wave():
    g = ef.Grid1D(0.0, 4.0, 64)
    wf, _ = plane_wave(g, PARAMS, mode=2)
    assert np.max(np.abs(ef.density(wf).values - 1.0 / g.length)) < 1e-14


def test_density_gaussian_peak():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.init_gaussian(g, PARAMS, sigma0=1.0)
    # peak value 1/sqrt(2 pi sigma^2); x=0 is a grid point
    i0 = np.argmin(np.abs(g.x))
    assert ef.density(wf).values[i0] == pytest.approx((2 * np.pi) ** -0.5, abs=1e-10)


def test_density_normalized():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.init_gaussian(g, PARAMS, sigma0=1.5, k0=3.0)
    assert ef.integrate(ef.density(wf)) == pytest.approx(1.0, abs=1e-8)


def test_current_real_wavefunction_vanishes():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.init_gaussian(g, PARAMS, sigma0=1.0, k0=0.0)
    assert np.max(np.abs(ef.take_snapshot(wf).den.current.values)) < 1e-12


def test_current_plane_wave():
    g = ef.Grid1D(0.0, 4.0, 64)
    wf, k = plane_wave(g, PARAMS, mode=2)
    expected = PARAMS.hbar * k / (PARAMS.mass * g.length)
    assert np.max(np.abs(ef.take_snapshot(wf).den.current.values - expected)) < 1e-13


def test_current_moving_gaussian_proportional_to_density():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    k0 = 2.0
    wf = ef.init_gaussian(g, PARAMS, sigma0=1.0, k0=k0)
    rho = ef.density(wf).values
    j = ef.take_snapshot(wf).den.current.values
    assert np.max(np.abs(j - (PARAMS.hbar * k0 / PARAMS.mass) * rho)) < 1e-10


def test_velocity_plane_wave():
    g = ef.Grid1D(0.0, 4.0, 64)
    wf, k = plane_wave(g, PARAMS, mode=2)
    den = ef.take_snapshot(wf).den
    v, floored = den.velocity, den.floored_points
    assert floored == 0
    assert np.max(np.abs(v.values - PARAMS.hbar * k / PARAMS.mass)) < 1e-12


def test_velocity_spread_gaussian():
    # free packet at t=2: v(x) = x (t/4) / (1 + t^2/4); at x = sigma(t) = sqrt(2)
    # this is 1/(2 sqrt(2)) ~ 0.35355
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.evolve(
        ef.init_gaussian(g, PARAMS, sigma0=1.0), ef.Potential.free(), 5e-4, 4000
    )
    v = ef.take_snapshot(wf).den.velocity
    i = np.argmin(np.abs(g.x - np.sqrt(2.0)))
    expected = g.x[i] * 0.5 / 2.0
    assert v.values[i] == pytest.approx(expected, abs=1e-8)


def test_velocity_stationary_state():
    g = ef.Grid1D(-16.0, 16.0, 512)
    psi = np.pi**-0.25 * np.exp(-0.5 * g.x**2)
    psi /= np.sqrt(g.dx * np.sum(psi**2))
    wf = ef.WaveFunction(g, PARAMS, psi.astype(complex))
    v = ef.take_snapshot(wf).den.velocity
    # away from the far tails, where j/rho amplifies FFT roundoff
    bulk = np.abs(psi) ** 2 > 1e-9
    assert np.max(np.abs(v.values[bulk])) < 1e-10


def test_velocity_floor_reported():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.init_gaussian(g, PARAMS, sigma0=1.0)
    den = ef.take_snapshot(wf, reg_floor=1e-12).den
    v, floored = den.velocity, den.floored_points
    assert floored > 0
    tail = ef.density(wf).values < 1e-12
    assert np.all(v.values[tail] == 0.0)


def test_velocity_galilean_boost():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.evolve(
        ef.init_gaussian(g, PARAMS, sigma0=1.0), ef.Potential.free(), 5e-4, 1000
    )
    k0 = 2.0 * np.pi * 16 / g.length  # exact grid mode
    boosted = dataclasses.replace(
        wf, psi=wf.psi * np.exp(1j * k0 * g.x)
    )
    v0 = ef.take_snapshot(wf).den.velocity
    v1 = ef.take_snapshot(boosted).den.velocity
    bulk = ef.density(wf).values > 1e-6
    shift = PARAMS.hbar * k0 / PARAMS.mass
    assert np.max(np.abs(v1.values[bulk] - v0.values[bulk] - shift)) < 1e-10


def test_current_equals_rho_times_velocity():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.evolve(
        ef.init_gaussian(g, PARAMS, sigma0=1.0, k0=1.0),
        ef.Potential.harmonic(1.0),
        5e-4,
        500,
    )
    den = ef.take_snapshot(wf).den
    rho, j, v = den.rho.values, den.current.values, den.velocity.values
    mask = rho > 1e-12
    rel = np.abs(j[mask] - rho[mask] * v[mask]) / np.abs(j[mask]).max()
    assert np.max(rel) < 1e-10


def test_log_gradient_identity_matches_velocity():
    # (hbar/2im) d/dx ln(psi/psi*) = j/rho wherever the density is substantial
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.evolve(
        ef.init_gaussian(g, PARAMS, sigma0=1.0), ef.Potential.free(), 5e-4, 2000
    )
    psi = wf.psi
    dpsi = _state_derivative(np.fft.fft(psi), g)
    # psi underflows to 0 in the far tails, which the mask below leaves out
    with np.errstate(divide="ignore", invalid="ignore"):
        log_grad_v = (PARAMS.hbar / PARAMS.mass) * np.imag(dpsi / psi)
    v = ef.take_snapshot(wf).den.velocity
    mask = ef.density(wf).values > 1e-9
    scale = np.max(np.abs(v.values[mask]))
    assert np.max(np.abs(log_grad_v[mask] - v.values[mask])) / scale < 1e-8


def test_fields_bundle():
    g = ef.Grid1D(-20.0, 20.0, 1024)
    wf = ef.init_gaussian(g, PARAMS, sigma0=1.0, k0=2.0)
    snapshot = ef.take_snapshot(wf)
    den = snapshot.den
    assert snapshot.t == 0.0
    assert den.floored_points > 0
    assert ef.integrate(den.rho) == pytest.approx(1.0, abs=1e-8)


def test_madelung_arrays_row_equals_row_of_large_stack():
    # numpy may reorder the operands of a product with a temporary once the
    # arrays reach 256 KiB, and a complex product's last bit depends on that
    # order: a 1-row stack must still give every row of a 512 KiB stack
    from entroflux.entropy import madelung_arrays

    def fields(psi):
        # madelung_arrays overwrites psi with its conjugate
        return madelung_arrays(psi.copy(), _state_derivative(np.fft.fft(psi), grid), PARAMS,
                               1e-10)

    grid = ef.Grid1D(-20.0, 20.0, 1024)
    rng = np.random.default_rng(7)
    x0 = np.linspace(-3.0, 3.0, 32)[:, None]
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (32, grid.n)))
    psi = np.exp(-((grid.x - x0) ** 2) / 4.0) * (1.0 + 0.1 * phase)
    assert psi.nbytes >= 256 * 1024
    stacked = fields(psi)
    for i in range(len(psi)):
        row = fields(psi[i : i + 1])
        for whole, alone in zip(stacked, row):
            assert np.array_equal(whole[i : i + 1], alone), i


# ---------- derivatives relative to each row's carrier ----------

CARRIER_K0 = (0.0, 0.3, 2.0, -3.0, 10.0, 0.0, 5.0, -0.2)


def _packets(grid, k0s):
    """Unit-norm Gaussians of width 1 (wavenumber spread 0.5) at the wavenumbers k0s."""
    x0 = np.linspace(-2.0, 2.0, len(k0s))[:, None]
    psi = np.exp(-((grid.x - x0) ** 2) / 4.0 + 1j * np.array(k0s)[:, None] * grid.x)
    return psi / np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2, axis=1, keepdims=True))


def test_carrier_derivative_takes_each_row_alone_and_keeps_the_bits_of_rows_without_one():
    # a carrier where |<k>| exceeds the spread 0.5: the grid wavenumber nearest
    # k0; the derivative and carrier of each row are the same bits in a block
    # of any mix of rows, from its own spectrum or in place, and a row without a
    # carrier keeps the bits of ifft(ik psi_hat)
    from entroflux.grid import _carrier_derivative, fft

    grid = ef.Grid1D(-16.0, 16.0, 512)
    psi = _packets(grid, CARRIER_K0)
    psi_hat = fft(psi)

    def ways(rows):
        spectrum = _carrier_derivative(rows, grid, out=np.empty_like(rows),
                                       spectrum=np.empty_like(rows))
        in_place = rows.copy()
        return spectrum, _carrier_derivative(in_place, grid, out=in_place)

    block = ways(psi_hat)
    expected = [grid.k[int(round(k0 / (2 * np.pi / grid.length)))] if abs(k0) > 0.5 else 0.0
                for k0 in CARRIER_K0]
    assert block[0][1].tolist() == expected
    for i, k0 in enumerate(CARRIER_K0):
        for (dpsi, carriers), (dpsi_alone, carrier_alone) in zip(block, ways(psi_hat[i : i + 1])):
            assert dpsi[i].tobytes() == dpsi_alone[0].tobytes() == block[0][0][i].tobytes(), i
            assert carriers[i] == carrier_alone[0] == expected[i], i
        plain = _state_derivative(psi_hat[i : i + 1], grid)[0]
        if not expected[i]:
            assert dpsi[i].tobytes() == plain.tobytes(), i
        # d psi/dx - i k_c psi, to roundoff
        shifted = plain - 1j * expected[i] * psi[i]
        np.testing.assert_allclose(dpsi[i], shifted, rtol=0, atol=1e-12 * np.abs(plain).max())


def test_madelung_fields_of_a_carrier_agree_with_the_spectral_form():
    # with a carrier, j gets (hbar/m) k_c rho back, and d rho/dx = 2 Re(psi* dpsi)
    # is the derivative of rho: both agree with the spectral form to roundoff
    from entroflux.entropy import madelung_arrays
    from entroflux.grid import _carrier_derivative, _spectral_derivative, fft

    grid = ef.Grid1D(-16.0, 16.0, 512)
    params = ef.PhysicalParams(hbar=0.7, mass=1.3)
    psi = _packets(grid, CARRIER_K0)
    dpsi, carriers = _carrier_derivative(fft(psi), grid)
    rho, j, v, mask, drho = madelung_arrays(psi.copy(), dpsi, params, 1e-10, carriers=carriers)
    plain = madelung_arrays(psi.copy(), _state_derivative(fft(psi), grid), params, 1e-10)
    assert carriers.any() and not carriers.all()
    np.testing.assert_array_equal(rho, plain[0])
    np.testing.assert_array_equal(mask, plain[3])
    for i, k_c in enumerate(carriers):
        if not k_c:
            assert j[i].tobytes() == plain[1][i].tobytes(), i
        np.testing.assert_allclose(j[i], plain[1][i], rtol=0, atol=1e-13 * np.abs(j[i]).max())
        np.testing.assert_allclose(v[i][mask[i]], plain[2][i][mask[i]], rtol=1e-9)
    np.testing.assert_allclose(drho, _spectral_derivative(rho, grid), rtol=0, atol=1e-13)

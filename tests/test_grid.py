import numpy as np
import pytest

import entroflux as ef


def test_grid_validation():
    with pytest.raises(ValueError, match="power of two"):
        ef.Grid1D(0.0, 1.0, 1000)
    with pytest.raises(ValueError, match="power of two"):
        ef.Grid1D(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        ef.Grid1D(1.0, 0.0, 64)


def test_grid_samples_exclude_right_endpoint():
    g = ef.Grid1D(0.0, 1.0, 64)
    assert g.dx == 1.0 / 64
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(1.0 - g.dx)


def test_field_validation():
    g = ef.Grid1D(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="non-finite"):
        ef.RealField(g, np.full(64, np.nan))
    with pytest.raises(ValueError):
        ef.RealField(g, np.ones(32))
    # a state: one finite complex sample per grid point, handed out read-only
    params = ef.PhysicalParams()
    with pytest.raises(ValueError, match="field length"):
        ef.WaveFunction(g, params, np.ones(32, complex))
    for bad in (np.nan, np.inf):
        psi = np.ones(64, complex)
        psi[7] = bad
        with pytest.raises(ValueError, match="non-finite field"):
            ef.WaveFunction(g, params, psi)
    wf = ef.WaveFunction(g, params, np.ones(64))
    assert wf.psi.dtype == complex and not wf.psi.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        wf.psi[0] = 0.0


def test_integrate_constant():
    g = ef.Grid1D(0.0, 1.0, 64)
    assert ef.integrate(ef.RealField(g, np.ones(64))) == pytest.approx(1.0, abs=1e-15)
    g2 = ef.Grid1D(0.0, 2.0, 64)
    assert ef.integrate(ef.RealField(g2, np.full(64, 0.5))) == pytest.approx(1.0, abs=1e-15)


def test_integrate_sin_squared():
    g = ef.Grid1D(0.0, 1.0, 64)
    f = ef.RealField(g, np.sin(2.0 * np.pi * g.x) ** 2)
    assert ef.integrate(f) == pytest.approx(0.5, abs=1e-14)


def test_derivative_constant_is_zero():
    g = ef.Grid1D(0.0, 1.0, 64)
    d = ef.derivative(ef.RealField(g, np.full(64, 3.7)))
    assert np.max(np.abs(d.values)) < 1e-13


def test_spectral_derivative_sin():
    g = ef.Grid1D(0.0, 1.0, 64)
    d = ef.derivative(ef.RealField(g, np.sin(2.0 * np.pi * g.x)))
    exact = 2.0 * np.pi * np.cos(2.0 * np.pi * g.x)
    assert np.max(np.abs(d.values - exact)) < 1e-12


def _random_periodic(grid, seed, n_modes=8):
    rng = np.random.default_rng(seed)
    f = np.zeros(grid.n)
    for m in range(1, n_modes + 1):
        a, b = rng.normal(size=2)
        f += a * np.sin(2.0 * np.pi * m * grid.x / grid.length)
        f += b * np.cos(2.0 * np.pi * m * grid.x / grid.length)
    return f


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_derivative_has_no_net_flux(seed):
    g = ef.Grid1D(-5.0, 5.0, 128)
    f = ef.RealField(g, _random_periodic(g, seed))
    assert abs(ef.integrate(ef.derivative(f))) < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_derivative_linearity(seed):
    g = ef.Grid1D(-5.0, 5.0, 128)
    f = _random_periodic(g, seed)
    h = _random_periodic(g, seed + 10)
    a, b = 2.5, -1.25
    lhs = ef.derivative(ef.RealField(g, a * f + b * h)).values
    rhs = (
        a * ef.derivative(ef.RealField(g, f)).values
        + b * ef.derivative(ef.RealField(g, h)).values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_complex_derivative():
    from entroflux.grid import _state_derivative

    g = ef.Grid1D(0.0, 1.0, 64)
    k = 2.0 * np.pi * 3 / g.length
    f = np.exp(1j * k * g.x)
    d = _state_derivative(np.fft.fft(f), g)
    assert np.max(np.abs(d - 1j * k * f)) < 1e-11


@pytest.mark.parametrize("n", [16, 1024, 16384])
def test_real_derivative_matches_complex_path(n):
    from entroflux.grid import _spectral_derivative

    g = ef.Grid1D(-20.0, 20.0, n)
    # white noise: content in every mode up to and including Nyquist
    f = np.random.default_rng(n).standard_normal((3, n))
    reference = np.fft.ifft(g._ik * np.fft.fft(f)).real
    d = _spectral_derivative(f, g)
    assert d.dtype == np.float64
    assert np.max(np.abs(d - reference)) <= 1e-14 * np.max(np.abs(reference))
    nyquist = ef.derivative(ef.RealField(g, np.cos(np.pi * g.x / g.dx)))
    assert nyquist.values.dtype == np.float64
    assert np.max(np.abs(nyquist.values)) <= 1e-14 * g.k_max
    # irfft drops the imaginary part of the Nyquist bin, so a nonzero Nyquist
    # multiplier would not show in any derivative: pin the multiplier itself
    # to the complex one's non-negative half, whose Nyquist entry is zero
    assert np.array_equal(g._ik_r, g._ik[: n // 2 + 1])


@pytest.mark.parametrize("rows, n", [(32, 1024), (2, 16384)])
def test_real_derivative_row_equals_row_of_large_stack(rows, n):
    # the rfft of these stacks is just over 256 KiB, where numpy may reorder
    # the operands of a product with a temporary; the order cannot change the
    # bits of a product by the purely imaginary _ik_r, and a batched row must
    # get the bits it gets alone
    from entroflux.grid import _spectral_derivative

    g = ef.Grid1D(-20.0, 20.0, n)
    x0 = np.linspace(-3.0, 3.0, rows)[:, None]
    noise = np.random.default_rng(rows).standard_normal((rows, n))
    f = np.exp(-((g.x - x0) ** 2) / 4.0) * (1.0 + 0.1 * noise)
    assert 16 * rows * (n // 2 + 1) > 256 * 1024
    stacked = _spectral_derivative(f, g)
    for i in range(rows):
        assert np.array_equal(stacked[i], _spectral_derivative(f[i], g)), i


@pytest.mark.parametrize("n", [16, 1024, 16384])
@pytest.mark.parametrize("shape", ["1d", "stack"])
def test_fft_helpers_equal_numpy_bytewise(n, shape):
    # the helpers call numpy's private pocketfft gufuncs: they must give
    # np.fft's bytes, with its normalisation and along the last axis of a
    # (B, n) stack whose B differs from n
    from entroflux import grid

    dims = (n,) if shape == "1d" else (3, n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(dims)
    z = x + 1j * rng.standard_normal(dims)
    half = z[..., : n // 2 + 1].copy()
    for a in (x, z, half):
        a.setflags(write=False)
    pairs = [
        (grid.fft(z), np.fft.fft(z)),
        (grid.ifft(z), np.fft.ifft(z)),
        (grid.rfft(x), np.fft.rfft(x)),
        (grid.irfft(half, n), np.fft.irfft(half, n)),
    ]
    for transform, reference in ((grid.fft, np.fft.fft), (grid.ifft, np.fft.ifft)):
        out = np.empty_like(z)
        assert transform(z, out=out) is out
        pairs.append((out, reference(z)))
    for i, (got, want) in enumerate(pairs):
        assert got.dtype == want.dtype and got.shape == want.shape, i
        assert got.tobytes() == want.tobytes(), i


@pytest.mark.parametrize("n, heights", [(1024, (1, 32)), (16384, (1, 2))],
                         ids=["1024", "16384"])
def test_complex_derivative_equals_numpy_expression_bytewise(n, heights):
    # blocks on both sides of 256 KiB, where numpy starts to reuse the
    # temporary of `g._ik * np.fft.fft(z)` for the product and swaps its
    # operands: ik is purely imaginary, so both orders give the same bits
    from entroflux.grid import _state_derivative, fft

    g = ef.Grid1D(-20.0, 20.0, n)
    rng = np.random.default_rng(n)
    for rows in heights:
        z = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        reference = np.fft.ifft(g._ik * np.fft.fft(z))
        assert _state_derivative(fft(z), g).tobytes() == reference.tobytes(), rows


LONG_DOUBLE = np.finfo(np.longdouble).eps < np.finfo(float).eps
needs_long_double = pytest.mark.skipif(
    not LONG_DOUBLE, reason="long double is double here: no reference more precise "
                            "than the transforms")


def _relative_errors(got, reference):
    """max|got - reference| / max|reference| and the rms of got - reference over
    that of reference."""
    err = np.abs(got - reference)
    size = np.abs(reference)
    return float(err.max() / size.max()), float(np.sqrt((err**2).sum() / (size**2).sum()))


@needs_long_double
def test_unit_roots_are_within_an_ulp():
    from entroflux.grid import unit_roots

    pi = 4 * np.arctan(np.longdouble(1))
    for n in (8, 4096, 2**16):
        m = np.arange(-n, 2 * n)
        exact = np.exp(-2j * pi * m.astype(np.longdouble) / n)
        assert np.max(np.abs(unit_roots(m, n) - exact)) < np.finfo(float).eps, n


@needs_long_double
@pytest.mark.parametrize("n", [4096, 8192, 16384, 2**16])
def test_four_step_transforms_are_as_accurate_as_pocketfft(n):
    # against np.fft of the same input in long double, the four-step
    # transforms' max and rms relative errors are at most 1.25 times those of
    # pocketfft's single-row transforms (forward at n = 16384: max 2.9e-16
    # against 3.4e-16, rms 2.8e-16 against 2.8e-16; the largest ratio, 1.16, is
    # the inverse's max at n = 4096).  n = 8192 splits into 64 x 128, so
    # twiddles of the transposed split show there
    from entroflux.grid import FourStep

    split = FourStep(n)
    assert (split.n1, split.n2) == (2 ** (int(np.log2(n)) // 2), n // split.n1)
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    exact = np.fft.fft(z.astype(np.clongdouble))
    a = split.pad(z)
    forward = split.forward(a)
    assert np.shares_memory(forward, a)
    got = _relative_errors(forward.T.reshape(n), exact)  # spectrum order to natural
    pocketfft = _relative_errors(np.fft.fft(z), exact)
    assert got[0] <= 1.25 * pocketfft[0] and got[1] <= 1.25 * pocketfft[1], (got, pocketfft)

    exact = np.fft.ifft(z.astype(np.clongdouble))
    a = split.order(z)
    inverse = split.inverse(a)
    assert np.shares_memory(inverse, a)
    got = _relative_errors(inverse.reshape(n), exact)
    pocketfft = _relative_errors(np.fft.ifft(z), exact)
    assert got[0] <= 1.25 * pocketfft[0] and got[1] <= 1.25 * pocketfft[1], (got, pocketfft)


@pytest.mark.parametrize("n", [4096, 8192, 16384, 32768, 2**16])
def test_kicked_loop_steps_a_padded_four_step_buffer(n, monkeypatch):
    # the loop's state lives in a flat buffer whose (n1, n2) view has a row
    # stride of n2 + 1 points, not n2: unpadded, a column's points lie a power
    # of two of bytes apart and share two sets of the L1 cache.  Its products
    # run over the whole buffer, against tables whose pad slots hold 0, so the
    # state's pad slots stay 0
    from entroflux.grid import FourStep
    from entroflux.propagate import split_steps

    split = FourStep(n)
    n1, n2 = split.n1, split.n2
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for table in (split._twiddles, split.pad(psi), split.order(psi)):
        assert table.shape == (n1 * (n2 + 1),)
        assert not table.reshape(n1, n2 + 1)[:, n2].any()
    x = split.view(split.pad(psi))
    assert x.strides == ((n2 + 1) * 16, 16)
    assert np.array_equal(x.reshape(n), psi)
    assert np.array_equal(split.view(split.order(psi)), psi.reshape(n2, n1).T)
    assert split.twiddles.shape == (n1, n2)
    assert np.shares_memory(split.twiddles, split._twiddles)

    buffers = []
    forward = FourStep.forward

    def spy(self, a):
        buffers.append(a)
        return forward(self, a)

    monkeypatch.setattr(FourStep, "forward", spy)
    grid = ef.Grid1D(-8.0 * n / 1024, 8.0 * n / 1024, n)
    wf = ef.init_gaussian(grid, ef.PhysicalParams(), sigma0=1.0, x0=-1.0, k0=5.0)
    final = split_steps(wf, ef.Potential.gaussian_barrier(20.0, 0.5, 0.5), 1e-4, 3)
    assert len(buffers) == 3 and all(a is buffers[0] for a in buffers)
    a = buffers[0]
    assert a.shape == (n1 * (n2 + 1),)
    assert not a.reshape(n1, n2 + 1)[:, n2].any()
    assert np.array_equal(final, split.view(a).reshape(n))
    assert final.flags.c_contiguous and not np.shares_memory(final, a)


def test_four_step_stage_calls_bind_no_instance():
    # forward and inverse read their stage calls through the instance; a
    # partial kept as a plain class attribute would take the instance as its
    # first argument where partial is a method descriptor (Python 3.14 on),
    # and warns of that on 3.13
    import warnings

    from entroflux.grid import FourStep

    split = FourStep(4096)
    rng = np.random.default_rng(4096)
    z = rng.standard_normal((split.n1, split.n2)) + 1j * rng.standard_normal((split.n1, split.n2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stages = {0: split.columns, 1: split.rows}
    for axis, stage in stages.items():
        for fct, norm in ((1, "backward"), (1 / z.shape[axis], "forward")):
            x = z.copy()
            stage(x, fct, out=x)
            assert x.tobytes() == np.fft.fft(z, axis=axis, norm=norm).tobytes(), (axis, norm)

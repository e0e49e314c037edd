import pytest

import entroflux as ef


MINIMAL = """\
# minimal spreading-Gaussian run
x_min = -20
x_max = 20
n = 1024
sigma0 = 1.0
dt = 5e-4
t_final = 0.1
"""


def test_minimal_config_defaults():
    cfg = ef.parse_config(MINIMAL)
    assert cfg.params.hbar == 1.0
    assert cfg.params.mass == 1.0
    assert cfg.reg_floor == 1e-12
    assert cfg.observe_stride == 10
    assert cfg.initial_kind == "gaussian"
    assert cfg.potential.kind == "free"
    assert cfg.n_steps == 200
    assert cfg.subvolume is None


def test_unknown_key_carries_line_number():
    with pytest.raises(ef.ConfigError, match="line 8.*unknown key"):
        ef.parse_config(MINIMAL + "bogus = 1\n")


def test_bad_n_carries_line_number():
    text = MINIMAL.replace("n = 1024", "n = 1000")
    with pytest.raises(ef.ConfigError, match="line 4.*power of two"):
        ef.parse_config(text)


def test_dt_bound_checked_at_load():
    text = MINIMAL.replace("dt = 5e-4", "dt = 1.0")
    with pytest.raises(ef.ConfigError, match="line 6.*time step too large"):
        ef.parse_config(text)


def test_type_mismatch_carries_line_number():
    text = MINIMAL.replace("dt = 5e-4", "dt = fast")
    with pytest.raises(ef.ConfigError, match="line 6"):
        ef.parse_config(text)


def test_duplicate_key_rejected():
    with pytest.raises(ef.ConfigError, match="duplicate"):
        ef.parse_config(MINIMAL + "sigma0 = 2.0\n")


COHERENT = MINIMAL.replace("sigma0 = 1.0", "initial = coherent\nomega = 1.0\namplitude = 2.0")


@pytest.mark.parametrize(
    "text,match,line",
    [
        (MINIMAL.replace("sigma0 = 1.0\n", ""), "missing required key 'sigma0'", None),
        (COHERENT.replace("omega = 1.0\n", ""), "missing required key 'omega'", None),
        (COHERENT.replace("amplitude = 2.0\n", ""), "missing required key 'amplitude'", None),
        (MINIMAL + "potential = harmonic\n", "missing required key 'potential_omega'", None),
        (MINIMAL + "potential = gaussian_barrier\nbarrier_width = 1.0\n",
         "missing required key 'barrier_height'", None),
        (MINIMAL + "potential = gaussian_barrier\nbarrier_height = 0.5\n",
         "missing required key 'barrier_width'", None),
        (MINIMAL + "subvolume_b = 2\n", "together", 8),
    ],
    ids=["sigma0", "omega", "amplitude", "potential_omega", "barrier_height",
         "barrier_width", "subvolume_a"],
)
def test_missing_required_key(text, match, line):
    with pytest.raises(ef.ConfigError, match=match) as info:
        ef.parse_config(text)
    assert info.value.line == line


def test_coarse_grid_rejected():
    text = MINIMAL.replace("n = 1024", "n = 32")
    with pytest.raises(ef.ConfigError, match="grid too coarse"):
        ef.parse_config(text)


def test_coherent_initial_state():
    text = MINIMAL.replace("sigma0 = 1.0", "initial = coherent\nomega = 1.0\namplitude = 2.0")
    text += "potential = harmonic\npotential_omega = 1.0\n"
    cfg = ef.parse_config(text)
    assert cfg.initial_kind == "coherent"
    assert cfg.sigma0 == pytest.approx(0.5**0.5)
    assert cfg.potential.kind == "harmonic"


def test_subvolume_requires_both_endpoints():
    with pytest.raises(ef.ConfigError, match="together"):
        ef.parse_config(MINIMAL + "subvolume_a = -2\n")
    cfg = ef.parse_config(MINIMAL + "subvolume_a = -2\nsubvolume_b = 2\n")
    assert cfg.subvolume == (-2.0, 2.0)


def test_subvolume_must_be_inside_domain():
    with pytest.raises(ef.ConfigError, match="subvolume"):
        ef.parse_config(MINIMAL + "subvolume_a = -30\nsubvolume_b = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ef.ConfigError, match="line 1"):
        ef.parse_config("just some words\n")


def test_barrier_potential_parsed():
    text = MINIMAL + "potential = gaussian_barrier\nbarrier_height = 0.5\nbarrier_width = 1.0\n"
    cfg = ef.parse_config(text)
    assert cfg.potential.kind == "gaussian_barrier"
    assert cfg.potential.height == 0.5


def test_sweep_config():
    text = """\
epsilons = 0.4, 0.2, 0.1
t_c = 2.0
L_c = 1.0
dt_ref = 2e-3
"""
    spec = ef.parse_sweep_config(text)
    assert spec.epsilons == (0.4, 0.2, 0.1)
    assert spec.t_c == 2.0


def test_sweep_config_rejects_ascending():
    text = "epsilons = 0.1, 0.2\nt_c = 2.0\nL_c = 1.0\n"
    with pytest.raises(ef.ConfigError, match="descending"):
        ef.parse_sweep_config(text)


def test_binning_config():
    text = """\
x_min = -12.8
x_max = 12.8
n = 1024
sigma0 = 1.0
bin_widths = 0.4, 0.2, 0.1
"""
    cfg = ef.parse_binning_config(text)
    assert cfg.bin_widths == (0.4, 0.2, 0.1)
    assert cfg.grid.n == 1024


def test_truncating_time_grid_rejected():
    # 50 steps of 5e-4 do not split into observations every 7 steps
    text = MINIMAL.replace("t_final = 0.1", "t_final = 0.025") + "observe_stride = 7\n"
    with pytest.raises(ef.ConfigError, match="line 8.*observe_stride"):
        ef.parse_config(text)
    # with the default stride of 10 the error names the t_final line
    with pytest.raises(ef.ConfigError, match="line 7.*observe_stride"):
        ef.parse_config(MINIMAL.replace("t_final = 0.1", "t_final = 0.0275"))
    # 50.5 steps
    with pytest.raises(ef.ConfigError, match="line 7.*whole number"):
        ef.parse_config(MINIMAL.replace("t_final = 0.1", "t_final = 0.02525"))
    text = MINIMAL.replace("t_final = 0.1", "t_final = 0.025") + "observe_stride = 5\n"
    assert ef.parse_config(text).n_steps == 50

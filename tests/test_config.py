from dataclasses import MISSING

import pytest

import entroflux as ef
from entroflux import config


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


@pytest.mark.parametrize("entry", ["x0 = 5", "k0 = 3", "k0 = -0.5", "x0 = 0", "sigma0 = 2"])
def test_coherent_packet_rejects_sigma0_x0_and_k0(entry):
    # the packet comes from omega and amplitude alone: these keys would be ignored
    text = COHERENT + "potential = harmonic\npotential_omega = 1.0\n" + entry + "\n"
    key = entry.split()[0]
    with pytest.raises(ef.ConfigError, match=f"line 12: {key} does not apply") as info:
        ef.parse_config(text)
    assert info.value.line == 12


def test_coherent_packet_allows_zero_k0():
    cfg = ef.parse_config(COHERENT + "k0 = 0\n")
    assert (cfg.k0, cfg.x0) == (0.0, 2.0)


HARMONIC = "potential = harmonic\npotential_omega = 1.0\n"


@pytest.mark.parametrize(
    "text,match,line",
    [
        (MINIMAL + HARMONIC, "gaussian initial state requires potential = free", 8),
        # the potential keeps its default, free: the error names the initial line
        (COHERENT, "coherent state requires potential = harmonic", 5),
        (COHERENT + "potential = gaussian_barrier\nbarrier_height = 1\nbarrier_width = 1\n",
         "coherent state requires potential = harmonic", 10),
        (COHERENT + "potential = harmonic\npotential_omega = 2\n",
         "requires potential_omega = omega = 1.0, got 2.0", 11),
        (COHERENT + "potential_center = 3\n" + HARMONIC,
         "requires potential_center = 0, got 3.0", 10),
    ],
    ids=["gaussian_harmonic", "coherent_free", "coherent_barrier", "coherent_omega",
         "coherent_center"],
)
def test_oracle_without_closed_form_is_error_at_its_line(text, match, line):
    ef.parse_config(text)  # simulate runs it
    with pytest.raises(ef.ConfigError, match=match) as info:
        ef.parse_oracle_config(text)
    assert info.value.line == line


def test_oracle_config_parses_closed_form_scenarios():
    for text in (MINIMAL, MINIMAL + "k0 = 1\nx0 = -2\n", COHERENT + HARMONIC):
        assert repr(ef.parse_oracle_config(text)) == repr(ef.parse_config(text))


# the schemas as they were written out by hand before they were derived from
# the builders' signatures
HAND_WRITTEN_SCHEMAS = {
    "_RUN_SCHEMA": {
        "x_min": ("float", MISSING),
        "x_max": ("float", MISSING),
        "n": ("int", MISSING),
        "hbar": ("float", 1.0),
        "mass": ("float", 1.0),
        "initial": ("str", "gaussian"),
        "sigma0": ("float", None),
        "x0": ("float", None),
        "k0": ("float", 0.0),
        "omega": ("float", None),
        "amplitude": ("float", None),
        "potential": ("str", "free"),
        "potential_omega": ("float", None),
        "potential_center": ("float", 0.0),
        "barrier_height": ("float", None),
        "barrier_width": ("float", None),
        "barrier_center": ("float", 0.0),
        "dt": ("float", MISSING),
        "t_final": ("float", MISSING),
        "observe_stride": ("int", 10),
        "reg_floor": ("float", 1e-12),
        "subvolume_a": ("float", None),
        "subvolume_b": ("float", None),
        "save_snapshots": ("bool", False),
        "norm_tol": ("float", 1e-8),
        "eq16_rel_tol": ("float", None),
    },
    "_SWEEP_SCHEMA": {
        "epsilons": ("float_list", MISSING),
        "t_c": ("float", MISSING),
        "L_c": ("float", MISSING),
        "x_min": ("float", -20.0),
        "x_max": ("float", 20.0),
        "n": ("int", 1024),
        "mass": ("float", 1.0),
        "x0": ("float", 0.0),
        "k0": ("float", 0.0),
        "dt_ref": ("float", 2e-3),
        "n_samples": ("int", 100),
        "reg_floor": ("float", 1e-12),
    },
    "_BINNING_SCHEMA": {
        "x_min": ("float", MISSING),
        "x_max": ("float", MISSING),
        "n": ("int", MISSING),
        "sigma0": ("float", MISSING),
        "x0": ("float", 0.0),
        "bin_widths": ("float_list", MISSING),
        "reg_floor": ("float", 1e-12),
    },
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN_SCHEMAS))
def test_schema_derived_from_builder_matches_hand_written_one(name):
    # key order included: of two missing required keys, the first is reported
    derived = getattr(config, name)
    assert list(derived.items()) == list(HAND_WRITTEN_SCHEMAS[name].items())

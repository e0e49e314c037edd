"""Property test of the three config parsers: any text built from a parser's
keys either parses or raises ConfigError, never any other exception."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import entroflux as ef
from entroflux.config import _BINNING_SCHEMA, _RUN_SCHEMA, _SWEEP_SCHEMA

# None drops the key; the rest are edge values, then ordinary ones of each kind
VALUES = (
    None, "nan", "inf", "-inf", "1e-320", "-1e-320", "1e-300", "1e300", "-1e300",
    "0", "-1", "-0.5", "fast", "",
    "1", "0.5", "2", "-3", "1e-3", "7", "16", "512", "1024", "true", "no",
    "gaussian", "coherent", "free", "harmonic", "gaussian_barrier",
    "0.4, 0.2", "0.1, 0.2", "0.4, 0.3", "0.2, nan", ",",
)

RUN_BASE = {"x_min": "-20", "x_max": "20", "n": "512", "sigma0": "1", "dt": "1e-3",
            "t_final": "0.1"}
SWEEP_BASE = {"epsilons": "0.4, 0.2", "t_c": "2", "L_c": "1"}
BINNING_BASE = {"x_min": "-12.8", "x_max": "12.8", "n": "1024", "sigma0": "1",
                "bin_widths": "0.4, 0.2"}


@st.composite
def config_text(draw, schema, base):
    """A valid config (base) with up to five of the schema's keys reset."""
    entries = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(schema)), max_size=5, unique=True)):
        value = draw(st.sampled_from(VALUES))
        if value is None:
            entries.pop(key, None)
        else:
            entries[key] = value
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def _parses_or_config_error(parse, text):
    try:
        parse(text)
    except ef.ConfigError:
        pass


# extreme values make numpy warn on their way to a ConfigError
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@FUZZ
@given(config_text(_RUN_SCHEMA, RUN_BASE))
@example("x_min = -20\nx_max = 20\nn = 512\nsigma0 = 1\ndt = 1e-320\nt_final = 0.1\n")
def test_run_config_fuzz(text):
    _parses_or_config_error(ef.parse_config, text)


@FUZZ
@given(config_text(_SWEEP_SCHEMA, SWEEP_BASE))
@example("epsilons = 0.4, 0.2\nt_c = 2\nL_c = 1\ndt_ref = 1e-320\n")
def test_sweep_config_fuzz(text):
    _parses_or_config_error(ef.parse_sweep_config, text)


@FUZZ
@given(config_text(_BINNING_SCHEMA, BINNING_BASE))
@example("x_min = -12.8\nx_max = 12.8\nn = 1024\nsigma0 = 1e300\nbin_widths = 0.4\n")
def test_binning_config_fuzz(text):
    _parses_or_config_error(ef.parse_binning_config, text)

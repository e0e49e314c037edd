"""Property tests of the config parsers: any text built from a parser's keys
either parses or raises ConfigError, never any other exception; a refusal
names its line, and an accepted config's packet lies on its grid."""
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import entroflux as ef
from entroflux.config import _BINNING_SCHEMA, _RUN_SCHEMA, _SWEEP_SCHEMA
from entroflux.oracle import closed_form

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
COHERENT_BASE = {"x_min": "-20", "x_max": "20", "n": "512", "initial": "coherent",
                 "omega": "1", "amplitude": "1", "potential": "harmonic",
                 "potential_omega": "1", "dt": "1e-3", "t_final": "0.1"}
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
# x0 left at its default of 0, below x_min
@example("x_min = 1\nx_max = 41\nn = 1024\nsigma0 = 1\ndt = 1e-4\nt_final = 0.1\n")
def test_run_config_fuzz(text):
    try:
        cfg = ef.parse_config(text)
    except ef.ConfigError:
        return
    # the packet's centre, set or left at its default, lies on the grid
    assert cfg.grid.x_min <= cfg.x0 < cfg.grid.x_max, text


@FUZZ
@given(config_text(_RUN_SCHEMA, COHERENT_BASE))
@example("x_min = -20\nx_max = 20\nn = 512\ninitial = coherent\nomega = 1\namplitude = 1\n"
         "dt = 1e-3\nt_final = 0.1\n")
def test_oracle_config_fuzz(text):
    try:
        cfg = ef.parse_oracle_config(text)
    except ef.ConfigError as exc:
        # a scenario simulate accepts but oracle cannot is refused at a line
        try:
            ef.parse_config(text)
        except ef.ConfigError:
            return
        assert exc.line is not None, exc
    else:
        closed_form(cfg)  # the oracle run finds its closed form


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


PARSERS = {
    "simulate": (ef.parse_config, _RUN_SCHEMA, RUN_BASE),
    "oracle": (ef.parse_oracle_config, _RUN_SCHEMA, COHERENT_BASE),
    "sweep": (ef.parse_sweep_config, _SWEEP_SCHEMA, SWEEP_BASE),
    "binning": (ef.parse_binning_config, _BINNING_SCHEMA, BINNING_BASE),
}


def _centres(cfg, entries) -> list:
    """(grid, x0) of each packet an accepted config makes."""
    if isinstance(cfg, ef.SweepSpec):
        return [(row.grid, row.x0) for row in cfg.row_configs]
    if isinstance(cfg, ef.BinningConfig):
        return [(cfg.grid, float(entries.get("x0", 0.0)))]
    return [(cfg.grid, cfg.x0)]


@pytest.mark.parametrize("name", PARSERS)
def test_every_one_key_variation_parses_or_is_refused_at_its_line(name):
    # each schema key set to each of VALUES, or dropped, in the parser's base config
    parse, schema, base = PARSERS[name]
    for key in sorted(schema):
        for value in VALUES:
            entries = dict(base)
            if value is None:
                entries.pop(key, None)
            else:
                entries[key] = value
            text = "".join(f"{k} = {v}\n" for k, v in entries.items())
            try:
                cfg = parse(text)
            except ef.ConfigError as exc:
                message = str(exc)
                if exc.line is None:
                    assert message.startswith("missing required key"), text
                    continue
                if re.search(r"\bx0 = \S+ lies outside the grid", message):
                    # an off-grid centre is reported at x0 if the text sets it, else
                    # at the bound it crosses
                    x0 = float(entries.get("x0", 0.0))
                    x_min = float(entries.get("x_min", schema["x_min"][1]))
                    at = "x0" if "x0" in entries else "x_min" if x0 < x_min else "x_max"
                    assert exc.line == list(entries).index(at) + 1, (text, message)
            else:
                for grid, x0 in _centres(cfg, entries):
                    assert grid.x_min <= x0 < grid.x_max, text

import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import entroflux as ef
from entroflux import _g17, report
from entroflux.entropy import Series
from entroflux.report import SNAPSHOT_COLUMNS, write_snapshots, write_table

TABLE_CHUNK_ROWS = _g17.PASS_VALUES // 2  # rows of a chunk of two float columns


def _fmt(x) -> str:
    """Per-value reference: strings as they are, integers in full, floats %.17g."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _reference(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


FLOATS = [0.1, 1.0 / 3.0, np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324,
          -2.5e300, 123456789.12345678]
INTS = [0, -7, 1, 2**62, 9007199254740993, 42, -(2**40), 3, 10**15, 5]
STRINGS = ["", "packet reached domain boundary", "a;b", "x y", "nan", "", "0", "-", "é", ""]


def test_write_table_matches_per_value_reference(tmp_path):
    path = tmp_path / "table.csv"
    header = ["i", "x", "s", "y"]
    ys = np.linspace(-1.0, 1.0, len(FLOATS)) ** 3
    write_table(path, header, [np.array(INTS), np.array(FLOATS), STRINGS, ys])
    assert path.read_bytes() == _reference(header, zip(INTS, FLOATS, STRINGS, ys))
    # every float survives the text bit for bit
    back = np.genfromtxt(path, delimiter=",", skip_header=1, usecols=(1, 3))
    assert np.array_equal(back[:, 0], FLOATS, equal_nan=True)
    assert np.array_equal(back[:, 1], ys)


def test_write_table_header_only_for_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_table(path, ["a", "b"], [np.array([], dtype=int), np.array([])])
    assert path.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_integer_columns_match_percent_d(tmp_path, dtype):
    # the digits of an integer column are taken by numpy, at the end of each
    # value's slot: the bytes of `%d`, from a lone 0 to the ends of int64
    edges = [0, 9, 10, -1, -9, -10, 99, 100, -100, 1001]
    if dtype is np.int64:
        edges += [-(2**63), 2**63 - 1, -(2**63) + 1, 10**18, 10**18 - 1, -(10**18)]
    rng = np.random.default_rng(5)
    info = np.iinfo(dtype)
    values = np.array(edges + rng.integers(info.min, info.max, 300, dtype=dtype,
                                           endpoint=True).tolist(), dtype=dtype)
    for column in (values, values[:1], values[values >= 0], np.zeros(3, dtype)):
        slots = report._text_slots(column)
        assert [bytes(row).replace(b"\xff", b"") for row in slots] \
            == [b"%d" % v for v in column.tolist()]
        path = tmp_path / "ints.csv"
        write_table(path, ["i", "x"], [column, np.zeros(len(column))])
        assert path.read_bytes() == b"i,x\n" + b"".join(b"%d,0\n" % v for v in column.tolist())


def _per_line_reference(header, row_format, columns) -> bytes:
    """One `%` per line, as the rows were written before they were formatted in chunks."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [",".join(header)] + [row_format % row for row in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n_rows", [0, 1, TABLE_CHUNK_ROWS - 1, TABLE_CHUNK_ROWS,
                                    TABLE_CHUNK_ROWS + 1, 2 * TABLE_CHUNK_ROWS + 3])
def test_write_table_matches_per_line_reference_across_chunks(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    ints = np.arange(n_rows) * 7 - 3  # every row differs, so a shifted row shows
    floats = rng.normal(size=n_rows) * 10.0 ** rng.integers(-300, 300, size=n_rows)
    words = np.array([f"row {i}" for i in range(n_rows)])
    tiny = np.cumsum(np.full(n_rows, 1e-300))
    # the special values sit on both sides of each chunk seam and at the ends
    seams = range(TABLE_CHUNK_ROWS, n_rows, TABLE_CHUNK_ROWS)
    for at in {0, n_rows - 1, *seams, *(s - 1 for s in seams)}:
        if 0 <= at < n_rows:
            floats[at], tiny[at], words[at] = np.nan, -0.0, ""
    if n_rows > 2:
        floats[1], floats[2] = -0.0, 1e-300
    header = ["i", "x", "s", "tiny"]
    columns = [ints, floats, words, tiny]
    path = tmp_path / "table.csv"
    write_table(path, header, columns)
    expected = _per_line_reference(header, "%d,%.17g,%s,%.17g", columns)
    assert path.read_bytes() == expected
    assert len(path.read_text().splitlines()) == n_rows + 1


def test_write_snapshots_matches_per_value_reference(tmp_path, monkeypatch):
    formatted = []  # the grid columns formatted, once per block
    text_column = report.text_column
    monkeypatch.setattr(report, "text_column",
                        lambda x: formatted.append(x) or text_column(x))
    rng = np.random.default_rng(7)
    # a small grid, and blocks whose files cross a chunk seam
    for n, n_rows, first in ((16, 3, 0), (2 * TABLE_CHUNK_ROWS, 2, 5)):
        grid = ef.Grid1D(-2.0, 2.0, n)
        rows = []
        for i in range(n_rows):
            rho = rng.random(grid.n) ** 3
            rho[:3] = (0.0, 1e-300, 1e-13)  # zero, tiny and floored densities
            current = rng.normal(size=grid.n)
            current[0] = -0.0
            rows.append((0.1 * i, rho, current, current / np.maximum(rho, 1e-12)))
        series = Series.of(grid, *map(np.array, zip(*rows)))
        out = tmp_path / f"n{n}"
        write_snapshots(series, out, first)
        assert len(formatted) == 1 and formatted.pop() is grid.x
        files = sorted(out.glob("snapshot_*.csv"))
        assert [f.name for f in files] == [f"snapshot_{first + i:06d}.csv"
                                           for i in range(n_rows)]
        for i, f in enumerate(files):
            columns = (grid.x, series.rho[i], series.current[i], series.velocity[i],
                       series.rho_I[i])
            assert f.read_bytes() == _reference(SNAPSHOT_COLUMNS, zip(*columns))


def test_write_snapshots_formats_a_grid_longer_than_a_pass(tmp_path):
    # the grid column takes two kernel passes, and each file 8 chunks of rows
    grid = ef.Grid1D(-40.0, 40.0, 2 * _g17.PASS_VALUES)
    rng = np.random.default_rng(11)
    rho = rng.random((1, grid.n)) ** 3
    current = rng.normal(size=(1, grid.n))
    series = Series.of(grid, np.zeros(1), rho, current, current / np.maximum(rho, 1e-12))
    write_snapshots(series, tmp_path)
    columns = (grid.x, series.rho[0], series.current[0], series.velocity[0], series.rho_I[0])
    expected = _reference(SNAPSHOT_COLUMNS, zip(*columns))
    assert (tmp_path / "snapshot_000000.csv").read_bytes() == expected


def _write_peak(path, n_rows) -> int:
    """The tracemalloc peak of writing n_rows rows of 10 float columns and one
    integer column, the shape of series.csv."""
    rng = np.random.default_rng(n_rows)
    columns = [*rng.normal(size=(10, n_rows)), np.arange(n_rows)]
    tracemalloc.start()
    try:
        write_table(path, report.CSV_COLUMNS, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writing_a_table_holds_one_chunk_whatever_its_length(tmp_path):
    write_table(tmp_path / "warm.csv", ["x"], [np.ones(1)])  # the kernel's tables
    small, large = (_write_peak(tmp_path / "table.csv", n) for n in (2_000, 200_000))
    assert large <= 1.5 * small


# ---------- the %.17g kernel ----------

def _kernel_texts(values) -> list:
    """The text `_g17.format_into` gives each of values."""
    x = np.asarray(values, dtype=float)
    words = np.empty((x.size, _g17.WORDS), np.uint64)
    _g17.format_into(x, words)
    return [bytes(slot).replace(b"\xff", b"") for slot in words.view(np.uint8)]


def _percent_texts(values) -> list:
    return [("%.17g" % v).encode() for v in np.asarray(values, dtype=float).tolist()]


def test_kernel_runs_on_a_64_bit_long_double():
    # with a 64-bit significand the kernel passes its self-check, so the tests
    # below reach it and not only its `%` fallback
    if np.finfo(np.longdouble).nmant != 63:
        pytest.skip("no 64-bit long double on this host")
    assert _g17._tables() is not None


def test_kernel_matches_percent_on_any_floats():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # batches mix the kernel's values with the ones it leaves to `%`
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def check(values):
        assert _kernel_texts(values) == _percent_texts(values)

    check()


def test_kernel_matches_percent_on_every_power_of_ten_and_its_neighbours():
    powers = np.array([f"1e{k}" for k in range(-323, 309)], dtype=float)
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert _kernel_texts(values) == _percent_texts(values)


def test_kernel_switches_notation_where_percent_does():
    # %g is fixed for -4 <= e < 17 and scientific outside, e after rounding
    fixed = [1e-4, np.nextafter(1e-4, 1), 0.00012345678901234567, 1e16,
             np.nextafter(1e17, 0), 12345678901234567.0]
    scientific = [1e-5, np.nextafter(1e-4, 0), 1.5e-5, 1e17, 9.9999999999999999e16,
                  1.2345678901234568e17]
    for values, has_exponent in ((fixed, False), (scientific, True)):
        values = values + [-v for v in values]
        texts = _percent_texts(values)
        assert all((b"e" in t) == has_exponent for t in texts), texts
        assert _kernel_texts(values) == texts


def test_kernel_carries_to_the_next_power_as_percent_does():
    # each float lies below its power of ten, and its 17 digits round up to it
    carries = {1e-305: b"1e-305", 1e-79: b"1e-79", 1e-14: b"1e-14", 1e98: b"1e+98",
               1e220: b"1e+220"}
    for value, text in carries.items():
        exponent = int(text[2:])
        assert Fraction(value) < Fraction(10) ** exponent
        assert _percent_texts([value, -value]) == [text, b"-" + text]
        assert _kernel_texts([value, -value]) == [text, b"-" + text]


def test_kernel_rounds_exact_ties_half_to_even():
    # 10**e + 2**(e - 17) has 18 significant digits, the last a 5: an exact tie
    ties = [10.0**e + 2.0 ** (e - 17) for e in range(16)]
    for value in ties:
        digits = Decimal(value).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, value
    assert b"%.17g" % 100000000000.015625 == b"100000000000.01562"
    values = ties + [-v for v in ties]
    assert _kernel_texts(values) == _percent_texts(values)


def _coarse_powers(tables):
    """tables whose powers of ten are off by 1e-15 of their value: wrong digits,
    from in-range indices."""
    return (tables[0] * (1 + np.longdouble(1e-15)), *tables[1:])


@pytest.fixture(params=["double", "coarse"])
def failed_self_check(request, monkeypatch):
    """Kernel tables that fail the self-check: built with s in double precision,
    as on a host whose long double has a 53-bit significand, or with coarse
    powers of ten."""
    build = _g17._build_tables
    bad = {"double": lambda: build(np.float64), "coarse": lambda: _coarse_powers(build())}
    monkeypatch.setattr(_g17, "_build_tables", bad[request.param])
    _g17._tables.cache_clear()
    yield
    _g17._tables.cache_clear()


def test_a_failed_self_check_sends_every_value_through_percent(tmp_path, monkeypatch,
                                                               failed_self_check):
    assert _g17._tables() is None

    def kernel(*args):
        raise AssertionError("the kernel ran after its self-check failed")

    monkeypatch.setattr(_g17, "_kernel", kernel)
    path = tmp_path / "table.csv"
    header = ["i", "x", "s"]
    write_table(path, header, [np.array(INTS), np.array(FLOATS), STRINGS])
    assert path.read_bytes() == _reference(header, zip(INTS, FLOATS, STRINGS))
    powers = np.array([f"1e{k}" for k in range(-323, 309)], dtype=float)
    assert _kernel_texts(powers) == _percent_texts(powers)


def test_importing_the_cli_builds_no_formatter_table():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import entroflux.cli\n"
            "from entroflux import _g17\n"
            "print(_g17._tables.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0"]

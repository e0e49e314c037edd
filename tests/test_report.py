import numpy as np
import pytest

import entroflux as ef
from entroflux import report
from entroflux.entropy import Series
from entroflux.report import SNAPSHOT_COLUMNS, TABLE_CHUNK_ROWS, write_snapshots, write_table


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

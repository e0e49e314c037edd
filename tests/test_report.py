import numpy as np

import entroflux as ef
from entroflux.entropy import Series
from entroflux.report import SNAPSHOT_COLUMNS, write_snapshots, write_table


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


def test_write_snapshots_matches_per_value_reference(tmp_path):
    grid = ef.Grid1D(-2.0, 2.0, 16)
    rng = np.random.default_rng(7)
    rows = []
    for i in range(3):
        rho = rng.random(grid.n) ** 3
        rho[:3] = (0.0, 1e-300, 1e-13)  # zero, tiny and floored densities
        current = rng.normal(size=grid.n)
        current[0] = -0.0
        rows.append((0.1 * i, rho, current, current / np.maximum(rho, 1e-12)))
    series = Series.of(grid, *map(np.array, zip(*rows)))
    write_snapshots(series, tmp_path)
    files = sorted(tmp_path.glob("snapshot_*.csv"))
    assert [f.name for f in files] == [f"snapshot_{i:06d}.csv" for i in range(3)]
    for i, f in enumerate(files):
        columns = (grid.x, series.rho[i], series.current[i], series.velocity[i],
                   series.rho_I[i])
        assert f.read_bytes() == _reference(SNAPSHOT_COLUMNS, zip(*columns))

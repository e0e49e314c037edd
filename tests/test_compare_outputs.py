import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CSV = b"t,x,label\n0,2.0,a\n1,-4.0,b\n"


def test_tolerance_compares_each_numeric_column(tool):
    # |x| reaches 4, so x may move by 4e-12; t by 1e-12
    near = b"t,x,label\n0,2.000000000003,a\n1,-4.0,b\n"
    assert tool.numeric_diff("s.csv", CSV, near, 1e-12) == [
        ("x", pytest.approx(3e-12, rel=1e-3), 4e-12)]
    far = b"t,x,label\n0,2.0,a\n1,-4.00000000005,b\n"
    (column, largest, allowed), = tool.numeric_diff("s.csv", CSV, far, 1e-12)
    assert column == "x" and largest > allowed
    (column, largest, _), = tool.numeric_diff("s.csv", CSV, CSV.replace(b"2.0", b"nan"), 1e-12)
    assert largest != largest


@pytest.mark.parametrize("path, a, b", [
    ("s.csv", CSV, CSV.replace(b",a", b",c")),
    ("s.csv", CSV, CSV.replace(b"label", b"name")),
    ("s.csv", CSV, CSV + b"2,1.0,c\n"),
    ("s.json", b'{"ok": true, "v": 1.0}', b'{"ok": false, "v": 1.0}'),
    ("s.json", b'{"v": 1.0}', b'{"w": 1.0}'),
])
def test_tolerance_rejects_non_numeric_changes(tool, path, a, b):
    with pytest.raises(ValueError):
        tool.numeric_diff(path, a, b, 1e-12)


def test_tolerance_reads_nested_json_keys(tool):
    a = b'{"checks": {"norm": 1.0}, "rows": [0.5, 2.0]}'
    b = b'{"checks": {"norm": 1.0}, "rows": [0.5, 2.0000000000001]}'
    (column, largest, allowed), = tool.numeric_diff("s.json", a, b, 1e-12)
    assert column == "rows[1]" and largest <= allowed

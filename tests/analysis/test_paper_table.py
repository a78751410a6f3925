"""The paper's printed numbers are written once, in repro.analysis.paper,
and its disk constants once, in repro.core.parameters."""

import ast
from pathlib import Path

import repro
from repro.analysis.paper import PRINTED, printed

SRC = Path(repro.__file__).resolve().parent
TABLE = SRC / "analysis" / "paper.py"


def _float_literals(path: Path) -> list[tuple[float, int]]:
    return [
        (node.value, node.lineno)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and type(node.value) is float
    ]


def test_printed_values_appear_as_literals_only_in_the_table():
    values = {value for value, _section in PRINTED.values()}
    strays = [
        f"{path.relative_to(SRC)}:{lineno}: {value}"
        for path in sorted(SRC.rglob("*.py")) if path != TABLE
        for value, lineno in _float_literals(path) if value in values
    ]
    assert strays == [], (
        "paper values written outside repro.analysis.paper; look them up "
        "with printed(key) instead:\n" + "\n".join(strays)
    )


def test_disk_constants_appear_as_literals_only_in_parameters():
    # T, R and the 1000-block run length in cylinders.  S (0.03) is left
    # out: the same literal is also a tolerance.
    constants = {2.05, 8.33, 15.625}
    home = SRC / "core" / "parameters.py"
    strays = [
        f"{path.relative_to(SRC)}:{lineno}: {value}"
        for path in sorted(SRC.rglob("*.py")) if path != home
        for value, lineno in _float_literals(path) if value in constants
    ]
    assert strays == [], (
        "disk constants written outside repro.core.parameters; read them "
        "from PAPER_DISK instead:\n" + "\n".join(strays)
    )


def test_each_row_writes_its_value_once_with_its_section():
    literals = [value for value, _lineno in _float_literals(TABLE)]
    assert sorted(literals) == sorted(value for value, _s in PRINTED.values())
    assert literals.count(10.25) == 2  # k=25 D=5 and k=50 D=10 share it
    for key, (value, section) in PRINTED.items():
        assert printed(key) == value and section.startswith("section 3."), key

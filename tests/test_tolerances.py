"""Every tolerance lives in ``tolerances.py``: no other module of the package writes one.

A tolerance is a small float literal.  Each ``src/walkpovm/*.py`` is parsed,
never imported, and any float constant with 0 < |v| <= 1e-6 outside
``tolerances.py`` fails the test, naming the file and line.  A literal
written as ``-1e-9`` is a minus applied to the constant ``1e-9``, so it is
caught too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "walkpovm"


def small_floats(path: Path) -> list:
    """(line, value) of every float constant in the file with 0 < |value| <= 1e-6."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) <= 1e-6]


def test_the_package_has_modules_and_a_tolerances_record():
    names = {p.name for p in PACKAGE.glob("*.py")}
    assert "tolerances.py" in names and len(names) > 1
    assert small_floats(PACKAGE / "tolerances.py")


def test_no_module_but_tolerances_writes_a_tolerance():
    found = {path.name: small_floats(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "tolerances.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}

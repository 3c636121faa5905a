"""Properties of the package source itself."""

import ast
from pathlib import Path

import finsite

PACKAGE = Path(finsite.__file__).parent


def test_package_has_no_assert_statements():
    """python -O strips asserts, so invariants must raise typed errors."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []

"""Every Python file of the repository parses with the grammar of the
oldest Python that ``pyproject.toml`` supports (``requires-python =
">=3.10"``), whichever interpreter runs the tests. This checks syntax
only: a standard-library name added after 3.10 is not caught here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_with_the_python_3_10_grammar():
    files = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}: {exc}")
    assert failures == []

"""Every Python file parses as the oldest Python that pyproject.toml admits."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)


def test_every_file_parses_as_the_oldest_supported_python():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    files = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        # Raises SyntaxError on newer syntax, such as except* (3.11) or PEP 695 generics (3.12).
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)

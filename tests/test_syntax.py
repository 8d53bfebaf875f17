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


def test_every_name_a_src_module_imports_is_read():
    # Catches an import that a deletion leaves behind. __init__.py re-exports
    # what it imports, and a __future__ import binds no name.
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported.items() if name not in read]
    assert unread == []

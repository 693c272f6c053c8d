"""Every name a library module imports is read in it: a stand-in for pyflakes' F401 check.

A name is exempt on a line marked ``# noqa: F401`` (kept for a caller that reaches it
through the module), and ``from __future__ import annotations`` binds no name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crystalcubes"


def unread_imports(source: str) -> list:
    """The names that source imports, outside `# noqa: F401` lines, and never reads."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.partition(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_library_modules_read_every_import():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    unread = {p.name: unread_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unread.items() if names} == {}

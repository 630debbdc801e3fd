"""Checks on the repository's own text: the README's library example runs as
written, and no package module imports a name it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# imported by cli.py only so that bench/tracer.py can wrap them under these names
_TRACER_ONLY = {"cli.py": {"grid_scores", "rank_answers", "simulate", "stability_report"}}


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1, "the Library section holds one python example"
    return blocks[0].split("```", 1)[0]


def test_readme_library_example_prints_what_its_comments_say():
    result = subprocess.run(
        [sys.executable, "-c", _library_example()],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "('a', 'b')\n('b', 'a')\n"


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used_in_its_module():
    unused = {}
    for path in sorted((SRC / "spotrank").glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(path.read_text(encoding="utf-8"))
            if names:
                unused[path.name] = names
    assert unused == _TRACER_ONLY


def test_unused_import_check_sees_each_kind_of_import():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from typing import Any, TextIO as T\nx: Any = os.sep\n")
    assert _unused_imports(source) == {"j", "T"}

"""The public names of flowpoly and their callers."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flowpoly"


def test_every_export_has_a_caller_outside_the_tests():
    # a name that only tests call is a test helper and lives in
    # tests/conftest.py; the library reads a name, the demos and the
    # benchmark (which binds names as strings) mention it
    init = SRC / "__init__.py"
    exported = [alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    outside = "\n".join(p.read_text() for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py")))
    assert "FlowCounter" in exported
    assert [name for name in exported
            if name not in read and not re.search(rf"\b{name}\b", outside)] == []

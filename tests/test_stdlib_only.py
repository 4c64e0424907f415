"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wittforge"


def test_imports_are_stdlib_or_relative():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "__future__" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert not foreign, foreign

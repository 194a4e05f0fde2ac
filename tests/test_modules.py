"""Every import of linadd sits at module level, so the import lines of each
module state the module graph."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linadd"


def test_imports_only_at_module_level():
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested |= {"%s:%d" % (path.name, n.lineno) for n in ast.walk(scope)
                           if isinstance(n, (ast.Import, ast.ImportFrom))}
    assert len(list(SRC.glob("*.py"))) > 10
    assert not nested, sorted(nested)

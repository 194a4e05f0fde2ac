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


def test_only_main_and_suite_catch_in_the_cli():
    # main is the one error boundary of a command; suite catches a library
    # error so that the next suite runs
    tree = ast.parse((SRC / "cli.py").read_text())
    catching = sorted(f.name for f in tree.body
                      if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")
                      and any(isinstance(n, ast.Try) for n in ast.walk(f)))
    assert catching == ["cmd_suite"]

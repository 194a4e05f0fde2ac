"""Every import of linadd sits at module level, so the import lines of each
module state the module graph."""

import ast
from pathlib import Path

from linadd.derivation import Derivation, Judgement
from linadd.terms import Abs, App, Bound, Copy, Pair, Proj, Term, Var
from linadd.typesys import Forall, Lolli, TBound, TVar, Type, With

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


# Every function of src/linadd on a call cycle, and what bounds its depth.
RECURSION_SURFACE = {
    # one re-entry, not depth: instantiate's leaf shifts a closed-over term
    "nameless.instantiate.leaf", "nameless.rewrite", "nameless.shift",
}


def _calls(fn):
    """The calls in fn's body, not in the functions or classes it defines."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Call):
            yield n.func
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo += ast.iter_child_nodes(n)


def test_recursion_surface_is_pinned():
    # A call resolves by name: a bare name to every function so named in its
    # module, nested ones included, or else to the linadd function it
    # imports; `<receiver>.m(...)` to every method m of the module, for any
    # receiver but `super()`.  Calls through arguments are not followed.
    defs, methods, calls, imports = {}, {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(), str(path))
        for n in tree.body:
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for a in n.names:
                    imports[mod, a.asname or a.name] = "%s.%s" % (n.module, a.name)
        scopes = [(tree, mod)]
        while scopes:
            scope, prefix = scopes.pop()
            for n in ast.iter_child_nodes(scope):
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    q = "%s.%s" % (prefix, n.name)
                    scopes.append((n, q))
                    if not isinstance(n, ast.ClassDef):
                        defs.setdefault((mod, n.name), []).append(q)
                        if isinstance(scope, ast.ClassDef):
                            methods.setdefault((mod, n.name), []).append(q)
                        calls[q] = list(_calls(n))

    def targets(q, f):
        mod = q.split(".")[0]
        if isinstance(f, ast.Name):
            if (mod, f.id) in defs:
                return defs[mod, f.id]
            return [imports[mod, f.id]] if (mod, f.id) in imports else []
        if isinstance(f, ast.Attribute) and not (
                isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "super"):
            return methods.get((mod, f.attr), [])
        return []

    graph = {q: {t for f in fs for t in targets(q, f) if t in calls}
             for q, fs in calls.items()}
    on_cycle = set()
    for q in graph:
        seen, todo = set(), list(graph[q])
        while todo and q not in seen:
            t = todo.pop()
            if t not in seen:
                seen.add(t)
                todo += graph[t]
        if q in seen:
            on_cycle.add(q)
    assert len(calls) > 200  # the scan found the package
    assert on_cycle == RECURSION_SURFACE


# The one slot of a node that a query fills after it is built: the class of
# a cut for cut elimination (`steps.cut_class`).
FILLED_BY_A_QUERY = {"_cut"}


def _subclasses(cls):
    out, todo = set(), [cls]
    while todo:
        for c in todo.pop().__subclasses__():
            out.add(c)
            todo.append(c)
    return out


def test_every_summary_slot_is_set_when_a_node_is_built():
    # every private slot of a node is a summary stored by its constructor,
    # so none can be left for a lazy walk to fill unseen
    x, a = Var("x"), TVar("a")
    ax = Derivation("ax", Judgement((("x", a),), x, a), (), ("x", a))
    built = [
        x, Bound(0), Abs("x", x), App(x, x), Pair(x, x), Proj(1, x),
        Copy(x, x, "l", "r", Var("l"), Var("r")),
        a, TBound(0), Lolli(a, a), With(a, a), Forall("a", a),
        ax, Derivation("cut", ax.conclusion, (ax, ax), ("x",)),
    ]
    assert {type(n) for n in built} == _subclasses(Term) | _subclasses(Type) | {Derivation}
    for n in built:
        slots = {s for c in type(n).__mro__ for s in getattr(c, "__slots__", ())
                 if s.startswith("_") and s != "__weakref__"}
        assert slots
        unset = sorted(s for s in slots - FILLED_BY_A_QUERY if not hasattr(n, s))
        assert not unset, (type(n).__name__, unset)


def _module_level(tree):
    """The nodes of a module outside its functions and lambdas."""
    todo = list(tree.body)
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(n)


def test_no_module_level_counter():
    # a name is chosen from the names in scope, so no module keeps a counter
    # that one call would advance for the next
    counters = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        as_count = {"itertools.count"} | {
            a.asname or a.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.module == "itertools"
            for a in n.names if a.name == "count"}
        counters += ["%s:%d" % (path.name, n.lineno) for n in _module_level(tree)
                     if isinstance(n, (ast.Assign, ast.AnnAssign))
                     for c in ast.walk(n) if isinstance(c, ast.Call)
                     and ast.unparse(c.func) in as_count]
    assert not counters, counters

"""Pinned verdicts of `check` on mutated corpus derivations.

A fixed-seed set of mutants of the seed-0 corpus: at one node, the rule is
swapped, the last premise dropped, the goal swapped for another node's, or
one context entry dropped.  Unchanged copies ("copy") are drawn the same way
and must still be accepted.  Every node on the path from the root to the
mutated one is rebuilt with `Derivation` and keeps its parameters; a node
whose rule was swapped carries none.  For each mutant the golden file holds
the set of violation paths (empty when `check` accepts it).  It was recorded
from the handler-per-rule checker; regenerate it with
`python tests/test_check_mutants.py` only when a verdict is meant to change,
or when the draw does.  The draw depends on the names that the corpus
generates: a goal swap skips a goal `==` the node's own, and eigenvariable
names inside goals decide that, so a change in how fresh names are chosen
redraws the mutants after the first goal swap that it affects.

A second, multi-mutation set applies two to four mutations to two copies of
each corpus derivation, parameter mutations among them, and asserts only that `check`
returns Violations in every system and never raises.

A differential test compares each corpus derivation and each multi-mutant
with its raw copy, in which no node is derived, so `check` rebuilds every
node: the violations in every system and the printed text must not differ.
Another compares the answers of `derivations_equal` with a reference that
compares every conclusion, and a third the violations of `check` with those
of a reference that counts the uses of assumptions at every lam node.
"""

import dataclasses
import json
import random
from pathlib import Path

from linadd import derivation
from linadd.derivation import (
    IMALL2, IMLL2, LAM, RULES, Derivation, Judgement, Violation,
    check, d_ax, d_forallL, d_forallR, d_lolliR, d_withR, d_withR0,
)
from linadd.frontend import (
    derivations_equal, parse_derivation, parse_type, print_derivation,
)
from linadd.terms import Pair, Var
from linadd.typesys import TVar

GOLDEN = Path(__file__).with_name("data") / "check_mutants.json"
SEED = 0
PER_KIND = 240
KINDS = ("copy", "rule", "drop_premise", "goal", "drop_context")


def _paths(d, path=()):
    """Tree paths of every node of d, pre-order."""
    out, todo = [], [(d, path)]
    while todo:
        d, path = todo.pop()
        out.append(path)
        todo.extend((p, path + (i,)) for i, p in reversed(list(enumerate(d.premises))))
    return out


def _node(d, path):
    for i in path:
        d = d.premises[i]
    return d


def _replace(d, path, new):
    if not path:
        return new
    prems = list(d.premises)
    prems[path[0]] = _replace(prems[path[0]], path[1:], new)
    return Derivation(d.rule, d.conclusion, tuple(prems), d.params)


def _mutate(rng, kind, n, goals):
    """The mutated copy of node n and a note on what changed, or None."""
    j = n.conclusion
    if kind == "copy":
        return Derivation(n.rule, j, n.premises, n.params), None
    if kind == "rule":
        rule = rng.choice([r for r in RULES if r != n.rule])
        return Derivation(rule, j, n.premises), rule
    if kind == "drop_premise":
        if not n.premises:
            return None
        return Derivation(n.rule, j, n.premises[:-1], n.params), None
    if kind == "goal":
        goal = rng.choice(goals)
        if goal == j.goal:
            return None
        return Derivation(n.rule, Judgement(j.context, j.subject, goal),
                          n.premises, n.params), None
    if not j.context:
        return None
    k = rng.randrange(len(j.context))
    ctx = j.context[:k] + j.context[k + 1:]
    return Derivation(n.rule, Judgement(ctx, j.subject, j.goal), n.premises, n.params), k


def mutants(corpus):
    """(entry name, system, path, kind, note, mutated derivation), in a fixed
    order drawn from a fixed seed."""
    rng = random.Random(SEED)
    nodes = {e.name: _paths(e.derivation) for e in corpus}
    goals = [_node(e.derivation, p).conclusion.goal
             for e in corpus for p in nodes[e.name][:20]]
    out = []
    for kind in KINDS:
        made = 0
        while made < PER_KIND:
            e = rng.choice(corpus)
            path = rng.choice(nodes[e.name])
            m = _mutate(rng, kind, _node(e.derivation, path), goals)
            if m is None:
                continue
            new, note = m
            out.append((e.name, e.system, path, kind, note,
                        _replace(e.derivation, path, new)))
            made += 1
    return out


def verdicts(corpus):
    out = []
    for name, system, path, kind, note, d in mutants(corpus):
        out.append({"entry": name, "path": list(path), "kind": kind, "note": note,
                    "violations": sorted({v.path for v in check(d, system)})})
    return out


def _jsonable(rows):
    return json.loads(json.dumps(rows))


def test_check_verdicts_on_mutants_are_pinned(corpus):
    want = json.loads(GOLDEN.read_text())
    got = _jsonable(verdicts(corpus))  # check never raises on a mutant
    assert len(got) == len(want) == PER_KIND * len(KINDS)
    diff = [(w, g["violations"]) for w, g in zip(want, got) if w != g]
    assert not diff, "%d verdicts changed, first: %r" % (len(diff), diff[0])
    rejected = sum(bool(w["violations"]) for w in want)
    assert 0 < rejected < len(want)


def _same_params(d, back):
    """Whether the two trees store the same parameters, node for node."""
    todo = [(d, back)]
    while todo:
        d, back = todo.pop()
        if d.params != back.params:
            return False
        todo.extend(zip(d.premises, back.premises))
    return True


def _round_trips(m, systems, where):
    text = print_derivation(m)
    back = parse_derivation(text)
    assert derivations_equal(m, back) and _same_params(m, back), where
    for system in systems:
        assert check(back, system) == check(m, system), (where, system)
    assert print_derivation(back) == text, where


def test_mutants_round_trip_through_files(corpus):
    # the writer states every judgement that its rule cannot recompute, so
    # a file holds the mutant, mistakes and all
    for name, system, path, kind, _, m in mutants(corpus):
        _round_trips(m, (system,), (name, path, kind))


# -- multi-mutation fuzzing -----------------------------------------------------

FUZZ_SEED = 1


def _mutate_params(rng, n, goals):
    """n with one parameter dropped, added or replaced by a name or a type."""
    params = list(n.params)
    new = rng.choice(["z", "x", "g"] + [x for x, _ in n.conclusion.context]
                     + [rng.choice(goals), TVar("a")])
    how = rng.choice(("drop", "add", "replace") if params else ("add",))
    k = rng.randrange(len(params) + (how == "add"))
    if how == "drop":
        del params[k]
    elif how == "add":
        params.insert(k, new)
    else:
        params[k] = new
    return Derivation(n.rule, n.conclusion, n.premises, tuple(params))


def _mutate_more(rng, n, goals):
    """n after one mutation of any kind; a swapped rule keeps n's parameters."""
    kind = rng.choice(KINDS[1:] + ("params",))
    if kind == "params":
        return _mutate_params(rng, n, goals)
    if kind == "rule":
        rule = rng.choice([r for r in RULES if r != n.rule])
        return Derivation(rule, n.conclusion, n.premises, n.params)
    m = _mutate(rng, kind, n, goals)
    return n if m is None else m[0]


def multi_mutants(corpus):
    """(entry name, derivation after two to four mutations) for two copies
    of each corpus entry, drawn from a fixed seed."""
    rng = random.Random(FUZZ_SEED)
    goals = [e.derivation.conclusion.goal for e in corpus]
    out = []
    for e in corpus + corpus:
        d = e.derivation
        for _ in range(rng.randint(2, 4)):
            path = rng.choice(_paths(d))
            d = _replace(d, path, _mutate_more(rng, _node(d, path), goals))
        out.append((e.name, d))
    return out


def test_multi_mutants_round_trip_through_files(corpus):
    # a node with parameters of the wrong number or kind states its
    # judgement, and the reader stores each argument of such a node by its
    # form, so every mutant reads back; a node the mutant shares, such as
    # the withL1 node of both copies of random-tensor-132 that imll2 lacks,
    # is written once and read back once, so check reports it once
    stored = 0
    for name, m in multi_mutants(corpus):
        stored += 1
        _round_trips(m, (LAM, IMALL2, IMLL2), name)
    assert stored == 430


# -- differential test of derived nodes -----------------------------------------
#
# A node built by its rule's constructor is derived, and `check` and the
# writer do not rebuild it.  A raw copy rebuilds every node with
# `Derivation(...)`, so none of its nodes is derived and every one is
# rebuilt: both must give the same violations and the same text.

def raw_copy(d):
    """d rebuilt bottom-up with `Derivation`, sharing kept, no node derived."""
    done: dict = {}  # id(node) -> its copy
    stack = [d]
    while stack:
        n = stack.pop()
        if id(n) in done:
            continue
        todo = [p for p in n.premises if id(p) not in done]
        if todo:
            stack.append(n)
            stack += todo
        else:
            done[id(n)] = Derivation(n.rule, n.conclusion,
                                     tuple(done[id(p)] for p in n.premises), n.params)
    return done[id(d)]


def _derived_nodes(d):
    """How many distinct nodes of d are derived."""
    seen, todo, derived = set(), [d], 0
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            todo += n.premises
            derived += n._derived
    return derived


def _same_as_raw(name, d):
    raw = raw_copy(d)
    assert _derived_nodes(raw) == 0, name
    for system in (LAM, IMALL2, IMLL2):
        vs = check(d, system)  # never raises
        assert isinstance(vs, list), name
        assert all(isinstance(v, Violation) for v in vs), name
        assert vs == check(raw, system), (name, system)
    assert print_derivation(d) == print_derivation(raw), name


def test_derived_and_raw_corpus_entries_agree(corpus):
    assert sum(_derived_nodes(e.derivation) for e in corpus) > 0
    for e in corpus:
        _same_as_raw(e.name, e.derivation)


def test_check_is_total_on_multiple_mutations(corpus):
    for name, d in multi_mutants(corpus):
        _same_as_raw(name, d)


# -- differential test of the linearity count -----------------------------------
#
# In lam, `check` counts the uses of a node's assumptions only where a
# violation at or above the node may have made it non-linear
# (`derivation._may_be_nonlinear`; the argument is in the module docstring).
# The reference counts them at every node.

def test_linearity_is_counted_only_where_it_can_fail(corpus, monkeypatch):
    cases = [(system, d) for _, system, _, _, _, d in mutants(corpus)]
    cases += [(system, d) for _, d in multi_mutants(corpus)
              for system in (LAM, IMALL2, IMLL2)]
    counts = []
    real = derivation._linearity
    monkeypatch.setattr(derivation, "_linearity",
                        lambda j: counts.append(j) or real(j))
    got = [check(d, system) for system, d in cases]
    skipping = len(counts)
    monkeypatch.setattr(derivation, "_may_be_nonlinear", lambda d, found, dirty: True)
    want = [check(d, system) for system, d in cases]
    assert got == want
    assert any(v.condition == "linearity" for vs in want for v in vs)
    # every ancestor of a mutated node is counted, and little else
    assert 0 < skipping < (len(counts) - skipping) / 4


def test_each_use_of_a_shared_bad_premise_counts_linearity(monkeypatch):
    # b uses x twice in its subject: it states so, or it is a withR, which
    # lam lacks, so `check` leaves it before its own checks.  The second
    # forallL over b reaches it again and skips it, and must still count
    # its own uses of x.
    c, quant = TVar("c"), parse_type("forall a. a")
    stated = Derivation("ax", Judgement((("x", c),), Pair(Var("x"), Var("x")), c),
                        (), ("x", c))
    for b, first in ((stated, [((0, 0, 0), "ax"), ((0, 0, 0), "linearity")]),
                     (d_withR(d_ax("x", c), d_ax("x", c)), [((0, 0, 0), "system")])):
        d = d_withR0(d_lolliR(d_forallL(b, "x", quant), "x"),
                     d_lolliR(d_forallL(b, "x", quant), "x"))
        got = check(d)
        assert [(v.path, v.condition) for v in got] == first + [
            ((0, 0), "linearity"), ((1, 0), "linearity"), ((), "laziness")]
        with monkeypatch.context() as m:
            asked = []
            m.setattr(derivation, "_may_be_nonlinear",
                      lambda d, found, dirty: asked.append(d) or True)
            assert check(d) == got
            assert asked


def test_only_constructors_derive():
    d = d_ax("x", parse_type("forall a. a -o a"))
    assert d._derived
    assert not Derivation(d.rule, d.conclusion, d.premises, d.params)._derived
    wrong = Judgement(d.conclusion.context, d.conclusion.subject, TVar("a"))
    swapped = dataclasses.replace(d, conclusion=wrong)
    assert not swapped._derived
    assert [v.message for v in check(swapped)] == [
        "the rule concludes a different goal"]
    # a parsed node that states its judgement is not derived; one that
    # does not is
    parsed = parse_derivation('(lamd 2 (rule ax x "a" (seq ((x "a")) "x" "a")))')
    assert not parsed._derived
    assert parse_derivation('(lamd 2 (rule lolliR x (seq () "\\x. x" "a -o a")'
                            ' (rule ax x "a")))').premises[0]._derived


# -- differential test of `derivations_equal` -------------------------------------
#
# `derivations_equal` does not compare the conclusions of two derived nodes
# with equal parameters.  The reference compares every conclusion.

def _derivations_equal_reference(d1, d2):
    stack = [(d1, d2)]
    while stack:
        d1, d2 = stack.pop()
        j1, j2 = d1.conclusion, d2.conclusion
        if not (d1.rule == d2.rule and j1.context == j2.context
                and j1.subject == j2.subject and j1.goal == j2.goal
                and len(d1.premises) == len(d2.premises)):
            return False
        stack.extend(zip(d1.premises, d2.premises))
    return True


def _same_answer(d1, d2):
    want = _derivations_equal_reference(d1, d2)
    assert derivations_equal(d1, d2) == want
    return want


def test_derivations_equal_agrees_with_reference(corpus):
    for e in corpus:
        d = e.derivation
        assert _same_answer(d, parse_derivation(print_derivation(d))), e.name
        assert _same_answer(d, raw_copy(d)), e.name
        assert _same_answer(raw_copy(d), d), e.name
    entries = {e.name: e.derivation for e in corpus}
    answers = {_same_answer(entries[name], m) for name, m in multi_mutants(corpus)}
    assert answers == {False, True}


def test_derivations_equal_compares_what_is_not_derived():
    d = d_ax("x", parse_type("forall a. a -o a"))
    j = d.conclusion
    swapped = Derivation(d.rule, Judgement(j.context, j.subject, TVar("a")),
                         d.premises, d.params)
    assert not _same_answer(d, swapped) and not _same_answer(swapped, d)
    # derived nodes with unequal parameters are compared
    assert not _same_answer(d, d_ax("y", parse_type("forall a. a -o a")))
    # two derived forallR nodes that differ only in the hint of the binder
    # have unequal parameters, so their equal conclusions are compared
    body = d_lolliR(d_ax("x", TVar("g")), "x")
    a, b = d_forallR(body, "g", "a"), d_forallR(body, "g", "b")
    assert a._derived and b._derived and a.params != b.params
    assert _same_answer(a, b)


def test_derivations_equal_visits_each_node_pair_once(monkeypatch):
    # the translated ladd(B,3) shares its gadgets, and its raw copy keeps
    # that sharing: walked as two trees it takes 16,194 node pairs
    from linadd.derivation import dag_size
    from linadd.families import gen_ladd
    from linadd.translate import GadgetLibrary, translate_derivation
    from linadd.typesys import bool_type
    d = translate_derivation(gen_ladd(3, bool_type())[1], GadgetLibrary())
    raw = raw_copy(d)
    reads = []
    real_rule = Derivation.__dict__["rule"]
    monkeypatch.setattr(Derivation, "rule", property(
        lambda node: reads.append(1) or real_rule.__get__(node, Derivation),
        lambda node, v: real_rule.__set__(node, v)))
    assert derivations_equal(d, raw)
    visits = len(reads) // 2  # each visited pair reads its two rules once
    monkeypatch.undo()
    assert 0 < visits <= dag_size(d) == 1133


def test_derived_node_with_wrong_kinded_parameter_is_reported():
    d = d_ax("x", "a")  # a name where the type belongs
    assert d._derived
    assert [(v.path, v.condition, v.message) for v in check(d)] == [
        ((), "params", "parameter 2 is not a type")]
    # with a well-formed judgement, the writer states it, so the reader
    # takes "a" as a name
    good = d_ax("x", TVar("a"))
    d = Derivation("ax", good.conclusion, (), ("x", "a"))
    text = print_derivation(d)
    assert text == '(lamd 2 (rule ax x a (seq ((x "a")) "x" "a")))'
    back = parse_derivation(text)
    assert back.params == ("x", "a") and check(back) == check(d)
    assert [v.message for v in check(back)] == ["parameter 2 is not a type"]


if __name__ == "__main__":
    from linadd.corpus import build_corpus
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = verdicts(build_corpus(seed=0))
    GOLDEN.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in rows))
    print("%d mutants, %d rejected" % (len(rows), sum(bool(r["violations"]) for r in rows)))

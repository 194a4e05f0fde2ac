"""Pinned verdicts of `check` on mutated corpus derivations.

A fixed-seed set of mutants of the seed-0 corpus: at one node, the rule is
swapped, the last premise dropped, the goal swapped for another node's, or
one context entry dropped.  Unchanged copies ("copy") are drawn the same way
and must still be accepted.  Every node on the path from the root to the
mutated one is rebuilt with the three-argument `Derivation`, as a parser
builds it.  For each mutant the golden file holds the set of violation paths
(empty when `check` accepts it).  It was recorded from the handler-per-rule
checker; regenerate it with `python tests/test_check_mutants.py` only when a
verdict is meant to change.
"""

import json
import random
from pathlib import Path

from linadd.derivation import RULES, Derivation, Judgement, check
from linadd.frontend import derivations_equal, parse_derivation, print_derivation

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
    return Derivation(d.rule, d.conclusion, tuple(prems))


def _mutate(rng, kind, n, goals):
    """The mutated copy of node n and a note on what changed, or None."""
    j = n.conclusion
    if kind == "copy":
        return Derivation(n.rule, j, n.premises), None
    if kind == "rule":
        rule = rng.choice([r for r in RULES if r != n.rule])
        return Derivation(rule, j, n.premises), rule
    if kind == "drop_premise":
        if not n.premises:
            return None
        return Derivation(n.rule, j, n.premises[:-1]), None
    if kind == "goal":
        goal = rng.choice(goals)
        if goal == j.goal:
            return None
        return Derivation(n.rule, Judgement(j.context, j.subject, goal), n.premises), None
    if not j.context:
        return None
    k = rng.randrange(len(j.context))
    ctx = j.context[:k] + j.context[k + 1:]
    return Derivation(n.rule, Judgement(ctx, j.subject, j.goal), n.premises), k


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


def test_mutants_round_trip_through_files(corpus):
    # the writer states every judgement that its rule cannot recompute, so
    # a file holds the mutant, mistakes and all
    for name, system, path, kind, _, m in mutants(corpus):
        text = print_derivation(m)
        back = parse_derivation(text)
        where = (name, path, kind)
        assert derivations_equal(m, back), where
        assert check(back, system) == check(m, system), where
        assert print_derivation(back) == text, where


if __name__ == "__main__":
    from linadd.corpus import build_corpus
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = verdicts(build_corpus(seed=0))
    GOLDEN.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in rows))
    print("%d mutants, %d rejected" % (len(rows), sum(bool(r["violations"]) for r in rows)))

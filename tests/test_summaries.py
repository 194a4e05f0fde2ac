"""Every summary that a term, type or derivation node stores when it is
built equals what a reference walk of the whole tree computes.  The walks
here are the oracles: they read no stored summary, prune nothing and keep
their own stacks."""

import pytest

from linadd.corpus import build_corpus, quadratic_family
from linadd.cutelim import eliminate
from linadd.derivation import (
    Derivation, Judgement, d_ax, d_cut, is_cut_free, is_eta_expanded, metrics,
    premises,
)
from linadd.families import gen_add, gen_applied, gen_ladd
from linadd.inhabit import maximal_value
from linadd.nameless import fold
from linadd.reduce import find_redexes, normalize, push_reduction, redex_free
from linadd.steps import COMMUTING, READY, SYMMETRIC, classify_cut, classify_cuts
from linadd.terms import Abs, App, Bound, Copy, Pair, Proj, Var, is_value
from linadd.typesys import (
    FORALL_NEG, FORALL_POS, WITH_NEG, WITH_POS, Forall, Lolli, TBound, TVar, With,
    bool_type, polarity_occurrences, unit_type,
)

ONE, B = unit_type(), bool_type()


def _distinct(root, kids=lambda n: n.children()):
    """Every distinct node of the tree or DAG root, once each."""
    seen, todo = set(), [root]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            todo += kids(n)
            yield n


def _nodes(seed):
    """The distinct derivation nodes of corpus seed `seed`, and the distinct
    term and type nodes of their conclusions and of the leftmost reduction
    sequence of every root subject."""
    derivs, terms, types = {}, {}, {}
    for e in build_corpus(seed=seed):
        derivs.update((id(d), d) for d in _distinct(e.derivation, premises))
        subject = e.derivation.conclusion.subject
        for _, t in normalize(subject, keep_trace=True).trace:
            terms.update((id(n), n) for n in _distinct(t))
    for d in derivs.values():
        j = d.conclusion
        terms.update((id(n), n) for n in _distinct(j.subject))
        for a in (j.goal, *(a for _, a in j.context)):
            types.update((id(n), n) for n in _distinct(a))
    return list(derivs.values()), list(terms.values()), list(types.values())


@pytest.fixture(scope="module", params=[0, 1], ids=["seed0", "seed1"])
def nodes(request):
    return _nodes(request.param)


# -- the oracles ----------------------------------------------------------------

def _walk(t):
    """(node, binders above it) for every occurrence in t, as a tree."""
    stack = [(t, 0)]
    while stack:
        n, depth = stack.pop()
        yield n, depth
        stack += [(c, depth + b) for c, b in zip(n.children(), n.binds)]


def _ref_is_value(t) -> bool:
    for n, depth in _walk(t):
        if isinstance(n, (Var, Proj, Copy)):
            return False
        if isinstance(n, Bound) and n.index >= depth:
            return False
        if isinstance(n, App) and isinstance(n.fun, Abs):
            return False
    return True


def _ref_is_redex(n) -> bool:
    return ((isinstance(n, App) and isinstance(n.fun, Abs))
            or (isinstance(n, Proj) and isinstance(n.body, Pair))
            or (isinstance(n, Copy) and _ref_is_value(n.scrutinee)))


def _ref_polarity(a) -> int:
    bits = 0
    for connective, pos, neg in (("forall", FORALL_POS, FORALL_NEG),
                                 ("with", WITH_POS, WITH_NEG)):
        for _, pol in polarity_occurrences(a, connective):
            bits |= pos if pol == "+" else neg
    return bits


def _ref_stats(d) -> tuple:
    """(size, weight, height, summed cut heights, cuts), folded over the
    premises as trees."""
    def here(n, kids):
        size = 1 + sum(k[0] for k in kids)
        weight = (n.rule == "withR1") + sum(k[1] for k in kids)
        height = 1 + max((k[2] for k in kids), default=0)
        cut = n.rule == "cut"
        return (size, weight, height,
                sum(k[3] for k in kids) + (height - 1 if cut else 0),
                sum(k[4] for k in kids) + cut)
    return fold(d, premises, here, {})


def _ref_eta(d) -> bool:
    """Cut-free with every axiom at an atomic type, over every distinct
    node of d."""
    return all(n.rule != "cut" and (n.rule != "ax" or isinstance(n.conclusion.goal, TVar))
               for n in _distinct(d, premises))


def _built_apart(t):
    """A copy of the term or type t that shares no node with it, each binder
    with another print hint."""
    def here(n, kids):
        if n.free_var:
            return type(n)(n.name)
        if n.bound_var:
            return type(n)(n.index)
        if isinstance(n, (Abs, Forall)):
            return type(n)(n.var + "_apart", kids[0], True)
        if isinstance(n, Copy):
            return Copy(*kids[:2], n.left_var + "_l", n.right_var + "_r", *kids[2:], True)
        return n.with_children(kids)
    return fold(t, lambda n: n.children(), here, {})


# -- the stored summaries against the oracles -----------------------------------

def test_term_summaries_match_the_reference_walks(nodes):
    _, terms, _ = nodes
    assert len(terms) > 1000
    kinds = set()
    for t in terms:
        kinds.add(type(t))
        no_redex = not any(_ref_is_redex(n) for n, _ in _walk(t))
        assert redex_free(t) == no_redex == (find_redexes(t) == []), t
        assert is_value(t) == _ref_is_value(t), t
    assert kinds == {Var, Bound, Abs, App, Pair, Proj, Copy}


def test_type_polarities_match_the_occurrence_walk(nodes):
    _, _, types = nodes
    assert {type(a) for a in types} == {TVar, TBound, Lolli, With, Forall}
    for a in types:
        assert a._pol == _ref_polarity(a), a


def test_derivation_stats_match_a_fold_over_premises(nodes):
    derivs, _, _ = nodes
    assert {d.rule for d in derivs} >= {"ax", "cut", "lolliR", "lolliL", "withR1"}
    for d in derivs:
        stats = _ref_stats(d)
        assert d._stats == stats
        m = metrics(d)
        assert (m.size, m.weight, m.max_height + 1, m.height_sum) == stats[:4]
        assert is_cut_free(d) == (stats[4] == 0)


def test_stored_eta_expansion_matches_the_node_walk(nodes):
    # derived nodes, and their copies stated with `Derivation(...)`
    derivs, _, _ = nodes
    done: dict = {}
    stated = [_raw(d, done) for d in derivs]
    seen = set()
    for d in derivs + stated:
        want = _ref_eta(d)
        assert d._eta == is_eta_expanded(d) == want, d.rule
        seen.add((d._derived, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_equal_nodes_built_apart_hash_alike(nodes):
    _, terms, types = nodes
    for t in terms + types:
        u = _built_apart(t)
        assert u is not t and u == t
        assert hash(u) == hash(t)


# -- the stored cut classes and least cuts against classify_cuts ---------------

_RANK = {COMMUTING: 0, SYMMETRIC: 1, READY: 2}


def _ref_least(d):
    """The key of the cut of d that the round strategy picks first, over
    the list of `classify_cuts`, each class recomputed by `classify_cut`:
    (rank, minus its depth or 0 for a symmetric cut, its path)."""
    best = None
    for path, kind in classify_cuts(d):
        n = d
        for i in path:
            n = n.premises[i]
        assert kind == classify_cut(n)
        r = _RANK.get(kind)
        if r is not None:
            key = (r, 0 if r == 1 else -len(path), path)
            best = key if best is None or key < best else best
    return best


def _assert_least(roots):
    nodes = {}
    for d in roots:
        nodes.update((id(n), n) for n in _distinct(d, premises))
    for n in nodes.values():
        assert n._cut == (classify_cut(n) if n.rule == "cut" else None), n.rule
        want = _ref_least(n)
        if want is None:
            assert n._least is None
            continue
        r, depth, path = want
        assert n._least == (r, depth, path[0] if path else -1)
        got, m = [], n
        while m._least[2] >= 0:
            got.append(m._least[2])
            m = m.premises[m._least[2]]
        assert tuple(got) == path
    return len(nodes)


def _raw(d, done=None):
    """d rebuilt with `Derivation(...)`, so that no node of it is derived;
    `done` (id -> copy) may be shared between calls."""
    return fold(d, premises, lambda n, ps: Derivation(n.rule, n.conclusion, tuple(ps),
                                                       n.params), {} if done is None else done)


def test_stored_least_cuts_of_corpus_and_family_members():
    roots = []
    for seed in (0, 1, 2):
        for e in build_corpus(seed):
            roots += [e.derivation, _raw(e.derivation)]
    for n in range(9):
        for base in (ONE, B):
            _, add = gen_add(n, base)
            _, ladd = gen_ladd(n, base)
            v = maximal_value(base)[1]
            roots += [gen_applied(add, v), gen_applied(ladd, v)]
    roots += [quadratic_family(n) for n in range(1, 17)]
    assert _assert_least(roots) > 1000


def test_stored_least_cuts_along_elimination_and_reduction():
    corpus = build_corpus(0)
    roots = []
    for e in corpus:
        if "forall-lazy" in e.tags:
            roots += eliminate(e.derivation, keep_derivations=True)[1].snapshots
        if e.system == "lam":
            roots += [push_reduction(e.derivation, r)
                      for r in find_redexes(e.derivation.conclusion.subject)]
    assert _assert_least(roots) > 1000


def test_a_cut_of_any_shape_is_built():
    # a cut node that no step could read gets no class and no key of its
    # own; building it never raises
    x, a = Var("x"), TVar("a")
    j = Judgement((("x", a),), x, a)
    ax = d_ax("x", a)
    unstated = Derivation("lolliL", j, (ax, ax))  # no parameters stored
    unknown = Derivation("foo", j, (), ())
    for premises_, params in (((), ("x",)), ((ax,), ("x",)), ((ax, ax, ax), ("x",)),
                              ((ax, ax), (a,)), ((ax, ax), ()), ((ax, ax), ("x", "y")),
                              ((unstated, unstated), ("x",)), ((ax, unstated), ("x",)),
                              ((unknown, ax), ("x",))):
        d = Derivation("cut", j, premises_, params)
        assert d._cut is None
        assert d._least is None or d._least[2] >= 0
    under = Derivation("cut", j, (ax, d_cut(ax, ax, "x")), ("y", "z"))
    assert under._cut is None and under._least == (1, 0, 1)
    assert Derivation("cut", j, (ax, ax), ("x",))._cut == SYMMETRIC

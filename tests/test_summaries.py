"""Every summary that a term, type or derivation node stores when it is
built equals what a reference walk of the whole tree computes.  The walks
here are the oracles: they read no stored summary, prune nothing and keep
their own stacks."""

import pytest

from linadd.corpus import build_corpus
from linadd.derivation import is_cut_free, metrics, premises
from linadd.nameless import fold
from linadd.reduce import find_redexes, normalize, redex_free
from linadd.terms import Abs, App, Bound, Copy, Pair, Proj, Var, is_value
from linadd.typesys import (
    FORALL_NEG, FORALL_POS, WITH_NEG, WITH_POS, Forall, Lolli, TBound, TVar, With,
    polarity_occurrences,
)


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


def test_equal_nodes_built_apart_hash_alike(nodes):
    _, terms, types = nodes
    for t in terms + types:
        u = _built_apart(t)
        assert u is not t and u == t
        assert hash(u) == hash(t)

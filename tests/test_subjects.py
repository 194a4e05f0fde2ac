"""A derivation's subject is a view: a constructor stores its rule's formula
and the subject's free names, and the first read of `.subject` computes it.

The oracle `_ref_subject` recomputes every node's subject eagerly, bottom-up,
with the expressions the constructors evaluated when they built subjects at
once.  Each derivation tested is read at its root first, so the view forces
every node below it on its own stack; then every node's subject must equal
the oracle's, and the free names that the node stored before any subject
was read must be the subject's.
"""

from linadd.corpus import build_corpus, quadratic_family
from linadd.cutelim import eliminate
from linadd.derivation import (
    CONSTRUCTORS, Derivation, _nodes, check, d_ax, d_cut, d_lolliR, premises,
)
from linadd.families import gen_add, gen_applied, gen_ladd
from linadd.inhabit import maximal_value
from linadd.nameless import fold
from linadd.reduce import find_redexes, normalize, push_reduction
from linadd.terms import Abs, App, Copy, Pair, Proj, Var, free_vars, subst
from linadd.typesys import TVar, bool_type, unit_type

ONE, B = unit_type(), bool_type()


def _ref_subject(n, subjects):
    """n's subject from its premises' `subjects`, as its constructor once
    computed it; a node that is not derived states its own."""
    if not n._derived:
        return n.conclusion.subject
    rule, params = n.rule, n.params
    if rule == "ax":
        return Var(params[0])
    if rule == "cut":
        return subst(subjects[1], params[0], subjects[0])
    if rule == "lolliR":
        return Abs(params[0], subjects[0])
    if rule == "lolliL":
        y, x = params
        return subst(subjects[1], x, App(Var(y), subjects[0]))
    if rule in ("withR", "withR0"):
        return Pair(*subjects)
    if rule == "withR1":
        (x1, _), = n.premises[0].conclusion.context
        (x2, _), = n.premises[1].conclusion.context
        return Copy(subjects[2], Var(params[0]), x1, x2, subjects[0], subjects[1])
    if rule in ("withL1", "withL2"):
        y, x, _ = params
        return subst(subjects[0], x, Proj(int(rule[-1]), Var(y)))
    return subjects[0]  # forallR, forallL


def _assert_views(roots):
    """Every node of `roots` concludes the oracle's subject, and stored the
    names that subject has.  The roots are read first, in order."""
    nodes = {id(n): n for d in roots for n in _nodes(d)}
    names = {k: n.conclusion.subject_names for k, n in nodes.items()}
    want: dict = {}
    for d in roots:
        fold(d, premises, _ref_subject, want)
    for d in roots:
        d.conclusion.subject
    for k, n in nodes.items():
        got = n.conclusion.subject
        assert got == want[k], n.rule
        assert names[k] == free_vars(got), n.rule


def _unread_copy(d):
    """d rebuilt by its constructors, so that no subject of it is read yet;
    a node that is not derived keeps its judgement."""
    def copy(n, ps):
        if n._derived:
            return CONSTRUCTORS[n.rule](*ps, *n.params)
        return Derivation(n.rule, n.conclusion, tuple(ps), n.params)

    return fold(d, premises, copy, {})


def test_views_of_corpus_entries():
    for seed in (0, 1, 2):
        roots = [e.derivation for e in build_corpus(seed)]
        _assert_views([_unread_copy(d) for d in roots])
        _assert_views(roots)


def test_views_of_the_families():
    roots = []
    for n in range(9):
        for base in (ONE, B):
            _, add = gen_add(n, base)
            _, ladd = gen_ladd(n, base)
            roots += [add, ladd, gen_applied(ladd, maximal_value(base)[1])]
    _assert_views([_unread_copy(d) for d in roots])


def test_views_of_elimination_snapshots(corpus):
    for e in corpus:
        if "forall-lazy" in e.tags:
            _, trace = eliminate(_unread_copy(e.derivation), recheck=False,
                                 keep_derivations=True)
            _assert_views(trace.snapshots[::-1])


def test_views_of_pushed_reductions(corpus):
    for e in corpus:
        if e.system == "lam":
            d = _unread_copy(e.derivation)
            for r in find_redexes(e.derivation.conclusion.subject):
                _assert_views([push_reduction(d, r)])


def test_building_and_checking_read_no_subject(count_terms):
    # quadratic_family has no guarded copy, whose guard `check` reads
    terms_built = count_terms()
    d = quadratic_family(32)
    assert check(d) == []
    assert terms_built[0] == 0
    subject = d.conclusion.subject
    assert terms_built[0] > 0
    assert normalize(subject).term == Abs("x", Var("x"))


def test_reading_a_deep_subject_does_not_recurse():
    # 5,000 cuts, each over the last: reading the root computes them all,
    # far deeper than Python's recursion limit
    a = TVar("a")
    d = d_ax("x0", a)
    for k in range(1, 5001):
        d = d_cut(d_ax("x%d" % k, a), d, "x%d" % (k - 1))
    d = d_lolliR(d, "x5000")
    assert d.conclusion.subject == Abs("x", Var("x"))
    assert d.conclusion.subject_names == frozenset()

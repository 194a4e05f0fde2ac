import time

from hypothesis import given, settings
import hypothesis.strategies as st

from linadd.derivation import _nodes
from linadd.typesys import (
    Forall, Lolli, TVar, With,
    bool_type, free_type_vars, is_closed, is_forall_lazy,
    is_lazy, is_pi1, judgement_is_forall_lazy,
    match_tensor_type, polarity_occurrences, subst_type, tensor_type,
    type_size, unit_type,
)


ONE = unit_type()
B = bool_type()


def classify_type(a) -> frozenset:
    """Oracle: the names of the classes a belongs to."""
    return frozenset(tag for tag, holds in (
        ("closed", is_closed), ("forall_lazy", is_forall_lazy),
        ("lazy", is_lazy), ("pi1", is_pi1)) if holds(a))


def test_unit_is_forall_identity():
    assert ONE == Forall("a", Lolli(TVar("a"), TVar("a")))


def test_alpha_equality_of_types():
    assert Forall("a", TVar("a")) == Forall("b", TVar("b"))
    assert Forall("a", Lolli(TVar("a"), TVar("a"))) != Forall("a", TVar("a"))
    assert hash(Forall("a", TVar("a"))) == hash(Forall("b", TVar("b")))


def test_tensor_macro_round_trip():
    t = tensor_type(ONE, B)
    assert match_tensor_type(t) == (ONE, B)
    assert match_tensor_type(ONE) is None
    assert match_tensor_type(B) is None


def test_free_type_vars():
    assert free_type_vars(Forall("a", Lolli(TVar("a"), TVar("b")))) == {"b"}


def test_subst_type_capture_avoiding():
    # (forall a. a -o b)[b := a] must not capture the bound a
    t = Forall("a", Lolli(TVar("a"), TVar("b")))
    out = subst_type(t, "b", TVar("a"))
    assert out == Forall("c", Lolli(TVar("c"), TVar("a")))


def test_closedness():
    assert is_closed(ONE) and is_closed(B)
    assert not is_closed(TVar("a"))


def test_forall_polarities():
    # in (forall a. a) -o b the quantifier occurs negatively
    neg = Lolli(Forall("a", TVar("a")), TVar("b"))
    occs = polarity_occurrences(neg, "forall")
    assert "-" in {p for _, p in occs}
    assert not is_forall_lazy(neg)
    assert is_forall_lazy(ONE) and is_forall_lazy(B)


def test_lazy_excludes_positive_with():
    assert is_lazy(ONE)
    assert not is_lazy(With(ONE, ONE))
    c = TVar("c")
    assert is_lazy(Lolli(With(c, c), c))  # negative positions allowed


def test_pi1_excludes_with_entirely():
    assert is_pi1(ONE) and is_pi1(B)
    assert not is_pi1(With(ONE, ONE))
    assert not is_pi1(Lolli(With(ONE, ONE), ONE))


def test_classify_type_names():
    got = classify_type(B)
    assert {"closed", "forall_lazy", "lazy", "pi1"} <= set(got)


def test_judgement_folds_context_into_the_goal():
    # x : B |- _ : 1 behaves like B -o 1, whose left B puts a forall negative
    assert judgement_is_forall_lazy((), ONE)
    assert not judgement_is_forall_lazy((B,), ONE)


def test_type_sizes_are_positive_and_monotone():
    assert type_size(TVar("a")) == 1
    assert type_size(ONE) < type_size(B)


def test_equality_of_shared_towers_walks_each_level_once():
    # with_tower(t, n) shares one child under both sides of every &; two
    # separately built towers compare in n pair visits, not 2^n
    from linadd.families import with_tower
    started = time.perf_counter()
    assert with_tower(ONE, 24) == with_tower(ONE, 24)
    assert with_tower(ONE, 24) != with_tower(B, 24)
    one = unit_type()
    assert Lolli(ONE, ONE) == Lolli(one, one)
    assert Lolli(ONE, ONE) != Lolli(B, B)
    assert Lolli(ONE, ONE) != Lolli(one, B)
    assert time.perf_counter() - started < 1.0


def test_hash_of_a_shared_tower_visits_each_node_once(monkeypatch):
    # a type's hash is computed once per node, from its children's, when the
    # node is built; hash() then walks nothing, so a shared with_tower(t, n)
    # costs n steps, not 2^n
    from linadd.families import with_tower
    started = time.perf_counter()
    tower, again = with_tower(unit_type(), 30), with_tower(unit_type(), 30)

    def walked(self):
        raise AssertionError("hash() walked the type")

    for kind in (Forall, Lolli, With):
        monkeypatch.setattr(kind, "children", walked)
    assert hash(tower) == hash(again)
    assert hash(tower) != hash(with_tower(bool_type(), 30))
    assert time.perf_counter() - started < 0.5


# -- polarity summaries against the occurrence walk ---------------------------

def _has(a, connective, pol):
    return any(p == pol for _, p in polarity_occurrences(a, connective))


def _reference(a):
    """(forall_lazy, lazy, pi1) from the listed occurrences."""
    forall_lazy = not _has(a, "forall", "-")
    return (forall_lazy,
            forall_lazy and not _has(a, "with", "+"),
            forall_lazy and not polarity_occurrences(a, "with"))


def _classified(a):
    return (is_forall_lazy(a), is_lazy(a), is_pi1(a))


def _judgement_reference(context_types, goal):
    return (not _has(goal, "forall", "-")
            and not any(_has(t, "forall", "+") for t in context_types))


def test_classifiers_agree_with_occurrences_on_the_corpus(corpus):
    judgements = {}
    for e in corpus:
        for n in _nodes(e.derivation):
            j = n.conclusion
            judgements[id(j)] = (j.context_types(), j.goal)
    types = {t for ctx, goal in judgements.values() for t in (*ctx, goal)}
    assert len(types) > 100
    for a in types:
        assert _classified(a) == _reference(a), a
    for ctx, goal in judgements.values():
        assert (judgement_is_forall_lazy(ctx, goal)
                == _judgement_reference(ctx, goal))


def _types():
    leaves = st.one_of(st.builds(TVar, st.sampled_from(["a", "b"])),
                       st.just(unit_type()), st.just(bool_type()))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Lolli, sub, sub),
            st.builds(With, sub, sub),
            st.builds(Forall, st.sampled_from(["a", "b"]), sub),
            st.builds(tensor_type, sub, sub),
        ),
        max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_types(), st.lists(_types(), max_size=3))
def test_classifiers_agree_with_occurrences_on_drawn_types(a, context):
    assert _classified(a) == _reference(a)
    assert classify_type(a) - {"closed"} == {
        tag for tag, holds in zip(("forall_lazy", "lazy", "pi1"),
                                  _reference(a)) if holds}
    assert (judgement_is_forall_lazy(context, a)
            == _judgement_reference(context, a))


def test_classifiers_on_deep_and_shared_types():
    # a summary is computed once per node, so a shared with_tower(t, n)
    # costs n, and no depth of -o chain recurses
    from linadd.families import with_tower
    started = time.perf_counter()
    assert is_forall_lazy(with_tower(ONE, 60))
    assert not is_lazy(with_tower(ONE, 60)) and not is_pi1(with_tower(ONE, 60))
    assert not is_forall_lazy(Lolli(with_tower(B, 60), ONE))
    assert time.perf_counter() - started < 1.0
    a = TVar("a")
    right = a
    for _ in range(1500):  # a -o a -o ... -o a
        right = Lolli(a, right)
    assert _classified(right) == (True, True, True) == _reference(right)
    left = Forall("a", a)
    for _ in range(1500):  # ((forall a. a) -o a) -o a ..., 1500 deep
        left = Lolli(left, a)
    assert _classified(left) == _reference(left) == (True, True, True)
    left = Lolli(left, a)
    assert _classified(left) == _reference(left) == (False, False, False)

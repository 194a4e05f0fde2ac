import itertools

import pytest

from linadd.derivation import check_ok, is_cut_free, is_eta_expanded, metrics
from linadd.frontend import parse_term, parse_type, print_term
from linadd.inhabit import (
    InhabitError, enumerate_inhabitants, eta_expand, eta_expansion_derivation,
    maximal_value,
)
from linadd.reduce import beta_eta_equal
from linadd.terms import alpha_equal, identity_term, term_size
from linadd.typesys import (
    Forall, Lolli, TVar, With, bool_type, tensor_type, unit_type,
)


ONE = unit_type()
B = bool_type()


def test_unit_has_one_inhabitant():
    found = enumerate_inhabitants(ONE)
    assert found.count == 1
    assert alpha_equal(found.terms()[0], identity_term())


def test_bool_has_two_inhabitants():
    found = enumerate_inhabitants(B)
    assert found.count == 2
    tt = parse_term("\\x. \\y. \\z. z x y")
    ff = parse_term("\\x. \\y. \\z. z y x")
    got = found.terms()
    assert any(beta_eta_equal(t, tt) for t in got)
    assert any(beta_eta_equal(t, ff) for t in got)


def test_bool_pair_has_four_inhabitants():
    assert enumerate_inhabitants(tensor_type(B, B)).count == 4


def test_unit_pair_has_one_inhabitant():
    assert enumerate_inhabitants(tensor_type(ONE, ONE)).count == 1


def test_members_check_and_are_cut_free():
    for a in (ONE, B, tensor_type(ONE, B)):
        for _, d in enumerate_inhabitants(a).members:
            check_ok(d)
            assert is_cut_free(d)
            assert d.conclusion.context == ()


def test_open_type_is_rejected():
    with pytest.raises(InhabitError):
        enumerate_inhabitants(TVar("a"))


def test_non_forall_lazy_type_is_rejected():
    with pytest.raises(InhabitError):
        enumerate_inhabitants(Lolli(B, B))


def test_with_of_units_inhabited_by_value_pair():
    found = enumerate_inhabitants(With(ONE, ONE))
    assert found.count == 1
    assert alpha_equal(found.terms()[0], parse_term("<\\x. x, \\x. x>"))


def test_maximal_value_of_bool_is_true():
    t, d = maximal_value(B)
    assert term_size(t) == 8
    assert print_term(t) == "\\x0. \\x1. \\x2. x2 x0 x1"
    check_ok(d)


def test_maximal_value_of_uninhabited_type_is_none():
    assert maximal_value(Forall("a", TVar("a"))) is None


def test_eta_expansion_derivation_shapes():
    d = eta_expansion_derivation("x", ONE)
    check_ok(d)
    assert d.conclusion.context == (("x", ONE),)
    assert is_eta_expanded(d)


def test_eta_expansion_refuses_with_assumptions():
    with pytest.raises(InhabitError):
        eta_expansion_derivation("x", With(ONE, ONE))


def test_eta_expand_rewrites_non_atomic_axioms():
    from linadd.derivation import d_ax, d_lolliR
    d = d_lolliR(d_ax("x", ONE), "x")   # |- \x. x : 1 -o 1 with a fat axiom
    out = eta_expand(d)
    check_ok(out)
    assert is_eta_expanded(out)
    assert beta_eta_equal(out.conclusion.subject, d.conclusion.subject)


def test_eta_expand_expands_each_shared_axiom_once(monkeypatch):
    from linadd import derivation, inhabit
    from linadd.derivation import IMALL2, check, d_ax, d_withR
    d = d_ax("x", ONE)
    for _ in range(30):  # 2^30 uses of one axiom, 31 distinct nodes
        d = d_withR(d, d)
    expanded, rebuilt = [], []
    expand = inhabit.eta_expansion_derivation
    monkeypatch.setattr(inhabit, "eta_expansion_derivation",
                        lambda x, a: expanded.append(x) or expand(x, a))
    monkeypatch.setitem(derivation.CONSTRUCTORS, "withR",
                        lambda *args: rebuilt.append(1) or d_withR(*args))
    out = eta_expand(d)
    assert expanded.count("x") == 1 and len(rebuilt) == 30
    monkeypatch.undo()
    assert is_eta_expanded(out) and check(out, IMALL2) == []


def test_enumeration_is_deterministic():
    a = tensor_type(B, B)
    first = enumerate_inhabitants(a).terms()
    second = enumerate_inhabitants(a).terms()
    assert first == second


# The order of enumeration is pinned: the benchmark's contract job on B*B*B
# checks only the first inhabitant.
_TT, _FF = "\\x0. \\x1. \\x2. x2 x0 x1", "\\x0. \\x1. \\x2. x2 x1 x0"
_BBB = ["\\x0. x0 (\\x0. x0 (%s) (%s)) (%s)" % bs
        for bs in itertools.product((_TT, _FF), repeat=3)]


def test_enumeration_order_is_pinned():
    for fast in (True, False):
        assert [print_term(t) for t in enumerate_inhabitants(B, fast).terms()] == [_TT, _FF]
    bbb = tensor_type(tensor_type(B, B), B)
    slow = enumerate_inhabitants(bbb, use_fast_paths=False).terms()
    assert [print_term(t) for t in slow] == _BBB
    # the fast path names its binders as `d_tensor_pair` does (z_0), so the
    # terms agree up to the names of binders
    assert enumerate_inhabitants(bbb).terms() == slow


def _nested_domains(n):
    """forall b. b -o b * 1 * ... * 1 with n operands of 1, built as the
    reader builds it (`*` groups to the left), but with b bound once, at
    the end."""
    b = TVar("b")
    chain = b
    for _ in range(n):
        chain = tensor_type(chain, ONE)
    return Forall("b", Lolli(b, chain))


def test_search_runs_nested_domains_on_its_own_stack():
    # each `*` nests the domains of the last inside its own, and the tensor
    # fast path takes a type apart only at its root, so the generic search
    # goes 1,500 domains deep
    assert _nested_domains(2) == parse_type("forall b. b -o b * 1 * 1")
    a = _nested_domains(1500)
    found = enumerate_inhabitants(a)
    assert found.count == 1
    assert found.members[0][1].conclusion.goal == a


def test_size_bound_on_members():
    # |M| <= |goal| for closed inhabitants, via |M| <= |ctx| + |A| <= 2|D|
    for a in (ONE, B, tensor_type(B, B)):
        for t, d in enumerate_inhabitants(a).members:
            assert term_size(t) <= 2 * metrics(d).size


@pytest.mark.parametrize("a,count", [
    (tensor_type(ONE, ONE), 1),
    (tensor_type(B, B), 4),
    (tensor_type(ONE, B), 2),
    (tensor_type(ONE, tensor_type(ONE, ONE)), 1),
    (tensor_type(tensor_type(B, B), B), 8),
], ids=["1*1", "B*B", "1*B", "1*(1*1)", "B*B*B"])
def test_tensor_fast_path_matches_generic_search(a, count):
    fast = enumerate_inhabitants(a).terms()
    slow = enumerate_inhabitants(a, use_fast_paths=False).terms()
    assert len(fast) == len(slow) == count
    for t in fast:
        assert sum(alpha_equal(t, u) for u in slow) == 1

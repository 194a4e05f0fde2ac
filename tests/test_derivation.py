import pytest

from linadd.derivation import (
    CheckError, Derivation, Judgement, check, check_ok,
    d_app, d_ax, d_cut, d_forallL, d_forallR, d_inst, d_lolliL, d_lolliR,
    _nodes, d_withL, d_withR, d_withR0, d_withR1, dag_size, is_cut_free,
    is_eta_expanded, metrics,
)
from linadd.frontend import parse_derivation, parse_type
from linadd.inhabit import enumerate_inhabitants, maximal_value
from linadd.translate import identity_derivation
from linadd.typesys import Lolli, TVar, With, bool_type, type_size, unit_type
from linadd.terms import Var, term_size


ONE = unit_type()
B = bool_type()
ID = identity_derivation()


def uses_rules(d: Derivation) -> frozenset:
    """Oracle: the rules that occur in d."""
    return frozenset(n.rule for n in _nodes(d))


def check_size_bounds(d: Derivation) -> dict:
    """Oracle for eta-expanded derivations: |M| <= |ctx|+|goal| <= 2|D|."""
    j = d.conclusion
    m = term_size(j.subject)
    seq = sum(type_size(a) for a in j.context_types()) + type_size(j.goal)
    two_d = 2 * metrics(d).size
    return {
        "subject_size": m,
        "sequent_size": seq,
        "twice_derivation_size": two_d,
        "holds": m <= seq <= two_d,
    }


def check_lazy_propagation(d: Derivation) -> bool:
    """Oracle: cut-free derivations of forall-lazy sequents avoid withR1,
    withL, and forallL throughout (which forces copy/projection-free
    subjects)."""
    banned = {"withR1", "withL1", "withL2", "forallL", "cut"}
    return not (uses_rules(d) & banned)


def test_identity_checks_in_all_systems():
    for system in ("lam", "imall2", "imll2"):
        assert check(ID, system) == []


def test_axiom_judgement():
    d = d_ax("x", ONE)
    assert check(d) == []
    assert d.conclusion.context == (("x", ONE),)


def test_boolean_inhabitants_check_under_lam():
    for _, d in enumerate_inhabitants(B).members:
        check_ok(d)


def test_with_pair_rule_is_imall2_only():
    d = d_lolliR(d_withR(d_ax("x", ONE), d_ax("x", ONE)), "x")
    assert check(d, "imall2") == []
    bad = check(d, "lam")
    assert bad and bad[0].condition == "system"


def test_withR0_requires_values_with_empty_contexts():
    d = d_withR0(ID, ID)
    check_ok(d)
    assert d.conclusion.goal == With(ONE, ONE)


def test_withR1_shares_one_assumption():
    d = d_withR1(d_ax("x1", ONE), d_ax("x2", ONE), ID, "x")
    check_ok(d)
    assert d.conclusion.context == (("x", ONE),)
    assert d.conclusion.goal == With(ONE, ONE)


def test_linearity_rejects_dropped_assumption():
    # x : 1, y : 1 |- x : 1 drops y
    from linadd.derivation import Derivation, Judgement
    from linadd.terms import Var
    bad = Derivation("ax", Judgement((("x", ONE), ("y", ONE)), Var("x"), ONE), ())
    assert check(bad)


def test_check_ok_raises_with_violations():
    from linadd.derivation import Derivation, Judgement
    from linadd.terms import Var
    bad = Derivation("ax", Judgement((), Var("x"), ONE), ())
    with pytest.raises(CheckError):
        check_ok(bad)


def test_shared_eigenvariable_between_split_premises_is_allowed():
    # the boolean values split x : a | y : a under the a-generalization;
    # rejecting that split would leave B without cut-free inhabitants
    found = enumerate_inhabitants(B)
    assert found.count == 2
    for _, d in found.members:
        assert is_cut_free(d)
        check_ok(d)


def test_unrelated_shared_type_variable_is_still_rejected():
    a = TVar("a")
    f = d_ax("f", Lolli(a, a))
    arg = d_ax("y", a)
    use = d_lolliL(arg, d_ax("w", a), "f", "w")
    assert check(use)  # premises share the free variable a with no binder


def test_cut_metrics():
    d = d_cut(ID, d_ax("x", ONE), "x")
    m = metrics(d)
    assert m.size == 1 + metrics(ID).size + 1
    assert m.weight == 0
    assert not is_cut_free(d)


def test_weight_counts_guarded_copies():
    d = d_withR1(d_ax("x1", ONE), d_ax("x2", ONE), ID, "x")
    assert metrics(d).weight == 1


def test_uses_rules():
    assert uses_rules(ID) == frozenset({"forallR", "lolliR", "ax"})


def test_eta_expanded_identity():
    assert is_eta_expanded(ID)
    assert not is_eta_expanded(d_ax("x", ONE))  # non-atomic axiom


def test_size_bounds_on_eta_long_inhabitants():
    for a in (ONE, B):
        for _, d in enumerate_inhabitants(a).members:
            got = check_size_bounds(d)
            assert got["holds"], got


def test_cut_free_forall_lazy_entries_avoid_lazy_breaking_rules(corpus):
    from linadd.typesys import judgement_is_forall_lazy
    seen = 0
    for e in corpus:
        d = e.derivation
        j = d.conclusion
        if (e.system == "lam" and is_cut_free(d)
                and judgement_is_forall_lazy(j.context_types(), j.goal)):
            assert check_lazy_propagation(d), e.name
            seen += 1
    assert seen > 10


def test_forallR_rejects_eigenvariable_in_context():
    with pytest.raises(ValueError):
        d_forallR(d_ax("x", TVar("g")), "g", "a")


def test_app_builder_types():
    f = d_lolliR(d_ax("x", ONE), "x")     # |- \x. x : 1 -o 1
    d = d_app(f, ID)
    check_ok(d)
    assert d.conclusion.goal == ONE


def test_inst_builder_types():
    d = d_inst(ID, B)
    check_ok(d)
    assert d.conclusion.goal == Lolli(B, B)


def test_withL_subjects_project():
    d = d_withL(1, d_ax("p", ONE), "y", "p", ONE)
    check_ok(d)
    assert d.conclusion.context == (("y", With(ONE, ONE)),)


def test_every_corpus_entry_rechecks(corpus):
    for e in corpus:
        assert check(e.derivation, e.system) == [], e.name


def test_subject_size_at_most_twice_derivation_size(corpus):
    for e in corpus:
        assert term_size(e.derivation.conclusion.subject) <= 2 * e.size, e.name


@pytest.mark.parametrize("text", [
    # no premise
    '(rule forallR (seq () "\\x. x" "forall a. a -o a"))',
    # a goal that is not universally quantified
    '(rule forallR (seq () "\\x. x" "a -o a")'
    ' (rule lolliR (seq () "\\x. x" "a -o a")'
    ' (rule ax (seq ((x "a")) "x" "a"))))',
    # the same with every parameter stated
    '(rule forallR g a (seq () "\\x. x" "forall a. a -o a"))',
    '(rule forallR g a (seq () "\\x. x" "a -o a") (rule lolliR x (rule ax x "g")))',
])
def test_malformed_forallR_is_a_violation(text):
    bad = check(parse_derivation("(lamd 2 %s)" % text))
    assert [v.rule for v in bad if v.path == ()] == ["forallR"]


def test_bad_stored_parameters_are_violations():
    # a wrong count or kind of parameters is reported at its node, and
    # check does not raise
    a, b = d_ax("x", ONE), d_ax("y", ONE)
    j = d_cut(a, d_ax("x", ONE), "x").conclusion
    for rule, prems, params, message in (
            ("cut", (a, b), ("x", "y"), "expected 1 parameters, got 2"),
            ("ax", (), ("x",), "expected 2 parameters, got 1"),
            ("ax", (), ("x", "y"), "parameter 2 is not a type"),
            ("lolliR", (a,), (ONE,), "parameter 1 is not a name"),
            ("forallR", (a,), (), "parameters not stated")):
        bad = check(Derivation(rule, j, prems, params))
        assert [(v.path, v.condition, v.message) for v in bad][:1] == [
            ((), "params", message)], rule


def test_parameter_free_rules_state_no_parameters():
    d = d_withR0(ID, ID)
    assert Derivation("withR0", d.conclusion, d.premises).params == ()
    check_ok(Derivation("withR0", d.conclusion, d.premises))


@pytest.mark.parametrize("build", [
    lambda: d_withR(d_ax("x", ONE), d_ax("y", ONE)),
    lambda: d_withR1(d_ax("x1", ONE), d_ax("x2", ONE), d_ax("g", ONE), "x"),
], ids=["withR-contexts-differ", "withR1-open-guard"])
def test_constructors_reject_unsound_instances(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("branches", [
    (), (("x1", ONE), ("y1", ONE)),
], ids=["no-assumption", "two-assumptions"])
def test_withR1_branches_need_exactly_one_assumption(branches):
    # check reports the constructor's refusal, a message about the rule
    b1 = Derivation("ax", Judgement(branches, Var("x1"), ONE), (), ("x1", ONE))
    good = d_withR1(d_ax("x1", ONE), d_ax("x2", ONE), ID, "x")
    bad = Derivation("withR1", good.conclusion, (b1,) + good.premises[1:], ("x",))
    assert [(v.path, v.message) for v in check(bad) if v.path == ()] == [
        ((), "withR1 branches must have exactly one assumption")]


def test_forallR_binds_apart_from_a_free_namesake_of_its_hint():
    # |- \x. x : (g -o a) -o g -o a, with g bound under the hint a while a
    # stays free
    d = d_forallR(d_lolliR(d_ax("x", Lolli(TVar("g"), TVar("a"))), "x"), "g", "a")
    assert d.conclusion.goal == parse_type("forall b. (b -o a) -o b -o a")
    assert check(d) == []



# -- the walk of `check` ----------------------------------------------------------

def _check_counting(monkeypatch, d, system):
    """check(d, system), with the nodes it visits and the withR1 guards
    whose value test it makes counted.  A visit reads the node's rule in the
    system's rule table once."""
    from linadd import derivation
    counts = {"visits": 0, "guards": 0}

    class Counted(dict):
        def get(self, rule, default=None):
            counts["visits"] += 1
            return dict.get(self, rule, default)

    def counted(key, real):
        def call(*args):
            counts[key] += 1
            return real(*args)
        return call

    with monkeypatch.context() as m:
        m.setattr(derivation, "_SYSTEM_RULES", {
            s: Counted(rules) for s, rules in derivation._SYSTEM_RULES.items()})
        m.setattr(derivation, "is_value", counted("guards", derivation.is_value))
        vs = check(d, system)
    return vs, counts


def test_check_visits_each_distinct_node_once(monkeypatch):
    # the translated ladd(B,2) shares its gadgets under several sets of
    # eigenvariables, none of which a split below a gadget tests; applied
    # ladd(1,12) is a DAG of 106 nodes over a tree of 16,460, whose withR1
    # guards share their value towers, and applied add(B,10) a DAG in imall2
    from linadd.families import gen_add, gen_applied, gen_ladd
    from linadd.translate import GadgetLibrary, translate_derivation
    _, unit = maximal_value(ONE)
    _, tt = maximal_value(B)
    ladd = gen_applied(gen_ladd(12, ONE)[1], unit)
    assert (dag_size(ladd), metrics(ladd).size) == (106, 16460)
    cases = [(translate_derivation(gen_ladd(2, B)[1], GadgetLibrary()), "imll2"),
             (ladd, "lam"),
             (gen_applied(gen_add(10, B)[1], tt), "imall2")]
    for d, system in cases:
        vs, counts = _check_counting(monkeypatch, d, system)
        assert vs == []
        assert 0 < counts["visits"] == dag_size(d), system
        withR1 = sum(n.rule == "withR1" for n in _nodes(d))
        assert counts["guards"] == withR1, system
    assert sum(n.rule == "withR1" for n in _nodes(ladd)) > 0


def test_guard_that_the_walk_left_early_is_walked_apart(monkeypatch):
    # withR is no rule of lam, so the walk leaves the guard's root before
    # its checks and never reaches the axiom at g -o g above it: the withR1
    # still finds that axiom, in the summary the guard stored when built
    g = TVar("g")
    wide = d_forallR(d_lolliR(d_ax("y", Lolli(g, g)), "y"), "g", "a")
    guard = d_withR(ID, wide)
    a = guard.conclusion.goal
    d = d_withR1(d_ax("x1", a), d_ax("x2", a), guard, "x")
    vs, counts = _check_counting(monkeypatch, d, "lam")
    assert counts["guards"] == 1
    assert [(v.path, v.condition, v.message) for v in vs] == [
        ((2,), "system", "rule withR not available in lam"),
        ((), "withR1", "guard subderivation must be eta-expanded")]


def test_check_is_total_on_a_rule_that_is_no_name():
    a = d_ax("x", TVar("a"))
    d = Derivation(["ax"], a.conclusion, (), a.params)
    assert [(v.condition, v.message) for v in check(d)] == [
        ("rule", "unknown rule ['ax']")]


def _shared_split():
    """A lolliL whose premise contexts share the type variable a, and two
    lolliR chains over it."""
    a = TVar("a")
    use = d_lolliL(d_ax("y", a), d_ax("w", a), "f", "w")
    return use, (lambda: d_lolliR(d_lolliR(use, "y"), "f"))


def test_shared_node_is_revisited_when_its_split_variables_differ():
    # under the a-generalization the split is exempt, in the other branch
    # it is not: a shared node is checked again when the eigenvariables
    # above it differ on a variable that a split below it tests
    _, above = _shared_split()
    d = d_withR(d_forallR(above(), "a", "a"), above())
    assert [(v.path, v.condition) for v in check(d, "imall2")] == [
        ((1, 0, 0), "linear-constraint")]


def test_shared_node_is_not_revisited_for_untested_eigenvariables():
    # b is tested by no split below the shared node, so its second use
    # under other eigenvariables would only repeat the same violation
    _, above = _shared_split()
    d = d_withR(d_forallR(above(), "b", "b"), above())
    assert [(v.path, v.condition) for v in check(d, "imall2")] == [
        ((0, 0, 0, 0), "linear-constraint")]


def test_check_walks_a_deep_derivation():
    # 5,000 cuts, each on the axiom of its right premise, over an axiom
    # that states a wrong goal: one violation, at the bottom
    d = Derivation("ax", Judgement((("x0", ONE),), Var("x0"), B), (), ("x0", ONE))
    for k in range(5000):
        d = d_cut(d_ax("x%d" % (k + 1), ONE), d, "x%d" % k)
    for system in ("lam", "imall2", "imll2"):
        assert [(v.path, v.message) for v in check(d, system)] == [
            ((1,) * 5000, "the rule concludes a different goal")], system

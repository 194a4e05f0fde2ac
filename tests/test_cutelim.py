import pytest

from linadd.corpus import (
    build_corpus, copy_first_enclosure, copy_first_example, deadlock_enclosure,
    deadlock_example, cubic_family, quadratic_family,
)
from linadd.cutelim import (
    CutElimError, ElimStep, elim_step, eliminate,
)
from linadd import derivation, reduce, steps
from linadd.derivation import (
    IMALL2, IMLL2, LAM, Derivation, check, check_ok, d_ax, d_cut, d_forallR, d_lolliL,
    d_lolliR, d_withL, d_withR, d_withR1, is_cut_free, metrics, rebuild,
)
from linadd.frontend import derivations_equal, parse_derivation, print_type
from linadd.families import gen_applied, gen_ladd
from linadd.inhabit import maximal_value
from linadd.steps import (
    BLOCKED, COMMUTING, COPY_FIRST, DEADLOCK, READY, SAFE, SYMMETRIC,
    classify_cut, classify_cuts, eliminate_cut_once,
)
from linadd.terms import Abs, Var, alpha_equal, is_value
from linadd.translate import identity_derivation
from linadd.typesys import Lolli, TVar, bool_type, subst_type, unit_type


ONE = unit_type()
ID = identity_derivation()


def test_deadlock_example_classification():
    assert classify_cut(deadlock_example()) == DEADLOCK


def test_copy_first_example_classification():
    assert classify_cut(copy_first_example()) == COPY_FIRST


def test_elim_step_refuses_deadlock():
    with pytest.raises(CutElimError):
        elim_step(deadlock_example(), ())


def test_elim_step_refuses_copy_first():
    with pytest.raises(CutElimError):
        elim_step(copy_first_example(), ())


def test_enclosed_examples_eliminate_completely():
    for build in (deadlock_enclosure, copy_first_enclosure):
        d, trace = eliminate(build())
        assert is_cut_free(d)
        check_ok(d)
        assert is_value(d.conclusion.subject)


def test_symmetric_axiom_cut():
    d = d_cut(ID, d_ax("x", ONE), "x")
    assert classify_cut(d) == SYMMETRIC
    out = elim_step(d, ())
    assert is_cut_free(out)
    assert alpha_equal(out.conclusion.subject, ID.conclusion.subject)


def test_ready_critical_cut_fires_to_a_value_pair():
    right = d_withR1(d_ax("x1", ONE), d_ax("x2", ONE), ID, "x")
    d = d_cut(ID, right, "x")
    assert classify_cut(d) == READY
    out = elim_step(d, ())
    assert out.rule == "withR0"


def test_blocked_cut_waits_for_its_inner_cut():
    inner = d_cut(ID, d_withR1(d_ax("x1", ONE), d_ax("x2", ONE), ID, "x"), "x")
    outer = d_cut(inner, d_withL(1, d_ax("p", ONE), "y", "p", ONE), "y")
    check_ok(outer)
    assert classify_cut(outer) == BLOCKED
    with pytest.raises(CutElimError):
        elim_step(outer, ())
    d, _ = eliminate(outer)       # the strategy resolves the inner cut first
    assert is_cut_free(d)


def test_safe_cut_is_stepped_only_by_eliminate_cut_once():
    left = d_cut(ID, d_ax("x", ONE), "x")   # closed, but holds a cut
    d = d_cut(left, d_withR1(d_ax("x1", ONE), d_ax("x2", ONE), ID, "x"), "x")
    check_ok(d)
    assert classify_cut(d) == SAFE
    with pytest.raises(CutElimError):
        elim_step(d, ())
    out = eliminate_cut_once(d)
    assert out.rule == "withR0"
    check_ok(out)
    for d in (deadlock_example(), copy_first_example()):
        with pytest.raises(CutElimError):
            eliminate_cut_once(d)


def test_eliminate_requires_forall_lazy_conclusion():
    from linadd.derivation import d_lolliR
    d = d_lolliR(d_ax("x", ONE), "x")   # 1 -o 1 has a negative quantifier
    with pytest.raises(CutElimError):
        eliminate(d)


def test_trace_potential_never_increases(elimination_entries):
    # commuting steps keep the potential size + 2*weight; firings lower it
    inputs = [e.derivation for e in elimination_entries]
    inputs += [d for _, d in cubic_family(4)]
    for d in inputs:
        m = metrics(d)
        pot = m.size + 2 * m.weight
        _, trace = eliminate(d)
        for s in trace.steps:
            assert s.potential == pot if s.kind == "commuting" else s.potential < pot
            pot = s.potential


def verify_simulation(before, after, budget: int = 10000) -> bool:
    """Oracle: whether the subject of `before` reduces in at most three
    steps to the subject of `after`.  Every elimination step performs at
    most one reduction, so a small search suffices."""
    src = before.conclusion.subject
    dst = after.conclusion.subject
    frontier = [src]
    seen = 0
    for _ in range(3):  # steps per elimination are 0 or 1; allow slack
        nxt = []
        for t in frontier:
            if alpha_equal(t, dst):
                return True
            for r in reduce.find_redexes(t):
                seen += 1
                if seen > budget:
                    return False
                nxt.append(reduce.step(t, r))
        frontier = nxt
    return any(alpha_equal(t, dst) for t in frontier)


def test_snapshots_chain_and_simulate():
    _, d = None, cubic_family(3)[-1][1]
    out, trace = eliminate(d, keep_derivations=True)
    assert len(trace.snapshots) == trace.total_steps + 1
    assert trace.snapshots[-1] is out
    for before, after in zip(trace.snapshots, trace.snapshots[1:]):
        assert verify_simulation(before, after)


def test_budget_is_enforced():
    d = cubic_family(3)[-1][1]
    with pytest.raises(CutElimError):
        eliminate(d, budget=2)


def test_classify_cuts_lists_paths():
    d = d_cut(ID, d_ax("x", ONE), "x")
    got = classify_cuts(d)
    assert [p for p, _ in got] == [()]


# -- the cached derivation stats against uncached references -----------------

def _ref_nodes(d):
    """Every node of d with tree multiplicity, pre-order."""
    out = [d]
    for p in d.premises:
        out += _ref_nodes(p)
    return out


def _ref_height(d):
    return 1 + max(map(_ref_height, d.premises), default=0)


def _ref_metrics(d):
    nodes = _ref_nodes(d)
    return (len(nodes), sum(n.rule == "withR1" for n in nodes),
            sum(_ref_height(n) - 1 for n in nodes if n.rule == "cut"),
            _ref_height(d) - 1)


def _ref_cuts(d, path=()):
    """classify_cut at every cut of d, by a walk that prunes nothing."""
    out = [(path, classify_cut(d))] if d.rule == "cut" else []
    for i, p in enumerate(d.premises):
        out += _ref_cuts(p, path + (i,))
    return out


def _assert_stats(d):
    assert classify_cuts(d) == _ref_cuts(d)
    seen = set()
    for n in _ref_nodes(d):
        if id(n) in seen:
            continue
        seen.add(id(n))
        m = metrics(n)
        assert (m.size, m.weight, m.height_sum, m.max_height) == _ref_metrics(n)
        assert is_cut_free(n) == all(k.rule != "cut" for k in _ref_nodes(n))


def test_stats_match_reference_along_elimination(elimination_entries):
    _, ladd6 = gen_ladd(6, ONE)
    inputs = [e.derivation for e in elimination_entries]
    inputs += [d for _, d in cubic_family(3)]
    inputs += [quadratic_family(n) for n in range(1, 7)]
    inputs.append(gen_applied(ladd6, maximal_value(ONE)[1]))
    for d in inputs:
        _, trace = eliminate(d, keep_derivations=True)
        for snap in trace.snapshots:
            _assert_stats(snap)


def test_eliminate_costs_local_work(monkeypatch, count_terms):
    # eliminate(ladd(1,8)) takes 59 steps on |D| = 1,076.  Scanning for cuts
    # twice a round, classifying every cut at every scan and rebuilding the
    # whole spine above each step classifies 752 cuts and reads 4,379
    # premise tuples.  One scan per step from the root, with cached cut
    # classes, takes 175 classifications and 1,288 reads.  The zipper walk,
    # which rebuilds each frame once on leaving it and keeps the summaries
    # of the cuts off its way, takes 75 and 395.  Where every constructor
    # substituted into its premise's subject, the steps and rebuilds built
    # 79 term nodes; with subjects computed when read, only the test of a
    # ready cut's left subject for a value builds any.
    _, d = gen_ladd(8, ONE)
    d = gen_applied(d, maximal_value(ONE)[1])
    size = metrics(d).size
    calls = {"classify_cut": 0, "premises": 0}
    real_classify = steps.classify_cut
    real_premises = Derivation.__dict__["premises"]

    def classify(x):
        calls["classify_cut"] += 1
        return real_classify(x)

    def premises(node):
        calls["premises"] += 1
        return real_premises.__get__(node, Derivation)

    monkeypatch.setattr(steps, "classify_cut", classify)
    monkeypatch.setattr(Derivation, "premises", property(
        premises, lambda node, v: real_premises.__set__(node, v)))
    terms_built = count_terms()
    _, trace = eliminate(d, recheck=False)
    assert trace.total_steps == 59
    assert calls["classify_cut"] <= 100
    assert calls["premises"] <= size
    assert terms_built[0] <= 10


def test_deep_elimination_builds_no_term(monkeypatch, count_terms):
    # quadratic_family(64) eliminates in 2,334 commuting and axiom steps,
    # none of which reads a subject; substituting into each rebuilt
    # subject built 141,185 term nodes
    d = quadratic_family(64)
    terms_built = count_terms()
    out, trace = eliminate(d, recheck=False)
    assert trace.total_steps == 2334
    assert terms_built[0] == 0
    monkeypatch.undo()
    assert out.conclusion.subject == Abs("x", Var("x"))


def _work_per_step(monkeypatch, d):
    """(derivation nodes built, premise tuples read) per step of
    eliminate(d)."""
    counts = [0, 0]
    real_fill = derivation._fill
    real_premises = Derivation.__dict__["premises"]

    def fill(node, *args):
        # every node is filled here: by Derivation.__init__ and by the
        # constructors' _derive alike
        counts[0] += 1
        real_fill(node, *args)

    def premises(node):
        counts[1] += 1
        return real_premises.__get__(node, Derivation)

    with monkeypatch.context() as m:
        m.setattr(derivation, "_fill", fill)
        m.setattr(Derivation, "premises", property(
            premises, lambda node, v: real_premises.__set__(node, v)))
        _, trace = eliminate(d, recheck=False)
    return counts[0] / trace.total_steps, counts[1] / trace.total_steps


def test_a_step_costs_its_rule_not_its_depth(monkeypatch):
    # Each cut of quadratic_family(n) commutes up a chain of up to n rules,
    # in 198 steps at n = 16 and 654 at n = 32.  Rebuilding the spine above
    # each step builds 13.5 and 28.2 nodes per step, and scanning for cuts
    # from the root reads 74 and 159 premise tuples; the walk builds 2.4
    # and 2.6 nodes and reads 8.8 and 9.7.
    small = _work_per_step(monkeypatch, quadratic_family(16))
    large = _work_per_step(monkeypatch, quadratic_family(32))
    assert small[0] > 0 and small[1] > 0, small
    assert large[0] <= 1.25 * small[0], (small, large)
    assert large[1] <= 1.25 * small[1], (small, large)


def test_a_stated_root_is_rebuilt_as_its_rule_concludes():
    # the root states its goal with the binder printed b, and its forallR
    # prints it a: once the cut below fires, the root is rebuilt as its
    # rule concludes
    d = parse_derivation('(lamd 2 (rule forallR g a (seq () "\\x. x" "forall b. b -o b")'
                         ' (rule lolliR x (rule cut y (rule ax x "g") (rule ax y "g")))))')
    out, _ = eliminate(d)
    assert print_type(d.conclusion.goal) == "forall b. b -o b"
    assert print_type(out.conclusion.goal) == "forall a. a -o a"


# -- differential test against the strategy as first written -----------------
#
# The oracle scans with `_ref_cuts`, which classifies every cut afresh, twice
# a round, and rebuilds every ancestor of a step through its constructor.

def _oracle_apply_at(d, path, fn):
    if not path:
        return fn(d)
    prems = list(d.premises)
    prems[path[0]] = _oracle_apply_at(prems[path[0]], path[1:], fn)
    return rebuild(d, tuple(prems))


def _oracle_eliminate(d):
    """(output, ElimStep list, rounds, snapshots) of the round strategy."""
    out, rounds, cur, snapshots = [], 0, d, [d]

    def step(path, kind, fn):
        nonlocal cur
        cur = _oracle_apply_at(cur, path, fn)
        snapshots.append(cur)
        m = metrics(cur)
        out.append(ElimStep(rounds, path, kind, m.size, m.weight,
                            m.size + 2 * m.weight, m.height_sum))

    while not is_cut_free(cur):
        rounds += 1
        while True:
            cuts = [p for p, c in _ref_cuts(cur) if c == COMMUTING]
            if not cuts:
                break
            step(max(cuts, key=lambda p: (len(p), [-x for x in p])),
                 "commuting", steps.commute_once)
        cuts = _ref_cuts(cur)
        sym = [p for p, c in cuts if c == SYMMETRIC]
        if sym:
            step(sym[0], "symmetric", steps.fire_symmetric)
        else:
            ready = [p for p, c in cuts if c == READY]
            step(max(ready, key=len), "ready", steps.fire_critical)
    return cur, out, rounds, snapshots


def _assert_conclusions_rebuild(snapshots):
    """Every derived node's constructor, over its premises, concludes a
    judgement equal to the node's own, context order included."""
    seen = set()
    for snap in snapshots:
        todo = [snap]
        while todo:
            n = todo.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
            todo += n.premises
            if n._derived:
                got, j = rebuild(n, n.premises).conclusion, n.conclusion
                assert (got.context == j.context and got.subject == j.subject
                        and got.goal == j.goal), n.rule


def test_eliminate_agrees_with_the_rebuild_everything_oracle(elimination_entries):
    inputs = [e.derivation for e in elimination_entries]
    inputs += [e.derivation for e in build_corpus(seed=1)
               if "forall-lazy" in e.tags and e.size <= 60]
    inputs += [d for _, d in cubic_family(3)]
    inputs += [quadratic_family(n) for n in range(1, 11)]
    for n in range(1, 9):
        inputs.append(gen_applied(gen_ladd(n, ONE)[1], maximal_value(ONE)[1]))
    for d in inputs:
        got, trace = eliminate(d, recheck=False, keep_derivations=True)
        want, want_steps, want_rounds, want_snapshots = _oracle_eliminate(d)
        assert trace.steps == want_steps
        assert trace.rounds == want_rounds
        assert derivations_equal(got, want)
        assert len(trace.snapshots) == len(want_snapshots)
        assert all(map(derivations_equal, trace.snapshots, want_snapshots))
        _assert_conclusions_rebuild(trace.snapshots)


# -- the rewrites of steps ------------------------------------------------------

def _counting_constructors(monkeypatch):
    """The rules of the CONSTRUCTORS calls made from now on."""
    calls = []
    for rule, build in list(derivation.CONSTRUCTORS.items()):
        def counted(*args, _rule=rule, _build=build):
            calls.append(_rule)
            return _build(*args)
        monkeypatch.setitem(derivation.CONSTRUCTORS, rule, counted)
    return calls


def test_rename_assumption_renames_each_shared_node_once(monkeypatch):
    a, b = TVar("a"), TVar("b")
    # x : a -o b |- \z. x z : a -o b; x is in the conclusions of two nodes
    d = d_lolliR(d_lolliL(d_ax("z", a), d_ax("w", b), "x", "w"), "z")
    for _ in range(30):  # 2^30 uses of it, 34 distinct nodes
        d = d_withR(d, d)
    calls = _counting_constructors(monkeypatch)
    out = steps.rename_assumption(d, "x", "y")
    assert sorted(calls) == ["lolliL", "lolliR"] + ["withR"] * 30
    monkeypatch.undo()
    assert out.conclusion.context == (("y", Lolli(a, b)),)
    assert check(out, IMALL2) == []


def test_axiom_cut_renames_a_consumed_namesake_away():
    # w_0 : 1 cut into x: the right premise's lolliL consumes a w_0 of its
    # own, so renaming x to w_0 alone would give its premises one name twice
    r = d_lolliL(d_ax("x", ONE), d_ax("w_0", bool_type()), "f", "w_0")
    d = d_cut(d_ax("w_0", ONE), r, "x")
    assert classify_cut(d) == SYMMETRIC
    out = steps.fire_symmetric(d)
    for system in (IMLL2, LAM):
        assert check(d, system) == [] and check(out, system) == []
    assert out.conclusion.subject == d.conclusion.subject
    assert out.conclusion.goal == d.conclusion.goal
    assert dict(out.conclusion.context) == dict(d.conclusion.context)


def test_subst_type_deriv_renames_nested_captures_once_each():
    x, g = TVar("x"), TVar("g")
    # |- \y. y : (x -o g) -o x -o g under 1,200 forallR that each bind g:
    # substituting g for x makes every one of them capture
    d = d_lolliR(d_ax("y", Lolli(x, g)), "y")
    for _ in range(1200):
        d = d_forallR(d, "g", "g")
    out = steps.subst_type_deriv(d, "x", g)
    assert check(out) == []
    assert out.conclusion.goal == subst_type(d.conclusion.goal, "x", g)
    # below a forallR that binds x itself, x is not the free x
    bound = d_forallR(d_lolliR(d_ax("y", x), "y"), "x", "x")
    assert steps.subst_type_deriv(bound, "x", g) is bound


def test_subst_type_deriv_renames_away_from_the_free_names_of_d():
    x, g, g0 = TVar("x"), TVar("g"), TVar("g_0")
    # the capture rename of g skips g_0, which is free in d
    d = d_forallR(d_lolliR(d_ax("y", Lolli(x, Lolli(g, g0))), "y"), "g", "g")
    out = steps.subst_type_deriv(d, "x", g)
    assert out.params[0] not in {"g", "g_0"}
    assert out.conclusion.goal == subst_type(d.conclusion.goal, "x", g)
    assert check(out) == []


def test_steps_rename_away_from_every_name_they_meet():
    # Generated names repeat across subderivations (f_0, w_0, ...), so a
    # step that moves a consuming rule past a context must rename what
    # it consumes away from every name that it meets there.
    one = unit_type()

    def same_and_checked(before, after):
        # a symmetric step reduces the subject; the sequent stays
        assert check(before) == [] and check(after) == []
        j, k = before.conclusion, after.conclusion
        assert dict(j.context) == dict(k.context) and j.goal == k.goal

    # a cut pushed into the left premise of a lolliL whose right premise
    # consumes w_0, a name of the cut's left context
    left = d_cut(d_ax("w_0", one), d_ax("q", one), "q")
    d = d_cut(left, d_lolliL(d_ax("x", one), d_ax("w_0", one), "y", "w_0"), "x")
    assert classify_cut(d) == COMMUTING
    same_and_checked(d, steps.commute_once(d))
    # a symmetric lolliR/lolliL cut: the right premise consumes w_0, which
    # is free on the left
    lam = d_lolliR(d_lolliL(d_ax("z", one), d_ax("v", one), "w_0", "v"), "z")
    d = d_cut(lam, d_lolliL(d_ax("x", one), d_ax("w_0", one), "y", "w_0"), "y")
    assert classify_cut(d) == SYMMETRIC
    same_and_checked(d, steps.fire_symmetric(d))
    # the same, with z renamed away from the right premise's z: not to z_0,
    # which a cut inside the body binds
    body = d_cut(d_ax("z", one), d_ax("z_0", one), "z_0")
    d = d_cut(d_lolliR(body, "z"),
              d_lolliL(d_ax("z", one), d_ax("w", one), "y", "w"), "y")
    same_and_checked(d, steps.fire_symmetric(d))

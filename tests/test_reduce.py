import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from linadd import reduce
from linadd.derivation import check, d_app
from linadd.families import gen_add, gen_applied, gen_ladd
from linadd.frontend import parse_term
from linadd.inhabit import enumerate_inhabitants, maximal_value
from linadd.reduce import (
    BudgetExceeded, Redex, beta_eta_equal, beta_eta_normal_form, eta_normalize,
    find_redexes, normalize, push_reduction, redex_free, step,
)
from linadd.terms import (
    Abs, App, Bound, Copy, Pair, Proj, Term, Var,
    alpha_equal, free_vars, identity_term, is_value, subst, term_size,
)
from linadd.translate import GadgetLibrary, identity_derivation, translate_derivation
from linadd.typesys import bool_type, tensor_type, unit_type


I = identity_term()


def test_identity_application():
    t = parse_term("(\\x. x) (\\y. y)")
    res = normalize(t)
    assert res.steps == 1
    assert alpha_equal(res.term, I)


def test_projection_step():
    t = parse_term("p2(<\\x. x, \\y. y y>)")
    res = normalize(t)
    assert res.steps == 1
    assert alpha_equal(res.term, parse_term("\\y. y y"))


def test_copy_fires_only_on_values():
    blocked = parse_term("copy[\\x. x] y as a,b in <a, b>")
    assert find_redexes(blocked) == []
    ready = parse_term("copy[\\x. x] (\\z. z) as a,b in <a, b>")
    res = normalize(ready)
    assert res.steps == 1
    assert alpha_equal(res.term, parse_term("<\\z. z, \\z. z>"))


def test_copy_duplicates_the_scrutinee_not_the_guard():
    t = parse_term("copy[\\x. x] <\\z. z, \\w. w> as a,b in <p1(a), p2(b)>")
    res = normalize(t)
    assert alpha_equal(res.term, parse_term("<\\z. z, \\w. w>"))


def test_normalize_trace_records_steps():
    t = parse_term("(\\x. x) ((\\y. y) (\\z. z))")
    res = normalize(t, keep_trace=True)
    assert len(res.trace) == res.steps == 2
    sizes = [term_size(after) for _, after in res.trace]
    assert sizes[-1] == 2


def test_budget_exhaustion():
    t = parse_term("(\\x. x) ((\\y. y) (\\z. z))")
    with pytest.raises(BudgetExceeded):
        normalize(t, budget=1)


@pytest.mark.parametrize("text", ["x", "(\\y. y) x"], ids=["normal", "redex"])
def test_unknown_strategy_is_refused(text):
    # before the first redex test, so a normal term is refused too
    with pytest.raises(ValueError):
        normalize(parse_term(text), strategy="bogus")


def test_strategies_agree_on_ladd(seed=3):
    _, d = gen_ladd(2, unit_type())
    t = gen_applied(d, identity_derivation()).conclusion.subject
    ref = normalize(t, strategy="leftmost")
    assert normalize(t, strategy="rightmost").steps == ref.steps
    rnd = normalize(t, strategy="random", seed=seed)
    assert alpha_equal(rnd.term, ref.term)


def test_every_step_shrinks_lam_subjects(corpus):
    # linear additives: each redex strictly decreases term size
    for e in corpus:
        if e.system != "lam":
            continue
        t = e.derivation.conclusion.subject
        while not redex_free(t):
            r = find_redexes(t)[0]
            t2 = step(t, r)
            assert term_size(t2) < term_size(t), e.name
            t = t2


def test_confluence_of_small_reduction_graphs():
    # the five strategies of the confluence suite
    t = parse_term("(\\x. x) (p1(<\\y. y, \\z. z>))")
    ref = normalize(t, "leftmost").term
    for strategy, seed in (("rightmost", None), ("random", 0), ("random", 1), ("random", 2)):
        assert alpha_equal(normalize(t, strategy, seed=seed).term, ref)


def test_eta_normalize():
    t = parse_term("\\x. (\\y. y) x")
    # the inner beta redex is not an eta redex of the outer lambda
    assert alpha_equal(eta_normalize(parse_term("\\x. z x")), parse_term("z"))
    assert alpha_equal(beta_eta_normal_form(t), I)


@pytest.mark.parametrize("text, normal", [
    ("\\x. \\y. f x y", "f"),                    # the inner contraction exposes the outer
    ("\\w. \\x. (\\y. w y) x", "\\w. w"),         # contracted under a binder
    ("\\x. (\\y. x) x", "\\x. (\\y. x) x"),       # the function refers to x
    ("copy[I] c as a, b in <\\x. a x, \\y. b y>", "copy[I] c as a, b in <a, b>"),
])
def test_eta_normal_forms(text, normal):
    assert eta_normalize(parse_term(text)) == parse_term(normal)


def test_eta_normalize_long_pair_chain():
    # 2,000 eta redexes down a pair chain; contracting one at a time from
    # the root took minutes
    def chain(member):
        t = Var("z")
        for _ in range(2000):
            t = Pair(member(), t)
        return t

    got = eta_normalize(chain(lambda: Abs("x", App(Var("f"), Var("x")))))
    assert got == chain(lambda: Var("f"))


def test_beta_eta_equal():
    assert beta_eta_equal(parse_term("\\x. z x"), parse_term("z"))
    assert not beta_eta_equal(parse_term("\\x. \\y. x"), parse_term("\\x. \\y. y"))


def test_push_reduction_tracks_each_redex(corpus):
    # spot-check a family member: each successive leftmost redex is pushed
    # through the derivation and the result rechecks
    e = next(e for e in corpus if e.name == "ladd-unit-2-applied")
    d = e.derivation
    while True:
        rs = find_redexes(d.conclusion.subject)
        if not rs:
            break
        d = push_reduction(d, rs[0])
        assert check(d, "lam") == []


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.sampled_from(["leftmost", "rightmost"]))
def test_ladd_steps_and_sizes(n, strategy):
    _, d = gen_ladd(n, unit_type())
    applied = gen_applied(d, identity_derivation())
    res = normalize(applied.conclusion.subject, strategy=strategy)
    assert res.steps == 2 * n + 1


# -- the cached flags and the walk against uncached references ---------------

def _ref_free(t):
    """The free names of t, and as ints the bound indices that point past
    t, counted from t."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Bound):
        return {t.index}
    out = set()
    for c, b in zip(t.children(), t.binds):
        for v in _ref_free(c):
            if not isinstance(v, int):
                out.add(v)
            elif v >= b:
                out.add(v - b)
    return out


def _ref_shaped(t):
    if isinstance(t, (Proj, Copy)) or (isinstance(t, App) and isinstance(t.fun, Abs)):
        return False
    return all(map(_ref_shaped, t.children()))


def _ref_is_value(t):
    return not _ref_free(t) and _ref_shaped(t)


def _ref_redexes(t, path=()):
    """Every redex of t in pre-order, by a walk that prunes nothing."""
    out = []
    if isinstance(t, App) and isinstance(t.fun, Abs):
        out.append(Redex(path, "beta"))
    elif isinstance(t, Proj) and isinstance(t.body, Pair):
        out.append(Redex(path, "proj"))
    elif isinstance(t, Copy) and _ref_is_value(t.scrutinee):
        out.append(Redex(path, "copy"))
    for i, c in enumerate(t.children()):
        out += _ref_redexes(c, path + (i,))
    return out


def _ref_size(t):
    return 1 + isinstance(t, Copy) + sum(map(_ref_size, t.children()))


def _distinct_subterms(t):
    seen, todo = {}, [t]
    while todo:
        s = todo.pop()
        if id(s) not in seen:
            seen[id(s)] = s
            todo.extend(s.children())
    return list(seen.values())


def _assert_flags(t):
    for s in _distinct_subterms(t):
        assert is_value(s) == _ref_is_value(s)
        assert redex_free(s) == (not _ref_redexes(s))


def _oracle_subjects(corpus):
    out = [(e.name, e.derivation.conclusion.subject) for e in corpus]
    for name, gen, base in (("ladd(1,6)", gen_ladd, unit_type()),
                            ("add(B,6)", gen_add, bool_type())):
        _, d = gen(6, base)
        out.append((name, gen_applied(d, maximal_value(base)[1]).conclusion.subject))
    return out


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_descent_picks_the_reference_redex(corpus, strategy):
    pick = 0 if strategy == "leftmost" else -1
    for name, t in _oracle_subjects(corpus):
        res = normalize(t, strategy=strategy, keep_trace=True)
        before = t
        for r, after in res.trace:
            ref = _ref_redexes(before)
            assert r == ref[pick], name
            assert find_redexes(before) == ref, name
            before = after
        assert res.term is before and _ref_redexes(before) == [], name
        assert redex_free(before) and find_redexes(before) == [], name


@pytest.mark.parametrize("text, leftmost, rightmost", [
    # the root copy's scrutinee becomes a value only after two contractions
    # two levels down
    ("copy[\\x. x] <(\\y. y) (\\z. z), (\\w. w) (\\u. u)> as a,b in <a, b>",
     [(1, 0), (1, 1), ()], [(1, 1), (1, 0), ()]),
    # contracting the function makes the root a beta redex
    ("((\\f. f) (\\x. \\y. x)) (p1(<\\a. a, \\b. b>))",
     [(0,), (), (0,)], [(1,), (0,), ()]),
    # the root's body is a pair only after two contractions, the first of
    # them at a redex that already sat there
    ("p1(p2(<\\q. q, (\\r. r) <\\s. s, \\t. t>>))",
     [(0,), (0,), ()], [(0, 0, 1), (0,), ()]),
])
def test_a_step_can_make_an_ancestor_a_redex(text, leftmost, rightmost):
    t = parse_term(text)
    for strategy, paths in (("leftmost", leftmost), ("rightmost", rightmost)):
        res = normalize(t, strategy, keep_trace=True)
        assert [r.path for r, _ in res.trace] == paths, strategy
        assert res.term == normalize(t, "random", seed=0).term


BUDGET = 12


def _ref_normalize(t, pick):
    """The trace of contracting the reference's first (or last) redex, up to
    BUDGET + 1 steps."""
    trace = []
    while len(trace) <= BUDGET:
        rs = _ref_redexes(t)
        if not rs:
            break
        t = step(t, rs[pick])
        trace.append((rs[pick], t))
    return trace


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_walk_matches_the_reference_step_by_step(drawn_terms, data):
    t = data.draw(drawn_terms)
    for strategy, pick in (("leftmost", 0), ("rightmost", -1)):
        ref = _ref_normalize(t, pick)
        if len(ref) > BUDGET:  # no normal form within the budget
            with pytest.raises(BudgetExceeded):
                normalize(t, strategy, budget=BUDGET)
            continue
        res = normalize(t, strategy, budget=len(ref), keep_trace=True)
        assert res.trace == ref, strategy
        assert res.steps == len(ref)
        assert res.term is (res.trace[-1][1] if ref else t)
        if ref:
            with pytest.raises(BudgetExceeded):
                normalize(t, strategy, budget=len(ref) - 1)


def test_flags_match_reference_along_reductions(corpus):
    # every term a leftmost normalization visits, including the nodes that
    # substitution and replacement build
    for name, t in _oracle_subjects(corpus):
        _assert_flags(t)
        for _, after in normalize(t, keep_trace=True).trace:
            _assert_flags(after)
            assert term_size(after) == _ref_size(after), name


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flags_match_reference_after_subst(corpus, data):
    subjects = [e.derivation.conclusion.subject for e in corpus]
    t = data.draw(st.sampled_from(subjects))
    s = data.draw(st.sampled_from(_distinct_subterms(t)))
    u = data.draw(st.sampled_from(_distinct_subterms(data.draw(st.sampled_from(subjects)))))
    fv = sorted(free_vars(s))
    out = subst(s, data.draw(st.sampled_from(fv)), u) if fv else s
    _assert_flags(out)
    assert term_size(out) == _ref_size(out)


# -- deep terms and the cost of a step ----------------------------------------

DEEP = 1500


def _under_binders(body):
    for i in reversed(range(DEEP)):
        body = Abs("v%d" % i, body)
    return body


def test_deep_normal_term_takes_no_steps():
    t = _under_binders(Var("v0"))
    for strategy in ("leftmost", "rightmost", "random"):
        assert normalize(t, strategy=strategy, seed=0).steps == 0
    assert find_redexes(t) == []
    assert term_size(t) == DEEP + 1


def test_deep_redex_takes_one_step():
    t = _under_binders(App(identity_term(), Var("v0")))
    assert [r.path for r in find_redexes(t)] == [(0,) * DEEP]
    res = normalize(t)
    assert res.steps == 1
    body = res.term
    for _ in range(DEEP):
        body = body.body
    assert body == Bound(DEEP - 1)  # the outermost binder, v0


def test_normalize_costs_local_work(monkeypatch):
    # Normalizing the duplicator of B*B*B applied to an inhabitant takes 775
    # steps on a term of 2,393 nodes.  Rescanning the whole term at every
    # step looks at about 955k nodes.
    b = bool_type()
    a = tensor_type(tensor_type(b, b), b)
    lib = GadgetLibrary()
    tv = translate_derivation(enumerate_inhabitants(a).members[0][1], lib)
    m = d_app(lib.duplicator(a), tv).conclusion.subject
    calls = 0
    real = reduce.redex_kind_at

    def counted(t):
        nonlocal calls
        calls += 1
        return real(t)

    monkeypatch.setattr(reduce, "redex_kind_at", counted)
    res = normalize(m)
    assert res.steps == 775
    assert calls <= 10 * term_size(m)


def test_a_step_costs_its_contraction_not_its_depth(monkeypatch):
    # 300 nested I (...) under 1,500 binders: every redex sits 1,500 nodes
    # down.  Descending from the root and rebuilding the path at each step
    # made 450,900 redex_kind_at calls leftmost and rebuilt 450,000 nodes
    # (494,850 rightmost).
    body = Var("v0")
    for _ in range(300):
        body = App(identity_term(), body)
    t = _under_binders(body)
    calls = {"redex_kind_at": 0, "with_children": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(reduce, "redex_kind_at",
                        counted("redex_kind_at", reduce.redex_kind_at))
    for cls in (Term, Abs, Proj, Copy):  # App and Pair inherit Term's
        monkeypatch.setattr(cls, "with_children",
                            counted("with_children", cls.with_children))
    for strategy in ("leftmost", "rightmost"):
        for name in calls:
            calls[name] = 0
        res = normalize(t, strategy)
        assert res.steps == 300
        assert res.term == _under_binders(Var("v0"))
        assert calls["redex_kind_at"] <= 2 * (DEEP + 300), strategy
        assert calls["with_children"] <= 2 * (DEEP + 300), strategy

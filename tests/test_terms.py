from linadd.nameless import fresh, references, shift
from linadd.terms import (
    Abs, App, Copy, Pair, Proj, Var,
    alpha_equal, free_vars, identity_term,
    is_value, let_tensor, let_unit, subst, tensor_term, term_size,
)


I = identity_term()


def match_tensor_term(t):
    """Oracle: (M, N) when t is tensor_term(M, N), else None, read off the
    shape and then rebuilt."""
    try:
        m, n = t.body.fun.arg, t.body.arg
    except AttributeError:
        return None
    if references(m, 0) or references(n, 0):
        return None
    m, n = shift(m, -1), shift(n, -1)
    return (m, n) if tensor_term(m, n) == t else None


def is_term(t) -> bool:
    """Oracle: a raw term is a term proper when every copy guard is a
    value."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Copy) and not is_value(t.guard):
            return False
        todo += t.children()
    return True


def test_identity_size():
    assert term_size(I) == 2


def test_variable_size():
    assert term_size(Var("x")) == 1


def test_app_pair_sizes():
    m = App(Var("x"), Var("y"))
    assert term_size(m) == 3
    assert term_size(Pair(Var("x"), Var("y"))) == 3
    assert term_size(Proj(1, Var("x"))) == 2


def test_copy_size_counts_guard_scrutinee_and_branches():
    # |copy| = |guard| + |scrutinee| + |<P,Q>| + 1
    c = Copy(I, Var("x"), "x1", "x2", Var("x1"), Var("x2"))
    assert term_size(c) == 2 + 1 + 3 + 1


def test_true_encoding_size():
    # tt = \x.\y.\z. z x y has size 8
    tt = Abs("x", Abs("y", Abs("z", App(App(Var("z"), Var("x")), Var("y")))))
    assert term_size(tt) == 8


def test_tensor_macro_shape():
    # M * N is \z. z M N
    t = tensor_term(Var("a"), Var("b"))
    got = match_tensor_term(t)
    assert got is not None
    assert alpha_equal(got[0], Var("a")) and alpha_equal(got[1], Var("b"))
    assert term_size(t) == 6  # \z. (z a) b


def test_let_macros_are_applications():
    # let M be I in N is M N; let M be x*y in N is M (\x.\y. N)
    m, n = Var("m"), Var("n")
    assert alpha_equal(let_unit(m, n), App(m, n))
    t = let_tensor(m, "x", "y", App(Var("x"), Var("y")))
    assert alpha_equal(t, App(m, Abs("x", Abs("y", App(Var("x"), Var("y"))))))


def test_free_vars_copy_binds_branch_vars():
    c = Copy(I, Var("x"), "x1", "x2", Var("x1"), Var("x2"))
    assert free_vars(c) == frozenset({"x"})


def test_subst_capture_avoiding():
    # (\y. x y)[x := y] must not capture
    t = Abs("y", App(Var("x"), Var("y")))
    out = subst(t, "x", Var("y"))
    assert alpha_equal(out, Abs("z", App(Var("y"), Var("z"))))


def test_alpha_equal_renames_binders():
    assert alpha_equal(Abs("x", Var("x")), Abs("y", Var("y")))
    assert not alpha_equal(Abs("x", Var("x")), Abs("x", Abs("y", Var("x"))))


def test_alpha_equivalent_terms_are_equal_and_hash_alike():
    assert Abs("x", Var("x")) == Abs("q", Var("q"))
    assert hash(Abs("x", Var("x"))) == hash(Abs("q", Var("q")))


def test_rename_var():
    # renaming a free variable is substituting a variable for it
    assert alpha_equal(subst(App(Var("x"), I), "x", Var("y")), App(Var("y"), I))


def test_fresh_name_avoids():
    # the first base_k not in scope, whatever was asked before
    assert fresh("x", {"x_0", "x_1"}) == "x_2"
    assert fresh("x", {"x_0", "x_1"}) == "x_2"
    assert fresh("x_7", {"x", "x_1"}) == fresh("x1", ()) == "x_0"


def test_is_value():
    assert is_value(I)
    assert is_value(Pair(I, I))
    assert not is_value(Var("x"))                       # open
    assert not is_value(Proj(1, Pair(I, I)))            # projection
    assert not is_value(App(I, I))                      # redex
    assert not is_value(Copy(I, I, "a", "b", Var("a"), Var("b")))


def test_is_term_rejects_non_value_guard():
    bad = Copy(App(I, I), Var("x"), "a", "b", Var("a"), Var("b"))
    assert not is_term(bad)
    good = Copy(I, Var("x"), "a", "b", Var("a"), Var("b"))
    assert is_term(good)

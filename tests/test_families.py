import pytest

from linadd.derivation import check, check_ok, metrics
from linadd.families import (
    gen_add, gen_applied, gen_ladd, ladd_size_formula, pair_tower,
    value_tower_derivation, with_tower,
)
from linadd.frontend import parse_type
from linadd.inhabit import InhabitError, maximal_value
from linadd.terms import Abs, alpha_equal, identity_term, term_size
from linadd.translate import identity_derivation
from linadd.typesys import With, bool_type, unit_type


ONE = unit_type()
B = bool_type()
ID = identity_derivation()


def test_with_tower():
    assert with_tower(ONE, 0) == ONE
    assert with_tower(ONE, 2) == With(With(ONE, ONE), With(ONE, ONE))


def test_pair_tower_sizes():
    # |M_[n]| = 2 |M_[n-1]| + 1
    sizes = [term_size(pair_tower(identity_term(), n)) for n in range(5)]
    assert sizes[0] == 2
    assert all(b == 2 * a + 1 for a, b in zip(sizes, sizes[1:]))


def test_add_size_law():
    for n in range(9):
        assert term_size(gen_add(n, ONE)[0].body) == 5 * n + 1


def test_family_members_have_at_least_0_levels():
    for gen in (gen_add, gen_ladd):
        with pytest.raises(ValueError):
            gen(-1, ONE)


def test_ladd_over_an_uninhabited_base():
    with pytest.raises(InhabitError):
        gen_ladd(1, parse_type("forall a. a"))


def test_add_checks_in_imall2_but_not_lam():
    _, d = gen_add(2, ONE)
    assert check(d, "imall2") == []
    assert check(d, "lam")


def test_ladd_checks_in_lam():
    for n in range(4):
        _, d = gen_ladd(n, ONE)
        check_ok(d)


def test_ladd_size_matches_closed_form():
    guard = term_size(maximal_value(ONE)[0])
    for n in range(6):
        t, _ = gen_ladd(n, ONE)
        assert isinstance(t, Abs)
        assert term_size(t.body) == ladd_size_formula(n, guard)


def test_ladd_over_bool_size():
    guard = term_size(maximal_value(B)[0])
    assert guard == 8
    for n in range(4):
        t, _ = gen_ladd(n, B)
        assert term_size(t.body) == ladd_size_formula(n, guard)


def test_value_tower_derivation():
    d = value_tower_derivation(ID, 2)
    check_ok(d)
    assert d.conclusion.goal == with_tower(ONE, 2)
    assert alpha_equal(d.conclusion.subject, pair_tower(identity_term(), 2))


def test_applied_family_is_forall_lazy_at_the_root():
    from linadd.typesys import judgement_is_forall_lazy
    _, d = gen_ladd(3, ONE)
    applied = gen_applied(d, ID)
    j = applied.conclusion
    assert judgement_is_forall_lazy(j.context_types(), j.goal)


def test_ladd_derivation_weight_is_n():
    for n in range(5):
        _, d = gen_ladd(n, ONE)
        assert metrics(d).weight == n

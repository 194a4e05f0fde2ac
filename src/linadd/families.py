"""Generator families exhibiting the additive size blowup and its linear cure.

`gen_add` nests plain additive pairs: the subject duplicates its argument at
every level, so normal forms explode exponentially while the redex count stays
linear.  `gen_ladd` is the linearly-additive counterpart: each level guards a
copy construct with the largest value of the level type, the derivation uses
the single-assumption pair rule, and reduction strictly shrinks the term.
"""

from __future__ import annotations

from .terms import Abs, App, Copy, Pair, Var, Term
from .typesys import Type, With
from .derivation import (
    Derivation, d_app, d_ax, d_lolliR, d_withR, d_withR0, d_withR1,
)
from .inhabit import maximal_value


def with_tower(a: Type, n: int) -> Type:
    """A_[n]: the n-fold balanced conjunction of a type with itself."""
    for _ in range(n):
        a = With(a, a)
    return a


def pair_tower(m: Term, n: int) -> Term:
    """M_[n]: the n-fold balanced pair of a term with itself."""
    for _ in range(n):
        m = Pair(m, m)
    return m


def add_term(n: int, x: str = "x") -> Term:
    """x when n = 0, else (\\y. add_{n-1}) <x, x>."""
    if n == 0:
        return Var(x)
    y = "y%d" % n
    return App(Abs(y, add_term(n - 1, y)), Pair(Var(x), Var(x)))


def gen_add(n: int, a: Type):
    """(term, derivation) for the nested additive pairs family:
    |- \\x. add_n : A -o A_[n], derivable with the shared-context pair rule
    (so outside the linear fragment for n > 0).  |add_n| = 5n + 1."""

    def go(n, x, a):
        # derivation of x : A_[k] |- add_n : A_[k+n]
        if n == 0:
            return d_ax(x, a)
        pair = d_withR(d_ax(x, a), d_ax(x, a))
        y = "y%d" % n
        body = d_lolliR(go(n - 1, y, With(a, a)), y)
        return d_app(body, pair)

    x = "x"
    d = d_lolliR(go(n, x, a), x)
    return d.conclusion.subject, d


def value_tower_derivation(base: Derivation, k: int) -> Derivation:
    """From a closed value derivation |- V : A, the derivation of
    |- V_[k] : A_[k] by nested empty-context pair rules."""
    for _ in range(k):
        base = d_withR0(base, base)
    return base


def ladd_term(n: int, x: str, guard_tower) -> Term:
    """x when n = 0, else (\\y. ladd_{n-1})(copy[V_[k]] x as x1,x2 in <x1,x2>)."""
    if n == 0:
        return Var(x)
    y = "y%d" % n
    cp = Copy(guard_tower(0), Var(x), "x1", "x2", Var("x1"), Var("x2"))
    return App(Abs(y, ladd_term(n - 1, y, lambda i: guard_tower(i + 1))), cp)


def gen_ladd(n: int, a: Type):
    """(term, derivation) for the linear-additive family:
    |- \\x. ladd_n : A -o A_[n] with level-k copies guarded by V_[k], where V
    is the size-maximal value of the closed forall-lazy base type.
    |ladd_n| = 7n + sum of the guard sizes + 1; reduction takes 2n+1 steps
    on a value argument and shrinks the term at every step."""
    mv = maximal_value(a)
    if mv is None:
        raise ValueError("base type is uninhabited")
    _, vd = mv

    def go(n, x, k, a):
        # derivation of x : A_[k] |- ladd_n : A_[k+n]
        if n == 0:
            return d_ax(x, a)
        guard = value_tower_derivation(vd, k)
        cp = d_withR1(d_ax("x1", a), d_ax("x2", a), guard, x)
        y = "y%d" % n
        body = d_lolliR(go(n - 1, y, k + 1, With(a, a)), y)
        return d_app(body, cp)

    x = "x"
    d = d_lolliR(go(n, x, 0, a), x)
    return d.conclusion.subject, d


def ladd_size_formula(n: int, guard_size: int) -> int:
    """Closed form for |ladd_n|: guard at level k has size
    2^k (g+1) - 1 for base guard size g."""
    total = sum(2 ** i * (guard_size + 1) - 1 for i in range(n))
    return 7 * n + total + 1


def gen_applied(gen_deriv: Derivation, value_deriv: Derivation) -> Derivation:
    """Closed application |- (\\x. f) V : A_[n] of a family member to a value;
    the root judgement is forall-lazy whenever the base type is closed."""
    return d_app(gen_deriv, value_deriv)

"""Generator families exhibiting the additive size blowup and its linear cure.

`gen_add` nests plain additive pairs: the subject duplicates its argument at
every level, so normal forms explode exponentially while the redex count stays
linear.  `gen_ladd` is the linearly-additive counterpart: each level guards a
copy construct with the largest value of the level type, the derivation uses
the single-assumption pair rule, and reduction strictly shrinks the term.
"""

from __future__ import annotations

from .terms import Pair, Term
from .typesys import Type, With
from .derivation import (
    Derivation, d_app, d_ax, d_lolliR, d_withR, d_withR0, d_withR1,
)
from .inhabit import InhabitError, maximal_value


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


def _nest(n: int, a: Type, arg):
    """(term, derivation) of |- \\x. M : A -o A_[n]: at depth j < n, with
    x_j : A_[j] the variable of that depth (x_0 = x), M is (\\x_{j+1}. [M at
    depth j + 1]) arg(j, x_j, A_[j]), and at depth n it is x_n.  Built from
    the innermost level out, in a loop."""
    if n < 0:
        raise ValueError("a family member has n >= 0 levels, not %d" % n)
    towers = [a]  # towers[j] = A_[j]
    for _ in range(n):
        towers.append(With(towers[-1], towers[-1]))
    names = ["x"] + ["y%d" % k for k in range(n, 0, -1)]  # by depth
    d = d_ax(names[n], towers[n])
    for j in range(n - 1, -1, -1):
        d = d_app(d_lolliR(d, names[j + 1]), arg(j, names[j], towers[j]))
    d = d_lolliR(d, "x")
    return d.conclusion.subject, d


def gen_add(n: int, a: Type):
    """(term, derivation) for the nested additive pairs family:
    |- \\x. add_n : A -o A_[n], with add_0 = x and add_n =
    (\\y. add_{n-1}) <x, x>, derivable with the shared-context pair rule
    (so outside the linear fragment for n > 0).  |add_n| = 5n + 1."""
    return _nest(n, a, lambda j, x, aj: d_withR(d_ax(x, aj), d_ax(x, aj)))


def value_tower_derivation(base: Derivation, k: int) -> Derivation:
    """From a closed value derivation |- V : A, the derivation of
    |- V_[k] : A_[k] by nested empty-context pair rules."""
    for _ in range(k):
        base = d_withR0(base, base)
    return base


def gen_ladd(n: int, a: Type):
    """(term, derivation) for the linear-additive family:
    |- \\x. ladd_n : A -o A_[n], with ladd_0 = x and ladd_n =
    (\\y. ladd_{n-1})(copy[V_[k]] x as x1,x2 in <x1,x2>) at depth k, where V
    is the size-maximal value of the closed forall-lazy base type.
    |ladd_n| = 7n + sum of the guard sizes + 1; reduction takes 2n+1 steps
    on a value argument and shrinks the term at every step."""
    mv = maximal_value(a)
    if mv is None:
        raise InhabitError("base type is uninhabited")
    guards = [mv[1]]  # guards[k] derives V_[k]
    for _ in range(n):
        guards.append(d_withR0(guards[-1], guards[-1]))
    return _nest(n, a, lambda k, x, ak: d_withR1(
        d_ax("x1", ak), d_ax("x2", ak), guards[k], x))


def ladd_size_formula(n: int, guard_size: int) -> int:
    """Closed form for |ladd_n|: guard at level k has size
    2^k (g+1) - 1 for base guard size g."""
    total = sum(2 ** i * (guard_size + 1) - 1 for i in range(n))
    return 7 * n + total + 1


def gen_applied(gen_deriv: Derivation, value_deriv: Derivation) -> Derivation:
    """Closed application |- (\\x. f) V : A_[n] of a family member to a value;
    the root judgement is forall-lazy whenever the base type is closed."""
    return d_app(gen_deriv, value_deriv)

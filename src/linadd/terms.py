"""Term syntax for the copy calculus.

The term language is the linear lambda calculus extended with additive pairs,
projections, and a guarded duplication construct:

    M ::= x | \\x. M | M N | <M, N> | p1(M) | p2(M)
        | copy[V] M as x,y in <P, Q>

`copy` binds its first branch variable in the left branch and the second in
the right branch; the guard V must be a value.  Tensor pairs, the identity
combinator, and the two let forms are macros and are expanded on construction
(see `frontend`); they never appear as distinct node kinds.

Terms are locally nameless (see `nameless`): a bound variable is a `Bound`
index and a free one a named `Var`; `Abs.var`, `Copy.left_var` and
`Copy.right_var` are only print hints.  `Abs(x, M)` and `Copy(g, s, x, y, L,
R)` bind the free x (and y) of their bodies; with `scoped` set, the bodies
already refer to their binders by index.  So `==` is structural and is
alpha-equivalence (`alpha_equal`), the hash is structural and stored,
contracting a beta or copy redex is one `open_term`, and `subst` cannot
capture.  Nodes are immutable, so shared subterms are cheap, and the helpers
below memoize on node identity so DAG-shaped terms stay tractable.

Besides its free variables, looseness and hash (see `nameless`), each node
stores, when it is built, whether it is value-shaped (`is_value`: no
projection, no copy and no beta redex anywhere below) and whether it is
redex-free (`reduce.redex_free`), each read off its children's stored flags
and its own shape.  So a term built by substitution or by replacing a
subterm costs only its new nodes, the queries read one slot, and a search
can skip every subtree it knows is done.
"""

from __future__ import annotations

from .nameless import (
    Node, bind, free_names, index_leaf, instantiate, name_leaf, over,
    shift, size, substitute,
)


class Term(Node):
    # An inner node's hash is that of (its class, its datum or None, its
    # children's hashes).
    __slots__ = ("_fv", "_loose", "_hash", "_value_shaped", "_redex_free")

    def __getitem__(self, path):
        t = self
        for i in path:
            t = t.children()[i]
        return t


class Var(Term):
    __slots__ = ("name",)
    datum = "name"
    free_var = True

    def __init__(self, name: str):
        name_leaf(self, name)
        self._value_shaped = self._redex_free = True


class Bound(Term):
    """The variable bound `index` binders out."""

    __slots__ = ("index",)
    datum = "index"
    bound_var = True

    def __init__(self, index: int):
        index_leaf(self, index)
        self._value_shaped = self._redex_free = True


class Abs(Term):
    __slots__ = ("var", "body")
    binds = (1,)

    def __init__(self, var: str, body: Term, scoped: bool = False):
        if not scoped and var in body._fv:
            body = bind(body, var, Bound)
        self.var = var
        self.body = body
        self._fv = body._fv
        self._loose = body._loose - 1 if body._loose > 1 else 0
        self._hash = hash((Abs, None, body._hash))
        self._value_shaped = body._value_shaped
        self._redex_free = body._redex_free

    def children(self):
        return (self.body,)

    def with_children(self, kids):
        return Abs(self.var, kids[0], True)


class App(Term):
    __slots__ = ("fun", "arg")
    binds = (0, 0)

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        over(self, fun, arg)
        self._hash = hash((App, None, fun._hash, arg._hash))
        beta = fun.__class__ is Abs
        self._value_shaped = fun._value_shaped and arg._value_shaped and not beta
        self._redex_free = fun._redex_free and arg._redex_free and not beta

    def children(self):
        return (self.fun, self.arg)


class Pair(Term):
    __slots__ = ("left", "right")
    binds = (0, 0)

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        over(self, left, right)
        self._hash = hash((Pair, None, left._hash, right._hash))
        self._value_shaped = left._value_shaped and right._value_shaped
        self._redex_free = left._redex_free and right._redex_free

    def children(self):
        return (self.left, self.right)


class Proj(Term):
    __slots__ = ("index", "body")  # index 1 or 2
    binds = (0,)
    datum = "index"

    def __init__(self, index: int, body: Term):
        self.index = index
        self.body = body
        self._fv = body._fv
        self._loose = body._loose
        self._hash = hash((Proj, index, body._hash))
        self._value_shaped = False
        self._redex_free = body._redex_free and body.__class__ is not Pair

    def children(self):
        return (self.body,)

    def with_children(self, kids):
        return Proj(self.index, *kids)


class Copy(Term):
    """copy[guard] scrutinee as left_var, right_var in <left_branch, right_branch>"""

    __slots__ = ("guard", "scrutinee", "left_var", "right_var", "left_branch",
                 "right_branch")
    binds = (0, 0, 1, 1)
    weight = 2

    def __init__(self, guard, scrutinee, left_var, right_var, left_branch,
                 right_branch, scoped: bool = False):
        if not scoped:
            left_branch = close_term(left_branch, left_var)
            right_branch = close_term(right_branch, right_var)
        self.guard, self.scrutinee = guard, scrutinee
        self.left_var, self.right_var = left_var, right_var
        self.left_branch, self.right_branch = left_branch, right_branch
        over(self, guard, scrutinee)
        for branch in (left_branch, right_branch):
            if branch._fv:
                self._fv = self._fv | branch._fv
            if branch._loose - 1 > self._loose:
                self._loose = branch._loose - 1
        self._hash = hash((Copy, None, guard._hash, scrutinee._hash,
                           left_branch._hash, right_branch._hash))
        self._value_shaped = False
        self._redex_free = (guard._redex_free and scrutinee._redex_free
                            and left_branch._redex_free and right_branch._redex_free
                            and not is_value(scrutinee))

    def children(self):
        return (self.guard, self.scrutinee, self.left_branch, self.right_branch)

    def with_children(self, kids):
        g, s, l, r = kids
        return Copy(g, s, self.left_var, self.right_var, l, r, True)


# -- macro constructors -------------------------------------------------------

def identity_term() -> Term:
    return Abs("x", Bound(0), True)


def tensor_term(m: Term, n: Term, scoped: bool = False) -> Term:
    """M * N expands to \\z. z M N.  Indices of M and N that point past them
    are shifted past the new binder, unless `scoped`."""
    m, n = (m, n) if scoped else (shift(m, 1), shift(n, 1))
    return Abs("z", App(App(Bound(0), m), n), True)


def let_unit(m: Term, n: Term) -> Term:
    """let M be I in N expands to M N."""
    return App(m, n)


def let_tensor(m: Term, x: str, y: str, n: Term, scoped: bool = False) -> Term:
    """let M be x*y in N expands to M (\\x.\\y. N).  With `scoped`, N
    already refers to y as Bound(0) and to x as Bound(1)."""
    return App(m, Abs(x, Abs(y, n, scoped), scoped))


# Node count with |x| = 1, unary constructs +1, binary constructs +1; the
# copy construct counts guard, scrutinee, and its branch pair.
term_size = size
free_vars = free_names
subst = substitute
open_term = instantiate


def close_term(t: Term, x: str) -> Term:
    """The body of a binder over the free x of t."""
    return bind(t, x, Bound)


def alpha_equal(t1: Term, t2: Term) -> bool:
    return t1 == t2


# -- values -------------------------------------------------------------------

def is_value(t: Term) -> bool:
    """Closed, projection/copy-free, beta-normal terms; these are the only
    terms admitted as copy guards and the only closed normal forms of the
    lazy fragment."""
    return not t._fv and not t._loose and t._value_shaped

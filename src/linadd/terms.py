"""Term syntax for the copy calculus.

The term language is the linear lambda calculus extended with additive pairs,
projections, and a guarded duplication construct:

    M ::= x | \\x. M | M N | <M, N> | p1(M) | p2(M)
        | copy[V] M as x,y in <P, Q>

`copy` binds its first branch variable in the left branch and the second in
the right branch; the guard V must be a value.  Tensor pairs, the identity
combinator, and the two let forms are macros and are expanded on construction
(see `frontend`); they never appear as distinct node kinds.

Nodes are immutable and compare by identity; use `alpha_equal` (or
`canonical_key` for hashing) to compare modulo bound-variable names.  Shared
subterms are therefore cheap, and the size/free-variable helpers memoize on
node identity so DAG-shaped terms stay tractable.

Each node carries three lazily filled cache slots: its free variables
(`free_vars`), whether it is value-shaped (`is_value`: no projection, no copy
and no beta redex anywhere below), and whether it is redex-free
(`reduce.redex_free`).  The two flags are computed by `cache_up`, a
post-order walk without recursion that stops at nodes already filled, so a
term built by substitution or by replacing a subterm costs only its new
nodes, and a search can skip every subtree it knows is done.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from operator import methodcaller


@dataclass(frozen=True, eq=False)
class Term:
    __slots__ = ("_fv", "_value_shaped", "_redex_free")

    def children(self) -> tuple["Term", ...]:
        raise NotImplementedError

    def __getitem__(self, path):
        t = self
        for i in path:
            t = t.children()[i]
        return t


@dataclass(frozen=True, eq=False)
class Var(Term):
    __slots__ = ("name",)
    name: str

    def children(self):
        return ()


@dataclass(frozen=True, eq=False)
class Abs(Term):
    __slots__ = ("var", "body")
    var: str
    body: Term

    def children(self):
        return (self.body,)


@dataclass(frozen=True, eq=False)
class App(Term):
    __slots__ = ("fun", "arg")
    fun: Term
    arg: Term

    def children(self):
        return (self.fun, self.arg)


@dataclass(frozen=True, eq=False)
class Pair(Term):
    __slots__ = ("left", "right")
    left: Term
    right: Term

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class Proj(Term):
    __slots__ = ("index", "body")
    index: int  # 1 or 2
    body: Term

    def children(self):
        return (self.body,)


@dataclass(frozen=True, eq=False)
class Copy(Term):
    """copy[guard] scrutinee as left_var, right_var in <left_branch, right_branch>"""

    __slots__ = (
        "guard",
        "scrutinee",
        "left_var",
        "right_var",
        "left_branch",
        "right_branch",
    )
    guard: Term
    scrutinee: Term
    left_var: str
    right_var: str
    left_branch: Term
    right_branch: Term

    def children(self):
        return (self.guard, self.scrutinee, self.left_branch, self.right_branch)


_fresh_counter = itertools.count()


def fresh_name(base: str = "v", avoid=()) -> str:
    base = base.rstrip("0123456789_") or "v"
    avoid = set(avoid)
    while True:
        cand = "%s_%d" % (base, next(_fresh_counter))
        if cand not in avoid:
            return cand


# -- macro constructors -------------------------------------------------------

def identity_term() -> Term:
    return Abs("x", Var("x"))


def tensor_term(m: Term, n: Term) -> Term:
    """M * N expands to \\z. z M N with z fresh."""
    z = fresh_name("z", free_vars(m) | free_vars(n))
    return Abs(z, App(App(Var(z), m), n))


def let_unit(m: Term, n: Term) -> Term:
    """let M be I in N expands to M N."""
    return App(m, n)


def let_tensor(m: Term, x: str, y: str, n: Term) -> Term:
    """let M be x*y in N expands to M (\\x.\\y. N)."""
    return App(m, Abs(x, Abs(y, n)))


def match_tensor_term(t: Term):
    """Recognize the \\z. z M N shape produced by tensor_term."""
    if (
        isinstance(t, Abs)
        and isinstance(t.body, App)
        and isinstance(t.body.fun, App)
        and isinstance(t.body.fun.fun, Var)
        and t.body.fun.fun.name == t.var
        and t.var not in free_vars(t.body.fun.arg)
        and t.var not in free_vars(t.body.arg)
    ):
        return t.body.fun.arg, t.body.arg
    return None


# -- measured, memoized traversals -------------------------------------------

def term_size(t: Term) -> int:
    """Node count with |x| = 1, unary constructs +1, binary constructs +1;
    the copy construct counts guard, scrutinee, and its branch pair."""
    sizes: dict[int, int] = {}
    stack = [t]
    while stack:
        n = stack.pop()
        if n is None:  # the node below has all its children done
            n = stack.pop()
            s = 1 + isinstance(n, Copy)
            for c in n.children():
                s += sizes[id(c)]
            sizes[id(n)] = s
        elif id(n) not in sizes:
            stack += (n, None)
            stack += n.children()
    return sizes[id(t)]


children = methodcaller("children")


def cache_up(root, slot: str, kids, combine):
    """The value `combine(n, [value of each of kids(n)])` at `root`, stored
    in slot `slot` of every node computed on the way.  A post-order walk with
    its own stack that descends only into nodes whose slot is still empty, so
    a query costs the nodes built since the last one and no recursion."""
    r = getattr(root, slot, None)
    if r is not None:
        return r
    stack = [root]
    while stack:
        n = stack.pop()
        if n is None:  # the node below has all its kids done
            n = stack.pop()
            object.__setattr__(n, slot, combine(n, [getattr(k, slot) for k in kids(n)]))
        elif getattr(n, slot, None) is None:
            stack += (n, None)
            stack += kids(n)
    return getattr(root, slot)


def free_vars(t: Term) -> frozenset:
    r = getattr(t, "_fv", None)
    if r is not None:
        return r
    if isinstance(t, Var):
        r = frozenset((t.name,))
    elif isinstance(t, Abs):
        r = free_vars(t.body) - {t.var}
    elif isinstance(t, Copy):
        r = (
            free_vars(t.guard)
            | free_vars(t.scrutinee)
            | (free_vars(t.left_branch) - {t.left_var})
            | (free_vars(t.right_branch) - {t.right_var})
        )
    else:
        r = frozenset()
        for c in t.children():
            r |= free_vars(c)
    object.__setattr__(t, "_fv", r)
    return r


def subst(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of s for free occurrences of x in t."""
    if x not in free_vars(t):
        return t
    fvs = free_vars(s)
    if isinstance(t, Var):
        return s if t.name == x else t
    if isinstance(t, Abs):
        v, body = t.var, t.body
        if v in fvs:
            v2 = fresh_name(v, fvs | free_vars(body))
            body = subst(body, v, Var(v2))
            v = v2
        return Abs(v, subst(body, x, s))
    if isinstance(t, App):
        return App(subst(t.fun, x, s), subst(t.arg, x, s))
    if isinstance(t, Pair):
        return Pair(subst(t.left, x, s), subst(t.right, x, s))
    if isinstance(t, Proj):
        return Proj(t.index, subst(t.body, x, s))
    if isinstance(t, Copy):
        lv, lb = t.left_var, t.left_branch
        if lv in fvs:
            lv2 = fresh_name(lv, fvs | free_vars(lb))
            lb = subst(lb, lv, Var(lv2))
            lv = lv2
        rv, rb = t.right_var, t.right_branch
        if rv in fvs:
            rv2 = fresh_name(rv, fvs | free_vars(rb))
            rb = subst(rb, rv, Var(rv2))
            rv = rv2
        return Copy(
            subst(t.guard, x, s),
            subst(t.scrutinee, x, s),
            lv,
            rv,
            subst(lb, x, s),
            subst(rb, x, s),
        )
    raise TypeError(t)


def rename_var(t: Term, old: str, new: str) -> Term:
    return subst(t, old, Var(new))


# -- alpha equivalence --------------------------------------------------------

def _canon(t: Term, env: dict, depth: int, out: list) -> None:
    if isinstance(t, Var):
        if t.name in env:
            out.append(("b", env[t.name]))
        else:
            out.append(("f", t.name))
    elif isinstance(t, Abs):
        out.append(("abs",))
        _canon(t.body, {**env, t.var: depth}, depth + 1, out)
    elif isinstance(t, App):
        out.append(("app",))
        _canon(t.fun, env, depth, out)
        _canon(t.arg, env, depth, out)
    elif isinstance(t, Pair):
        out.append(("pair",))
        _canon(t.left, env, depth, out)
        _canon(t.right, env, depth, out)
    elif isinstance(t, Proj):
        out.append(("proj", t.index))
        _canon(t.body, env, depth, out)
    elif isinstance(t, Copy):
        out.append(("copy",))
        _canon(t.guard, env, depth, out)
        _canon(t.scrutinee, env, depth, out)
        _canon(t.left_branch, {**env, t.left_var: depth}, depth + 1, out)
        _canon(t.right_branch, {**env, t.right_var: depth}, depth + 1, out)
    else:
        raise TypeError(t)


def canonical_key(t: Term) -> tuple:
    """Hashable key identifying t up to renaming of bound variables."""
    out: list = []
    _canon(t, {}, 0, out)
    return tuple(out)


def alpha_equal(t1: Term, t2: Term) -> bool:
    return t1 is t2 or canonical_key(t1) == canonical_key(t2)


# -- values -------------------------------------------------------------------

def _value_shaped_here(t: Term, kids: list) -> bool:
    return (all(kids) and not isinstance(t, (Proj, Copy))
            and not (isinstance(t, App) and isinstance(t.fun, Abs)))


def is_value(t: Term) -> bool:
    """Closed, projection/copy-free, beta-normal terms; these are the only
    terms admitted as copy guards and the only closed normal forms of the
    lazy fragment."""
    return (not free_vars(t)
            and cache_up(t, "_value_shaped", children, _value_shaped_here))


def is_term(t: Term) -> bool:
    """Raw terms qualify as terms proper when every copy guard is a value."""
    if isinstance(t, Copy) and not is_value(t.guard):
        return False
    return all(is_term(c) for c in t.children())

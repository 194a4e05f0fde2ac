"""Types: second-order linear implication with an additive conjunction.

    A ::= a | A -o B | A & B | forall a. A

`1` (the unit) and `A * B` (the tensor) are macros over -o and forall and are
expanded on construction.  Types compare and hash modulo renaming of bound
variables: `==` walks -o and & pairwise and compares a cached de-Bruijn
skeleton at each quantifier; the hash is the skeleton's, as required for
context lookup and memoized proof search.

Polarity of a subtype occurrence flips through the left of -o and is preserved
by & and forall.  The classifier predicates defined from polarity:

    closed       no free type variables
    forall_lazy  no negative occurrence of forall
    lazy         forall_lazy and no positive occurrence of &
    pi1          forall_lazy and no occurrence of & at all
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools


@dataclass(frozen=True, eq=False)
class Type:
    __slots__ = ("_skel", "_ftv")

    def _skeleton(self) -> tuple:
        s = getattr(self, "_skel", None)
        if s is None:
            s = _skel(self, {}, 0)
            object.__setattr__(self, "_skel", s)
        return s

    def __eq__(self, other):
        # Paired -o and & nodes are walked with a stack, and shared subtrees
        # are skipped by identity, so comparing a freshly built type costs
        # its new nodes; a node whose two children are one object on both
        # sides pushes that pair once, so a shared DAG such as
        # with_tower(t, n) costs n, not 2^n.  Only a quantifier compares
        # whole skeletons.
        if not isinstance(other, Type):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b):
                return False
            if kind is Lolli:
                if a.dom is a.cod and b.dom is b.cod:
                    stack.append((a.dom, b.dom))
                else:
                    stack += ((a.cod, b.cod), (a.dom, b.dom))
            elif kind is With:
                if a.left is a.right and b.left is b.right:
                    stack.append((a.left, b.left))
                else:
                    stack += ((a.right, b.right), (a.left, b.left))
            elif kind is TVar:
                if a.name != b.name:
                    return False
            elif a._skeleton() != b._skeleton():
                return False
        return True

    def __hash__(self):
        return hash(self._skeleton())


@dataclass(frozen=True, eq=False)
class TVar(Type):
    __slots__ = ("name",)
    name: str


@dataclass(frozen=True, eq=False)
class Lolli(Type):
    __slots__ = ("dom", "cod")
    dom: Type
    cod: Type


@dataclass(frozen=True, eq=False)
class With(Type):
    __slots__ = ("left", "right")
    left: Type
    right: Type


@dataclass(frozen=True, eq=False)
class Forall(Type):
    __slots__ = ("var", "body")
    var: str
    body: Type


def _skel(a: Type, env: dict, depth: int) -> tuple:
    if isinstance(a, TVar):
        if a.name in env:
            return ("b", env[a.name])
        return ("f", a.name)
    if isinstance(a, Lolli):
        return ("lolli", _skel(a.dom, env, depth), _skel(a.cod, env, depth))
    if isinstance(a, With):
        return ("with", _skel(a.left, env, depth), _skel(a.right, env, depth))
    if isinstance(a, Forall):
        return ("forall", _skel(a.body, {**env, a.var: depth}, depth + 1))
    raise TypeError(a)


def type_size(a: Type) -> int:
    if isinstance(a, TVar):
        return 1
    if isinstance(a, (Lolli, With)):
        l, r = (a.dom, a.cod) if isinstance(a, Lolli) else (a.left, a.right)
        return type_size(l) + type_size(r) + 1
    if isinstance(a, Forall):
        return type_size(a.body) + 1
    raise TypeError(a)


def free_type_vars(a: Type) -> frozenset:
    r = getattr(a, "_ftv", None)
    if r is not None:
        return r
    if isinstance(a, TVar):
        r = frozenset((a.name,))
    elif isinstance(a, Lolli):
        r = free_type_vars(a.dom) | free_type_vars(a.cod)
    elif isinstance(a, With):
        r = free_type_vars(a.left) | free_type_vars(a.right)
    elif isinstance(a, Forall):
        r = free_type_vars(a.body) - {a.var}
    else:
        raise TypeError(a)
    object.__setattr__(a, "_ftv", r)
    return r


_fresh_tv = itertools.count()


def fresh_type_var(base: str = "a", avoid=()) -> str:
    base = base.rstrip("0123456789_") or "a"
    avoid = set(avoid)
    while True:
        cand = "%s%d" % (base, next(_fresh_tv))
        if cand not in avoid:
            return cand


def subst_type(a: Type, x: str, b: Type) -> Type:
    """Capture-avoiding substitution of b for free occurrences of x in a."""
    if x not in free_type_vars(a):
        return a
    if isinstance(a, TVar):
        return b if a.name == x else a
    if isinstance(a, Lolli):
        return Lolli(subst_type(a.dom, x, b), subst_type(a.cod, x, b))
    if isinstance(a, With):
        return With(subst_type(a.left, x, b), subst_type(a.right, x, b))
    if isinstance(a, Forall):
        v, body = a.var, a.body
        if v in free_type_vars(b):
            v2 = fresh_type_var(v, free_type_vars(b) | free_type_vars(body))
            body = subst_type(body, v, TVar(v2))
            v = v2
        return Forall(v, subst_type(body, x, b))
    raise TypeError(a)


# -- macros -------------------------------------------------------------------

def unit_type() -> Type:
    """1, i.e. forall a. a -o a."""
    return Forall("a", Lolli(TVar("a"), TVar("a")))


def tensor_type(a: Type, b: Type) -> Type:
    """A * B, i.e. forall g. (A -o B -o g) -o g with g fresh."""
    g = fresh_type_var("g", free_type_vars(a) | free_type_vars(b))
    return Forall(g, Lolli(Lolli(a, Lolli(b, TVar(g))), TVar(g)))


def bool_type() -> Type:
    """B, i.e. forall a. a -o a -o a * a."""
    a = TVar("a")
    return Forall("a", Lolli(a, Lolli(a, tensor_type(a, a))))


def match_tensor_type(a: Type):
    """Return (L, R) when a is alpha-equal to tensor_type(L, R), else None."""
    if not isinstance(a, Forall):
        return None
    g, body = a.var, a.body
    if not (
        isinstance(body, Lolli)
        and isinstance(body.cod, TVar)
        and body.cod.name == g
        and isinstance(body.dom, Lolli)
        and isinstance(body.dom.cod, Lolli)
        and isinstance(body.dom.cod.cod, TVar)
        and body.dom.cod.cod.name == g
    ):
        return None
    l, r = body.dom.dom, body.dom.cod.dom
    if g in free_type_vars(l) or g in free_type_vars(r):
        return None
    return l, r


def is_unit_type(a: Type) -> bool:
    return a == unit_type()


# -- polarity and classifiers -------------------------------------------------

POS = "+"
NEG = "-"


def _flip(p: str) -> str:
    return NEG if p == POS else POS


def polarity_occurrences(a: Type, connective: str):
    """All occurrences of the given connective ('forall', 'with', 'lolli',
    'var') in a, paired with their polarity.  The type itself is a positive
    occurrence of its own head."""
    out = []
    kind = {TVar: "var", Lolli: "lolli", With: "with", Forall: "forall"}

    def go(t: Type, pol: str):
        if kind[type(t)] == connective:
            out.append((t, pol))
        if isinstance(t, Lolli):
            go(t.dom, _flip(pol))
            go(t.cod, pol)
        elif isinstance(t, With):
            go(t.left, pol)
            go(t.right, pol)
        elif isinstance(t, Forall):
            go(t.body, pol)

    go(a, POS)
    return out


def _has_occurrence(a: Type, connective: str, pol: str) -> bool:
    return any(p == pol for _, p in polarity_occurrences(a, connective))


def is_closed(a: Type) -> bool:
    return not free_type_vars(a)


def is_forall_lazy(a: Type) -> bool:
    return not _has_occurrence(a, "forall", NEG)


def is_lazy(a: Type) -> bool:
    return is_forall_lazy(a) and not _has_occurrence(a, "with", POS)


def is_pi1(a: Type) -> bool:
    return is_forall_lazy(a) and not polarity_occurrences(a, "with")


def classify_type(a: Type) -> frozenset:
    tags = set()
    if is_closed(a):
        tags.add("closed")
    if is_forall_lazy(a):
        tags.add("forall_lazy")
    if is_lazy(a):
        tags.add("lazy")
    if is_pi1(a):
        tags.add("pi1")
    return frozenset(tags)


def judgement_is_forall_lazy(context_types, goal: Type) -> bool:
    """A sequent A1,...,An |- B counts as forall-lazy when the folded type
    A1 -o ... -o An -o B is: no context type may contain a positive forall,
    and the goal no negative one."""
    if _has_occurrence(goal, "forall", NEG):
        return False
    return not any(_has_occurrence(t, "forall", POS) for t in context_types)

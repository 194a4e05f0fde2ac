"""Types: second-order linear implication with an additive conjunction.

    A ::= a | A -o B | A & B | forall a. A

`1` (the unit) and `A * B` (the tensor) are macros over -o and forall and are
expanded on construction.  Types are locally nameless (see `nameless`): a
bound type variable is a `TBound` index and a free one a named `TVar`, and
`Forall.var` is only a print hint.  So `==` is structural and is
alpha-equivalence, the hash is structural and stored at construction,
instantiating a quantifier is one `open_type`, and binding a name is one
`close_type`.
`Forall(a, A)` binds the free `a` of A; a function that walks below a
quantifier sees TBound(0) for its variable.

Polarity of a subtype occurrence flips through the left of -o and is preserved
by & and forall.  The classifier predicates defined from polarity:

    closed       no free type variables
    forall_lazy  no negative occurrence of forall
    lazy         forall_lazy and no positive occurrence of &
    pi1          forall_lazy and no occurrence of & at all

`closed` reads the stored free names.  The other three read a 4-bit
polarity summary (forall+, forall-, with+, with-, `_pol`) that each node
stores when it is built, from its children's: -o swaps the signs of its
domain's bits, & adds with+, forall adds forall+.  So a query reads one
slot, a shared subtree such as `with_tower(t, n)` is summarized once, and
no depth recurses.
`polarity_occurrences` lists the occurrences themselves by walking the type
as a tree; it is the reference that the summaries are tested against.
"""

from __future__ import annotations

from .nameless import (
    Node, bind, free_names, index_leaf, instantiate, loose, name_leaf,
    over, references, shift, size, substitute,
)


# The polarity summary of a type: which of these occur in it.  Each
# negative bit is its positive bit shifted left by one.
FORALL_POS, FORALL_NEG, WITH_POS, WITH_NEG = 1, 2, 4, 8
_POSITIVE = FORALL_POS | WITH_POS


class Type(Node):
    __slots__ = ("_fv", "_loose", "_hash", "_pol")

    def __eq__(self, other):
        # Node.__eq__ with the kinds spelled out: types are compared at
        # every rule, for every context entry and goal
        if not isinstance(other, Type):
            return NotImplemented
        stack = [self, other]
        pop = stack.pop
        while stack:
            b, a = pop(), pop()
            kind = a.__class__
            if a is b:
                continue
            if kind is not b.__class__:
                return False
            if kind is Lolli:
                x, y, u, v = a.dom, a.cod, b.dom, b.cod
            elif kind is With:
                x, y, u, v = a.left, a.right, b.left, b.right
            elif kind is Forall:
                stack += (a.body, b.body)
                continue
            elif (a.name != b.name) if kind is TVar else (a.index != b.index):
                return False
            else:
                continue
            stack += (x, u) if x is y and u is v else (y, v, x, u)
        return True

    __hash__ = Node.__hash__


class TVar(Type):
    __slots__ = ("name",)
    datum = "name"
    free_var = True

    def __init__(self, name: str):
        name_leaf(self, name)
        self._pol = 0


class TBound(Type):
    """The type variable bound `index` quantifiers out."""

    __slots__ = ("index",)
    datum = "index"
    bound_var = True

    def __init__(self, index: int):
        index_leaf(self, index)
        self._pol = 0


class Lolli(Type):
    __slots__ = ("dom", "cod")
    binds = (0, 0)

    def __init__(self, dom: Type, cod: Type):
        self.dom = dom
        self.cod = cod
        over(self, dom, cod)
        self._hash = hash((Lolli, dom._hash, cod._hash))
        pol = dom._pol  # its polarities flip
        self._pol = (pol & _POSITIVE) << 1 | (pol >> 1) & _POSITIVE | cod._pol

    def children(self):
        return (self.dom, self.cod)


class With(Type):
    __slots__ = ("left", "right")
    binds = (0, 0)

    def __init__(self, left: Type, right: Type):
        self.left = left
        self.right = right
        over(self, left, right)
        self._hash = hash((With, left._hash, right._hash))
        self._pol = left._pol | right._pol | WITH_POS

    def children(self):
        return (self.left, self.right)


class Forall(Type):
    """forall var. body, binding the free `var` of the given body; with
    `scoped`, the body already refers to it as TBound(0)."""

    __slots__ = ("var", "body")
    binds = (1,)

    def __init__(self, var: str, body: Type, scoped: bool = False):
        if not scoped and var in body._fv:
            body = bind(body, var, TBound)
        self.var = var
        self.body = body
        self._fv = body._fv
        self._loose = body._loose - 1 if body._loose > 1 else 0
        self._hash = hash((Forall, body._hash))
        self._pol = body._pol | FORALL_POS

    def children(self):
        return (self.body,)

    def with_children(self, kids):
        return Forall(self.var, kids[0], True)


type_size = size
free_type_vars = free_names
subst_type = substitute
open_type = instantiate


def close_type(a: Type, x: str) -> Type:
    """The body of a quantifier over the free x of a."""
    return bind(a, x, TBound)


def match_instantiation(quant: Forall, target: Type):
    """Find B with open_type(quant.body, B) == target, or None.  When the
    bound variable does not occur, any B works and (True, None)
    distinguishes that from failure.  One walk of both types together."""
    hit = None
    stack = [(quant.body, target, 0)]
    while stack:
        a, t, depth = stack.pop()
        if loose(a) <= depth:  # the bound variable does not occur here
            if a != t:
                return None
        elif isinstance(a, TBound):  # an occurrence: t is its instance
            if loose(t) or (hit is not None and hit != t):
                return None
            hit = t
        elif type(a) is not type(t):
            return None
        else:
            stack += [(x, y, depth + b)
                      for x, y, b in zip(a.children(), t.children(), a.binds)]
    return (True, hit)


# -- macros -------------------------------------------------------------------

def unit_type() -> Type:
    """1, i.e. forall a. a -o a."""
    a = TBound(0)
    return Forall("a", Lolli(a, a), True)


def tensor_type(a: Type, b: Type, scoped: bool = False) -> Type:
    """A * B, i.e. forall g. (A -o B -o g) -o g.  Indices of A and B that
    point past them are shifted past the new binder, unless `scoped`."""
    g = TBound(0)
    a, b = (a, b) if scoped else (shift(a, 1), shift(b, 1))
    return Forall("g", Lolli(Lolli(a, Lolli(b, g)), g), True)


def bool_type() -> Type:
    """B, i.e. forall a. a -o a -o a * a."""
    a = TBound(0)
    return Forall("a", Lolli(a, Lolli(a, tensor_type(a, a))), True)


def match_tensor_type(a: Type):
    """Return (L, R) when a is tensor_type(L, R), else None: read L and R
    off the shape, then rebuild it."""
    try:
        l, r = a.body.dom.dom, a.body.dom.cod.dom
    except AttributeError:
        return None
    if references(l, 0) or references(r, 0):
        return None
    l, r = shift(l, -1), shift(r, -1)
    return (l, r) if tensor_type(l, r) == a else None


# -- polarity and classifiers -------------------------------------------------

POS = "+"
NEG = "-"


def polarity_occurrences(a: Type, connective: str):
    """All occurrences of the given connective ('forall', 'with', 'lolli',
    'var') in a, paired with their polarity, in pre-order.  The type itself
    is a positive occurrence of its own head.  A walk of a as a tree, with
    its own stack: the reference that the stored summaries are tested
    against."""
    out = []
    kind = {TVar: "var", TBound: "var", Lolli: "lolli", With: "with",
            Forall: "forall"}
    stack = [(a, POS)]
    while stack:
        t, pol = stack.pop()
        if kind[type(t)] == connective:
            out.append((t, pol))
        if isinstance(t, Lolli):
            stack += ((t.cod, pol), (t.dom, NEG if pol == POS else POS))
        elif isinstance(t, With):
            stack += ((t.right, pol), (t.left, pol))
        elif isinstance(t, Forall):
            stack.append((t.body, pol))
    return out


def is_closed(a: Type) -> bool:
    return not free_type_vars(a)


def is_forall_lazy(a: Type) -> bool:
    return not a._pol & FORALL_NEG


def is_lazy(a: Type) -> bool:
    return not a._pol & (FORALL_NEG | WITH_POS)


def is_pi1(a: Type) -> bool:
    return not a._pol & (FORALL_NEG | WITH_POS | WITH_NEG)


def has_with(a: Type) -> bool:
    return bool(a._pol & (WITH_POS | WITH_NEG))


def judgement_is_forall_lazy(context_types, goal: Type) -> bool:
    """A sequent A1,...,An |- B counts as forall-lazy when the folded type
    A1 -o ... -o An -o B is: no context type may contain a positive forall,
    and the goal no negative one."""
    if goal._pol & FORALL_NEG:
        return False
    return not any(t._pol & FORALL_POS for t in context_types)

"""Locally nameless syntax trees: the machinery that types and terms share.

A bound variable is an index leaf: 0 for the nearest enclosing binder, k for
the binder k levels further out; free variables stay named leaves
(Charguéraud, "The Locally Nameless Representation", JAR 2012).  So trees are
alpha-equivalent exactly when they are equal node for node, and substituting
for a free name cannot capture.  A binder keeps the name it was built with
as a print hint, which equality ignores.  A new free name is the first
base_k that the caller does not say is in scope (`fresh`); no state is
kept, so what is built from the same inputs is named the same.

A node class provides

    children()          its subtrees, in order
    binds               for each child, how many binders the node puts over it
    with_children(ks)   the same node, hints included, over new children
                        (a node with one child holds it in `body`)
    datum               the slot besides the children that equality compares
                        (a free name, an index, a projection's side), or None

and its leaf classes set `free_var` (a named leaf) or `bound_var` (an index
leaf).  The constructor of a binder closes its name in its body, unless told
that the body is already scoped.  Nodes are immutable by convention.

Each node stores, when it is built, its free names (`_fv`), how many
enclosing binders its indices need (`_loose`, 0 when it is locally closed)
and its structural hash (`_hash`), each computed from its children's stored
ones, as hash-consing stores its per-node data once (Filliâtre & Conchon,
"Type-Safe Modular Hash-Consing", ML Workshop 2006).  Terms and types store
their other summaries the same way, so no query walks a tree to fill one.
Every walk here keeps its own stack, so no depth of nesting reaches Python's
recursion limit.
"""

from __future__ import annotations

from operator import attrgetter, methodcaller

children = methodcaller("children")
free_names = attrgetter("_fv")  # the names of a node's free-variable leaves
loose = attrgetter("_loose")    # the binders a node's indices need

_EMPTY = frozenset()


class Node:
    __slots__ = ()
    weight = 1  # what the node adds to `size`
    binds: tuple = ()
    datum: str | None = None
    free_var = False
    bound_var = False

    def children(self) -> tuple:
        return ()

    def with_children(self, kids):
        return type(self)(*kids)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in type(self).__slots__))

    def __eq__(self, other):
        # One walk with its own stack of node pairs, flattened; shared
        # subtrees are skipped by identity, and a node whose two children
        # are one object on both sides pushes that pair once, so a shared
        # DAG such as with_tower(t, n) costs n, not 2^n.
        if not isinstance(other, Node):
            return NotImplemented
        stack = [self, other]
        pop = stack.pop
        while stack:
            b = pop()
            a = pop()
            if a is b:
                continue
            cls = a.__class__
            if cls is not b.__class__:
                return False
            datum = cls.datum
            if datum is not None and getattr(a, datum) != getattr(b, datum):
                return False
            ka = a.children()
            if len(ka) == 2:
                x, y = ka
                u, v = b.children()
                stack += (x, u) if x is y and u is v else (y, v, x, u)
            elif ka:
                for x, u in zip(ka, b.children()):
                    stack += (x, u)
        return True

    def __hash__(self):
        return self._hash


def name_leaf(n, name: str) -> None:
    n.name = name
    n._fv = frozenset((name,))
    n._loose = 0
    n._hash = hash(name)


def index_leaf(n, index: int) -> None:
    n.index = index
    n._fv = _EMPTY
    n._loose = index + 1
    n._hash = index


def over(n, a, b) -> None:
    """Store the free names and looseness of n, whose children are a and b."""
    f, g = a._fv, b._fv
    n._fv = (f | g if g and g is not f else f) if f else g
    n._loose = a._loose if a._loose >= b._loose else b._loose


def fold(root, kids, combine, memo: dict):
    """The value `combine(n, [value of each of kids(n)])` at `root`, kept in
    `memo` under id(n) for every node on the way: a post-order walk with its
    own stack, so each node is combined once per call and no depth recurses.
    A bottom-up rewrite of a tree or DAG is one call.  Unlike the summaries
    that a node stores when it is built, it suits a value that depends on
    the call's arguments.  Every node combined stays referenced until the
    call returns, so `kids` may make new nodes, such as one object per
    occurrence of a shared subtree, and no id in `memo` is reused for
    another node on the way."""
    todo = [root]
    done = []
    while todo:
        n = todo.pop()
        if n is None:  # the kids below are done: combine their parent
            ks = todo.pop()
            n = todo.pop()
            memo[id(n)] = combine(n, [memo[id(k)] for k in ks])
            done.append(n)
        elif id(n) not in memo:
            ks = kids(n)
            todo += (n, ks, None)
            todo += ks[::-1]  # the first done first
    return memo[id(root)]


def drive(gen):
    """The value that the generator `gen` returns.  A generator yields
    (f, *args) for each value it needs and is sent the value that the
    generator f(*args) returns, run the same way: one loop with its own
    stack of generators, so no depth of nesting recurses.  An exception
    raised in any of them passes through."""
    stack = []  # the generators waiting below gen
    got = None
    while True:
        try:
            need = gen.send(got)
        except StopIteration as done:
            if not stack:
                return done.value
            gen, got = stack.pop(), done.value
        else:
            stack.append(gen)
            gen, got = need[0](*need[1:]), None


def rewrite(root, name, leaf):
    """root with leaves replaced: with a name, every free variable of that
    name, else every index that points past the binders above it; leaf n
    becomes `leaf(n, depth)`, depth being the binders above n.  Only nodes
    on the way to a replaced leaf are rebuilt, and a child that is the same
    object as its left sibling, as in with_tower(t, n), once.  The stack
    holds a frame (node, depth, children, new children so far) for each
    node above with several children, and the node itself for one child."""
    if name not in root._fv if name else not root._loose:
        return root
    stack = []  # the one-child nodes and the frames above the current node
    n, depth, done = root, 0, None
    while True:
        if done is None:  # n has a leaf to replace at or below it
            if len(n.binds) == 1:  # its one child is its body
                stack.append(n)
                depth += n.binds[0]
                n = n.body
                continue
            if not n.binds:
                done = leaf(n, depth)
                continue
            frame = (n, depth, n.children(), [])
        else:  # done replaces the current node below the top of the stack
            if not stack:
                return done
            frame = stack.pop()
            if type(frame) is not tuple:
                done = frame.with_children((done,))
                continue
            frame[3].append(done)
        top, top_depth, kids, new = frame
        for i in range(len(new), len(kids)):
            c = kids[i]
            d = top_depth + top.binds[i]
            if name not in c._fv if name else c._loose <= d:
                new.append(c)
            elif i and c is kids[i - 1] and d == top_depth + top.binds[i - 1]:
                new.append(new[-1])
            else:
                stack.append(frame)
                n, depth, done = c, d, None
                break
        else:
            done = top.with_children(new)


def substitute(t, x: str, s):
    """t with the locally closed s for every free x; nothing is renamed,
    because no binder names a variable."""
    return rewrite(t, x, lambda n, depth: s)


def bind(t, x: str, index_cls):
    """The body for a binder of x over t: every free x becomes an index
    leaf (`index_cls`) that points at the new binder."""
    return rewrite(t, x, lambda n, depth: index_cls(depth))


def shift(t, k: int):
    """t moved under k more binders (or out of -k binders it does not refer
    to): every index that points past t's root grows by k."""
    return rewrite(t, None, lambda n, depth: type(n)(n.index + k)) if k else t


def instantiate(scope, s):
    """The body `scope` of a binder with s for the bound variable.  Indices
    that point further out drop by one, and s is shifted past the binders it
    lands under, so that this also contracts a redex below binders."""
    def leaf(n, depth):
        if n.index == depth:
            return shift(s, depth)
        return type(n)(n.index - 1)

    return rewrite(scope, None, leaf)


def size(t) -> int:
    """The sum of the weights of t's nodes, a shared subtree counted once
    per occurrence."""
    sizes: dict[int, int] = {}
    stack = [t]
    while stack:
        n = stack.pop()
        if n is None:  # the node below has all its children done
            n = stack.pop()
            s = n.weight
            for c in n.children():
                s += sizes[id(c)]
            sizes[id(n)] = s
        elif id(n) not in sizes:
            stack += (n, None)
            stack += n.children()
    return sizes[id(t)]


def fresh(base: str, avoid) -> str:
    """The first of base_0, base_1, ... not in `avoid`, the names in scope,
    base taken without trailing digits and underscores.  It is a function
    of its arguments alone, so a build that passes what is in scope names
    the same way in every call and every process."""
    base = base.rstrip("0123456789_") or "v"
    k = 0
    while "%s_%d" % (base, k) in avoid:
        k += 1
    return "%s_%d" % (base, k)


def references(t, i: int) -> bool:
    """Whether t has an index that points i binders past its root."""
    stack = [(t, i)]
    while stack:
        n, k = stack.pop()
        if n._loose <= k:
            continue
        if n.bound_var:
            if n.index == k:
                return True
        else:
            stack += [(c, k + b) for c, b in zip(n.children(), n.binds)]
    return False

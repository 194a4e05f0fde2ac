"""Inhabitant enumeration and eta-expansion.

`enumerate_inhabitants` lists every closed eta-long normal inhabitant of a
closed forall-lazy type together with its cut-free derivation.  The search is
goal-directed over the rules that can occur in a cut-free derivation of a
forall-lazy sequent — axioms at atomic types, the two implication rules, the
quantifier right rule, and the empty-context pair rule — memoized on the
sequent and terminating because every premise strictly shrinks the sequent
(so derivation depth is bounded by the sequent size).

For types that are tensor macros of two closed forall-lazy components the
member set is the cross product of the component sets; a fast path exploits
that directly and is cross-checked against the generic search in the tests.
The fast path and eta-expansion are each one `nameless.fold`, and the
search runs its sequents on the stack of `nameless.drive`, so none of them
recurses on the depth of a type, however deep the tensor macro nests
domains without brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .terms import Term, term_size
from .typesys import (
    Forall, Lolli, TVar, Type, With,
    free_type_vars, is_closed, is_forall_lazy,
    match_tensor_type, open_type,
)
from .nameless import drive, fold, fresh
from .derivation import (
    Derivation, context_free_type_vars, is_cut_free, premises, rebuild,
    d_ax, d_forallL, d_forallR, d_lolliL, d_lolliR, d_withR0,
)
from .frontend import print_term
from .translate import d_tensor_pair


class InhabitError(Exception):
    pass


@dataclass
class InhabitantSet:
    type: Type
    members: list  # of (Term, Derivation)

    @property
    def count(self) -> int:
        return len(self.members)

    def terms(self):
        return [t for t, _ in self.members]


def _splits(items):
    """All ways to divide a tuple into two complementary subtuples."""
    idx = range(len(items))
    for k in range(len(items) + 1):
        for chosen in combinations(idx, k):
            cs = set(chosen)
            yield (tuple(items[i] for i in idx if i in cs),
                   tuple(items[i] for i in idx if i not in cs))


def _sequent(ctx, goal, memo, counter):
    """The derivations of ctx |- goal, memoized on the sequent, as a
    generator that `nameless.drive` runs: it yields (_sequent, ...) for
    each premise sequent it needs and is sent its derivations, in the order
    a recursive search would call them, so no nesting of domains reaches
    Python's recursion limit.  The goal's `-o`/`forall` spine is walked in
    a loop: each level's right rule is noted with its sequent, and wraps
    the results of the level above it, in order, once those are known."""
    spine = []  # (memo key, right rule's constructor, its parameters)
    while True:
        key = (frozenset(ctx), goal)
        if key in memo:
            out = memo[key]
            break
        memo[key] = []  # cycle guard; sequents shrink, so cycles cannot recur
        counter[0] += 1
        if counter[0] > 2_000_000:
            raise InhabitError("enumeration budget exhausted")
        if isinstance(goal, Forall):
            ctx_ftv = context_free_type_vars(ctx)
            if is_closed(goal) and ctx_ftv:
                out = []
                break
            g = fresh("e", ctx_ftv | free_type_vars(goal))
            spine.append((key, d_forallR, (g, goal.var)))
            goal = open_type(goal.body, TVar(g))
        elif isinstance(goal, Lolli):
            x = "x%d" % len(ctx)
            taken = {n for n, _ in ctx}
            while x in taken:
                x += "'"
            spine.append((key, d_lolliR, (x,)))
            ctx, goal = ctx + ((x, goal.dom),), goal.cod
        else:
            out = memo[key] = yield from _atomic(ctx, goal, memo, counter)
            break
    for key, rule, params in reversed(spine):
        out = memo[key] = [rule(sub, *params) for sub in out]
    return out


def _atomic(ctx, goal, memo, counter):
    """The derivations of ctx |- goal for a `&` or atomic goal, as part of
    `_sequent`."""
    out = []
    if isinstance(goal, With):
        if not ctx:
            lefts = yield _sequent, (), goal.left, memo, counter
            if lefts:
                rights = yield _sequent, (), goal.right, memo, counter
                out = [d_withR0(l, r) for l in lefts for r in rights]
    elif isinstance(goal, TVar):
        if len(ctx) == 1 and ctx[0][1] == goal:
            out.append(d_ax(ctx[0][0], goal))
        for i, (y, a) in enumerate(ctx):
            if not isinstance(a, Lolli):
                continue
            rest = ctx[:i] + ctx[i + 1:]
            taken = {n for n, _ in ctx}
            w = "w%d" % len(ctx)
            while w in taken:
                w += "'"
            for g1, g2 in _splits(rest):
                lefts = yield _sequent, g1, a.dom, memo, counter
                if not lefts:
                    continue
                rights = yield _sequent, g2 + ((w, a.cod),), goal, memo, counter
                for ld in lefts:
                    for rd in rights:
                        out.append(d_lolliL(ld, rd, y, w))
    else:
        raise TypeError(goal)
    return out


def _dedupe(derivs):
    """The first derivation of each subject, in order of first occurrence."""
    out: dict = {}
    for d in derivs:
        out.setdefault(d.conclusion.subject, d)
    return list(out.values())


def enumerate_inhabitants(a: Type, use_fast_paths: bool = True) -> InhabitantSet:
    """All closed eta-long normal inhabitants of a closed forall-lazy type.
    The fast path pairs the members of a tensor's components, which are
    closed and forall-lazy too: one fold over the occurrences (type,) of the
    tensor tree, one object each, since a component may occur twice."""
    if not (is_closed(a) and is_forall_lazy(a)):
        raise InhabitError("type must be closed and forall-lazy")

    def kids(o):
        m = match_tensor_type(o[0]) if use_fast_paths else None
        return [(c,) for c in m or ()]

    def members(o, parts):
        if parts:
            derivs = [d_tensor_pair(ld, rd) for _, ld in parts[0] for _, rd in parts[1]]
        else:
            derivs = _dedupe(drive(_sequent((), o[0], {}, [0])))
        return [(d.conclusion.subject, d) for d in derivs]

    return InhabitantSet(a, fold((a,), kids, members, {}))


def maximal_value(a: Type):
    """The size-maximal inhabitant (term, derivation); ties broken by the
    lexicographically least printed form.  None when uninhabited."""
    s = enumerate_inhabitants(a)
    if not s.members:
        return None
    return min(s.members, key=lambda td: (-term_size(td[0]), print_term(td[0])))


# -- eta expansion ------------------------------------------------------------

def eta_expansion_derivation(x: str, a: Type) -> Derivation:
    """Cut-free derivation of x:A |- M:A with M the eta-long form of x: one
    fold over pairs (name, type), where a `-o` pair has the pairs of its
    domain (name + "l") and codomain (name + "r"), and a `forall` pair that
    of its body, opened at the first eigenvariable e_k not free in it."""
    eigen: dict = {}  # id(forall pair) -> its eigenvariable

    def kids(p):
        y, b = p
        if isinstance(b, Lolli):
            return [(y + "l", b.dom), (y + "r", b.cod)]
        if isinstance(b, Forall):
            g = eigen[id(p)] = fresh("e", free_type_vars(b))
            return [(y, open_type(b.body, TVar(g)))]
        if isinstance(b, With):
            raise InhabitError("cannot eta-expand an assumption of conjunction type")
        if isinstance(b, TVar):
            return ()
        raise TypeError(b)

    def expand(p, ds):
        y, b = p
        if isinstance(b, Lolli):
            return d_lolliR(d_lolliL(ds[0], ds[1], y, y + "r"), y + "l")
        if isinstance(b, Forall):
            return d_forallR(d_forallL(ds[0], y, b), eigen[id(p)], b.var)
        return d_ax(y, b)

    return fold((x, a), kids, expand, {})


def eta_expand(d: Derivation) -> Derivation:
    """Replace every axiom at a non-atomic type by its eta-long derivation;
    the result proves the same sequent with an eta-expanded subject.  A
    shared subderivation is expanded once."""
    if not is_cut_free(d):
        raise InhabitError("eta-expansion requires a cut-free derivation")

    def expand(n, ps):
        if n.rule == "ax" and not isinstance(n.conclusion.goal, TVar):
            return eta_expansion_derivation(n.conclusion.context[0][0],
                                            n.conclusion.goal)
        return rebuild(n, tuple(ps)) if ps else n

    return fold(d, premises, expand, {})

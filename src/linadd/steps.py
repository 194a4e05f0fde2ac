"""Localized proof transformations on cut nodes.

Everything cut elimination (and subject reduction, which reuses it) needs:

* the class of a cut, one of the seven names that `derivation` defines
  beside `classify_over` (re-exported here), read from the last rules of
  its premises.  Each cut node stores its class when it is built, and
  `cut_class` reads it; `classify_cut` classifies afresh, a reference for
  the stored class;
* the one table `STEP` from each class that has a step to its step
  function: one commuting movement, one principal firing (each performs at
  most one reduction step on the subject), or one reassociation of a
  blocked cut, and beside it `contracts`, which of those steps contract a
  redex of the cut's subject, read from the cut alone.

`deadlock` and `copy_first` cuts have no step.  The round strategy of
`cutelim` fires only `symmetric`, `commuting` and `ready` cuts; subject
reduction (`eliminate_cut_once`) steps every class in `STEP`, `safe` and
`blocked` included (duplicating cuts is type-sound, it just voids the step
bound).

Every step reads the parameters that the rules it moves store and builds
through the rules' constructors.
"""

from __future__ import annotations

from .nameless import fold, fresh
from .terms import is_value
from .typesys import (
    TVar, Type, free_type_vars, match_instantiation, subst_type,
)
from .derivation import (
    BLOCKED, COMMUTING, COPY_FIRST, CONSTRUCTORS, DEADLOCK, READY, SAFE, SYMMETRIC,
    Derivation, classify_over, context_free_type_vars, context_names, is_cut_free,
    names_used, principal_var, d_cut, d_forallR, d_withR0,
)


class CutElimError(Exception):
    """A cut that has no step, or a strategy that cannot go on."""


# -- renaming -----------------------------------------------------------------

# Each rule that consumes an assumption: the premise that holds it, and the
# index of its name among the parameters.
_CONSUMES = {"cut": (1, 0), "lolliR": (0, 0), "lolliL": (1, 1),
             "withL1": (0, 1), "withL2": (0, 1)}


def rename_assumption(d: Derivation, old: str, new: str) -> Derivation:
    """Rename a free assumption throughout a derivation (contexts and
    subjects), keeping each node whose conclusion lacks it; a shared node is
    renamed once.  Where a node that holds `old` consumes an assumption
    already named `new`, that one is renamed away first, so that no context
    holds `new` twice."""
    if old == new:
        return d
    params: dict = {}  # id(node) -> its parameters, a consumed `new` renamed

    def kids(n):
        if n.conclusion.lookup(old) is None:
            return ()
        ps, ns = list(n.premises), list(n.params)
        at, named = _CONSUMES.get(n.rule, (0, None))
        if named is not None and ns[named] == new:
            ps[at], ns[named] = _ensure_fresh(ps[at], new, {old, new})
        if n.rule != "forallR":  # its parameters name type variables
            ns = [new if p == old else p for p in ns]
        params[id(n)] = ns
        return ps

    def rename(n, ps):
        ns = params.get(id(n))  # None where the conclusion lacks `old`
        return n if ns is None else CONSTRUCTORS[n.rule](*ps, *ns)

    return fold(d, kids, rename, {})


def subst_type_deriv(d: Derivation, x: str, b: Type) -> Derivation:
    """Substitute a type for a free type variable throughout a derivation:
    one fold over the pairs (node, env), env the simultaneous substitution
    at the node, {x: b} at the root.  At a forallR, its eigenvariable g
    leaves env, and if g is free in a type left in env, the forallR binds a
    name unused in d and env instead, and env renames g to it below."""
    pairs: dict = {}  # (id(node), id(env)) -> (node, env), keeping both alive
    eigen: dict = {}  # id(forallR pair) -> its eigenvariable in the result
    used = None  # names_used(d), found at the first capture

    def kids(p):
        nonlocal used
        n, env = p
        if n.rule == "forallR":
            g = n.params[0]
            inner = {y: s for y, s in env.items() if y != g}
            if any(g in free_type_vars(s) for s in inner.values()):
                used = used or names_used(d)
                taken = used.union(inner, *map(free_type_vars, inner.values()))
                inner[g] = TVar(fresh(g, taken))
            eigen[id(p)] = inner[g].name if g in inner else g
            env = env if inner == env else inner
            if not env:  # nothing to substitute below
                return ()
        return [pairs.setdefault((id(q), id(env)), (q, env)) for q in n.premises]

    def subst(p, ps):
        n, env = p
        if n.rule == "forallR":
            return d_forallR(ps[0], eigen[id(p)], n.params[1]) if ps else n
        params = n.params
        for y, s in reversed(env.items()):  # renamings first: b keeps its names
            params = [subst_type(q, y, s) if isinstance(q, Type) else q for q in params]
        return CONSTRUCTORS[n.rule](*ps, *params)

    return fold((d, {x: b}), kids, subst, {})


def _ensure_fresh(d: Derivation, var: str, avoid) -> tuple:
    """Rename the assumption `var` of d, if it is in `avoid`, to a name
    that neither `avoid` nor d uses."""
    if var not in avoid:
        return d, var
    new = fresh(var, names_used(d).union(avoid))
    return rename_assumption(d, var, new), new


# -- classification -----------------------------------------------------------

def classify_cut(d: Derivation) -> str:
    """The class of the cut d, one of the seven names, computed afresh."""
    if d.rule != "cut":
        raise ValueError("not a cut")
    l, r = d.premises
    return classify_over(l, r, d.params[0], is_cut_free(l))


def cut_class(d: Derivation) -> str:
    """The class of the cut d that d stored when it was built (see
    `derivation`); None on a node that no step could read, as a cut
    without two premises or one built without parameters."""
    return d._cut


def classify_cuts(d: Derivation):
    """All cut nodes with their tree paths and classes, pre-order.
    Cut-free subderivations are skipped."""
    out = []
    stack = [] if is_cut_free(d) else [(d, ())]
    while stack:
        d, path = stack.pop()
        if d.rule == "cut":
            out.append((path, cut_class(d)))
        ps = d.premises
        for i in range(len(ps) - 1, -1, -1):
            if not is_cut_free(ps[i]):
                stack.append((ps[i], path + (i,)))
    return out


# -- the steps ----------------------------------------------------------------

def _push(d: Derivation, side: int) -> Derivation:
    """The cut d pushed into a premise of its premise `side` (0 left, 1
    right): on the right, the first premise that holds the cut's assumption;
    on the left, the one that proves the cut type.  An assumption that the
    last rule n of that side consumes is renamed away from the contexts of
    n and of the other premise of d, which it meets wherever the cut goes."""
    x, = d.params
    n, other = d.premises[side], d.premises[1 - side]
    ps, params = list(n.premises), list(n.params)
    at, named = _CONSUMES.get(n.rule, (0, None))
    k = at
    if side:
        k = 0 if ps[0].conclusion.lookup(x) is not None else len(ps) - 1
    if named is not None:
        ps[at], params[named] = _ensure_fresh(ps[at], params[named], context_names(
            other.conclusion.context + n.conclusion.context))
    ps[k] = d_cut(other, ps[k], x) if side else d_cut(ps[k], other, x)
    return CONSTRUCTORS[n.rule](*ps, *params)


def commute_once(d: Derivation) -> Derivation:
    """Push the cut one rule upward (subject and judgement are preserved)."""
    l, r = d.premises
    x, = d.params
    if principal_var(r) == x:
        if l.rule in ("lolliL", "withL1", "withL2", "forallL"):
            return _push(d, 0)
        raise CutElimError("cannot commute past %s on the left" % l.rule)
    if r.rule == "forallR":
        g, alpha = r.params
        r1 = r.premises[0]
        taken = context_free_type_vars(l.conclusion.context)
        if g in taken:
            g2 = fresh(g, names_used(r1) | taken)
            r1 = subst_type_deriv(r1, g, TVar(g2))
            g = g2
        return d_forallR(d_cut(l, r1, x), g, alpha)
    if r.rule in _CONSUMES or r.rule == "forallL":
        return _push(d, 1)
    raise CutElimError("cannot commute past %s on the right" % r.rule)


def reassociate_blocked(d: Derivation) -> Derivation:
    """cut(cut(l1, l2), r) -> cut(l1, cut(l2, r)): push a blocked cut into
    its left cut so the producer of the cut formula meets its consumer.
    Used by subject reduction; the round strategy instead waits for the
    inner cut (the opposite reassociation would undo this one, so pairing
    them loops).  An inner cut over an axiom or a quantifier only passes
    l1's subject on, so the redex would stay the outer cut's, now commuting
    over the new right cut back to where it was: that inner cut is fired."""
    inner, r = d.premises
    if cut_class(inner) == SYMMETRIC and not contracts(inner):
        return d_cut(fire_symmetric(inner), r, d.params[0])
    return _push(d, 0)


def fire_symmetric(d: Derivation) -> Derivation:
    l, r = d.premises
    x, = d.params
    if r.rule == "ax":
        return l
    if l.rule == "ax":
        y = l.conclusion.context[0][0]
        return rename_assumption(r, x, y)
    if l.rule == "lolliR" and r.rule == "lolliL":
        z, = l.params
        r1, r2 = r.premises
        _, w = r.params
        l1, z = _ensure_fresh(l.premises[0], z, context_names(r1.conclusion.context))
        r2, w = _ensure_fresh(r2, w, context_names(r1.conclusion.context
                                                   + l.conclusion.context))
        return d_cut(d_cut(r1, l1, z), r2, w)
    if l.rule == "forallR" and r.rule == "forallL":
        g, _ = l.params
        quant = l.conclusion.goal
        inst = r.premises[0].conclusion.lookup(x)
        m = match_instantiation(quant, inst)
        if m is None:
            raise CutElimError("quantifier instance does not match")
        _, b = m
        l1 = l.premises[0]
        if b is not None and g in free_type_vars(quant):
            raise CutElimError("eigenvariable occurs in the cut type")
        if b is not None:
            l1 = subst_type_deriv(l1, g, b)
        return d_cut(l1, r.premises[0], x)
    if l.rule == "withR0" and r.rule in ("withL1", "withL2"):
        _, w, _ = r.params
        comp = l.premises[0] if r.rule == "withL1" else l.premises[1]
        return d_cut(comp, r.premises[0], w)
    raise CutElimError("cut (%s, %s) is not symmetric" % (l.rule, r.rule))


def fire_critical(d: Derivation) -> Derivation:
    """Fire a `ready` or `safe` cut: the guarded duplication becomes an
    additive pair over two copies of the left subderivation."""
    l, r = d.premises
    if not is_value(l.conclusion.subject):
        raise CutElimError("left subject is not a value yet")
    b1, b2, _guard = r.premises
    x1 = b1.conclusion.context[0][0]
    x2 = b2.conclusion.context[0][0]
    return d_withR0(d_cut(l, b1, x1), d_cut(l, b2, x2))


STEP = {
    COMMUTING: commute_once,
    SYMMETRIC: fire_symmetric,
    READY: fire_critical,
    SAFE: fire_critical,
    BLOCKED: reassociate_blocked,
}


def contracts(d: Derivation) -> bool:
    """Whether the step of the cut d through `STEP` contracts a redex of its
    subject: the firing of a `ready` or `safe` cut (copy), or of a
    `symmetric` cut over lolliR and lolliL (beta) or over withR0 and a left
    projection (proj).  Every other step keeps the subject."""
    c, (l, r) = cut_class(d), d.premises
    return c in (READY, SAFE) or c == SYMMETRIC and (l.rule, r.rule) in (
        ("lolliR", "lolliL"), ("withR0", "withL1"), ("withR0", "withL2"))


def eliminate_cut_once(d: Derivation) -> Derivation:
    """One localized step at the cut d through `STEP`, whatever its class.
    Raises CutElimError for `deadlock` and `copy_first` cuts."""
    c = cut_class(d)
    if c not in STEP:
        raise CutElimError("%s cut has no elimination rule" % c)
    return STEP[c](d)

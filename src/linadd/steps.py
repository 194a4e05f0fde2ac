"""Localized proof transformations on cut nodes.

Everything cut elimination (and subject reduction, which reuses it) needs:

* classification of a cut by the last rules of its premises — `symmetric`
  when both are principal for the cut type (including the axiom cases),
  `critical` when the right premise is the guarded-duplication rule,
  `copy_first` when a guarded duplication meets a principal left projection,
  `commuting` otherwise;
* one commuting movement (the cut is pushed past the non-principal rule);
* the principal firings, each of which performs at most one reduction step
  on the subject.

Every step reads the parameters that the rules it moves store and builds
through the rules' constructors.

A critical cut is `safe` when the left premise proves a closed sequent and
`ready` when additionally the left subderivation is cut-free; only ready
critical cuts may be fired by the public strategy, while subject reduction
fires any safe one (duplicating cuts is type-sound, it just voids the step
bound).  Deadlocked (non-safe) critical cuts and copy-first cuts have no
firing rule at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nameless import fold
from .terms import fresh_name, is_value
from .typesys import (
    TVar, Type, free_type_vars, fresh_type_var, match_instantiation, subst_type,
)
from .derivation import (
    CONSTRUCTORS, Derivation,
    context_free_type_vars, context_names, is_cut_free,
    d_cut, d_forallL, d_forallR, d_lolliL, d_lolliR, d_withR0,
)

SYMMETRIC = "symmetric"
COMMUTING = "commuting"
CRITICAL = "critical"
COPY_FIRST = "copy_first"
BLOCKED = "blocked"

SAFE = "safe"
READY = "ready"
DEADLOCK = "deadlock"


class ElimStepError(Exception):
    pass


_PRINCIPAL = frozenset({"ax", "lolliL", "withL1", "withL2", "forallL", "withR1"})


def principal_var(d: Derivation):
    """The context variable the last rule of d acts on, if any: the first
    parameter of each left rule, the axiom and the guarded duplication."""
    return d.params[0] if d.rule in _PRINCIPAL else None


# -- renaming -----------------------------------------------------------------

def rename_assumption(d: Derivation, old: str, new: str) -> Derivation:
    """Rename a free assumption throughout a derivation (contexts and
    subjects), keeping each node whose conclusion lacks it; a shared node is
    renamed once."""
    if old == new:
        return d

    def rename(n, ps):
        if n.conclusion.lookup(old) is None:
            return n
        params = n.params
        if n.rule != "forallR":  # its parameters name type variables
            params = tuple(new if p == old else p for p in params)
        return CONSTRUCTORS[n.rule](*ps, *params)

    return fold(d, lambda n: () if n.conclusion.lookup(old) is None else n.premises,
                rename, {})


def subst_type_deriv(d: Derivation, x: str, b: Type) -> Derivation:
    """Substitute a type for a free type variable throughout a derivation:
    one fold over the pairs (node, env), env the simultaneous substitution
    at the node, {x: b} at the root.  At a forallR, its eigenvariable g
    leaves env, and if g is free in a type left in env, the forallR binds a
    fresh name instead and env renames g to it below."""
    pairs: dict = {}  # (id(node), id(env)) -> (node, env), keeping both alive
    eigen: dict = {}  # id(forallR pair) -> its eigenvariable in the result

    def kids(p):
        n, env = p
        if n.rule == "forallR":
            g = n.params[0]
            inner = {y: s for y, s in env.items() if y != g}
            if any(g in free_type_vars(s) for s in inner.values()):
                inner[g] = TVar(fresh_type_var(g))
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
    """Rename the assumption `var` of d away from `avoid` if needed."""
    if var not in avoid:
        return d, var
    new = fresh_name(var, set(avoid) | context_names(d.conclusion.context))
    return rename_assumption(d, var, new), new


# -- classification -----------------------------------------------------------

@dataclass(frozen=True)
class CutInfo:
    kind: str            # symmetric | commuting | critical | copy_first
    status: str | None   # for critical: safe | ready | deadlock
    left_rule: str
    right_rule: str


def classify_cut(d: Derivation) -> CutInfo:
    if d.rule != "cut":
        raise ValueError("not a cut")
    l, r = d.premises
    x, = d.params
    info = lambda kind, status=None: CutInfo(kind, status, l.rule, r.rule)
    if l.rule == "ax" or r.rule == "ax":
        return info(SYMMETRIC)
    if r.rule == "withR1":
        if context_names(l.conclusion.context):
            return info(CRITICAL, DEADLOCK)
        return info(CRITICAL, READY if is_cut_free(l) else SAFE)
    right_principal = principal_var(r) == x
    if right_principal:
        pairs = {
            ("lolliR", "lolliL"), ("forallR", "forallL"),
            ("withR0", "withL1"), ("withR0", "withL2"),
        }
        if (l.rule, r.rule) in pairs:
            return info(SYMMETRIC)
        if l.rule == "withR1" and r.rule in ("withL1", "withL2"):
            return info(COPY_FIRST)
        if l.rule == "cut":
            # nothing to commute: reassociating back and forth would loop, so
            # wait for the inner cut to be eliminated first
            return info(BLOCKED)
    return info(COMMUTING)


def classify_cuts(d: Derivation):
    """All cut nodes with their tree paths and `classify_cut` results,
    pre-order.  Cut-free subderivations are skipped.  A cut node's result
    depends only on the node and its premises, which are immutable, so it is
    computed once per node object and kept in the node's `_cut` slot."""
    out = []
    stack = [] if is_cut_free(d) else [(d, ())]
    while stack:
        d, path = stack.pop()
        if d.rule == "cut":
            info = getattr(d, "_cut", None)
            if info is None:
                info = classify_cut(d)
                object.__setattr__(d, "_cut", info)
            out.append((path, info))
        ps = d.premises
        for i in range(len(ps) - 1, -1, -1):
            if not is_cut_free(ps[i]):
                stack.append((ps[i], path + (i,)))
    return out


# -- the steps ----------------------------------------------------------------

def commute_once(d: Derivation) -> Derivation:
    """Push the cut one rule upward (subject and judgement are preserved)."""
    l, r = d.premises
    x, = d.params
    if principal_var(r) != x and r.rule != "withR1":
        return _commute_right(d, l, r, x)
    return _commute_left(d, l, r, x)


def _commute_right(d, l, r, x):
    lnames = context_names(l.conclusion.context)
    if r.rule == "lolliR":
        z, = r.params
        r1, z = _ensure_fresh(r.premises[0], z, lnames)
        return d_lolliR(d_cut(l, r1, x), z)
    if r.rule == "lolliL":
        y, w = r.params
        r1, r2 = r.premises
        if r1.conclusion.lookup(x) is not None:
            return d_lolliL(d_cut(l, r1, x), r2, y, w)
        r2, w = _ensure_fresh(r2, w, lnames)
        return d_lolliL(r1, d_cut(l, r2, x), y, w)
    if r.rule in ("withL1", "withL2"):
        y, w, other = r.params
        r1, w = _ensure_fresh(r.premises[0], w, lnames)
        return CONSTRUCTORS[r.rule](d_cut(l, r1, x), y, w, other)
    if r.rule == "forallL":
        return d_forallL(d_cut(l, r.premises[0], x), *r.params)
    if r.rule == "forallR":
        g, alpha = r.params
        r1 = r.premises[0]
        if g in context_free_type_vars(l.conclusion.context):
            g2 = fresh_type_var(g)
            r1 = subst_type_deriv(r1, g, TVar(g2))
            g = g2
        return d_forallR(d_cut(l, r1, x), g, alpha)
    if r.rule == "cut":
        w, = r.params
        r1, r2 = r.premises
        if r1.conclusion.lookup(x) is not None:
            return d_cut(d_cut(l, r1, x), r2, w)
        r2, w2 = _ensure_fresh(r2, w, lnames)
        return d_cut(r1, d_cut(l, r2, x), w2)
    raise ElimStepError("cannot commute past %s on the right" % r.rule)


def _commute_left(d, l, r, x):
    rnames = context_names(r.conclusion.context)
    if l.rule == "lolliL":
        y, w = l.params
        l2, w = _ensure_fresh(l.premises[1], w, rnames)
        return d_lolliL(l.premises[0], d_cut(l2, r, x), y, w)
    if l.rule in ("withL1", "withL2"):
        y, w, other = l.params
        l1, w = _ensure_fresh(l.premises[0], w, rnames)
        return CONSTRUCTORS[l.rule](d_cut(l1, r, x), y, w, other)
    if l.rule == "forallL":
        return d_forallL(d_cut(l.premises[0], r, x), *l.params)
    raise ElimStepError("cannot commute past %s on the left" % l.rule)


def reassociate_blocked(d: Derivation) -> Derivation:
    """cut(cut(l1, l2), r) -> cut(l1, cut(l2, r)): push a blocked cut into
    its left cut so the producer of the cut formula meets its consumer.
    Used by the localized subject-reduction driver; the round strategy
    instead waits for the inner cut (the opposite reassociation would undo
    this one, so pairing them loops)."""
    l, r = d.premises
    x, = d.params
    if l.rule != "cut":
        raise ElimStepError("left premise is not a cut")
    w, = l.params
    l2, w = _ensure_fresh(l.premises[1], w, context_names(r.conclusion.context))
    return d_cut(l.premises[0], d_cut(l2, r, x), w)


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
        return d_cut(d_cut(r1, l1, z), r2, w)
    if l.rule == "forallR" and r.rule == "forallL":
        g, _ = l.params
        quant = l.conclusion.goal
        inst = r.premises[0].conclusion.lookup(x)
        m = match_instantiation(quant, inst)
        if m is None:
            raise ElimStepError("quantifier instance does not match")
        _, b = m
        l1 = l.premises[0]
        if b is not None and g in free_type_vars(quant):
            raise ElimStepError("eigenvariable occurs in the cut type")
        if b is not None:
            l1 = subst_type_deriv(l1, g, b)
        return d_cut(l1, r.premises[0], x)
    if l.rule == "withR0" and r.rule in ("withL1", "withL2"):
        _, w, _ = r.params
        comp = l.premises[0] if r.rule == "withL1" else l.premises[1]
        return d_cut(comp, r.premises[0], w)
    raise ElimStepError("cut (%s, %s) is not symmetric" % (l.rule, r.rule))


def fire_critical(d: Derivation) -> Derivation:
    """Fire a safe critical cut: the guarded duplication becomes an additive
    pair over two copies of the left subderivation."""
    l, r = d.premises
    if r.rule != "withR1":
        raise ElimStepError("right premise is not a guarded duplication")
    if context_names(l.conclusion.context):
        raise ElimStepError("deadlocked critical cut (open left premise)")
    if not is_value(l.conclusion.subject):
        raise ElimStepError("left subject is not a value yet")
    b1, b2, _guard = r.premises
    x1 = b1.conclusion.context[0][0]
    x2 = b2.conclusion.context[0][0]
    return d_withR0(d_cut(l, b1, x1), d_cut(l, b2, x2))


def eliminate_cut_once(d: Derivation, allow_unready: bool = True) -> Derivation:
    """One localized step at this cut: commute when non-principal, otherwise
    fire.  Raises for deadlocked critical and copy-first cuts."""
    info = classify_cut(d)
    if info.kind == COMMUTING:
        return commute_once(d)
    if info.kind == SYMMETRIC:
        return fire_symmetric(d)
    if info.kind == CRITICAL:
        if info.status == DEADLOCK:
            raise ElimStepError("deadlocked critical cut cannot be fired")
        if info.status == SAFE and not allow_unready:
            raise ElimStepError("critical cut is safe but not ready")
        return fire_critical(d)
    if info.kind == BLOCKED:
        return reassociate_blocked(d)
    raise ElimStepError("copy-first cut has no elimination rule")

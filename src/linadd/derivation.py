"""Sequent derivations and the proof checker.

A derivation node records its rule name, its full conclusion judgement, and
its premise subderivations; checking verifies that every node is a correct
instance of its rule schema under one of three systems:

    imll2   ax, cut, lolliR, lolliL, forallR, forallL
    imall2  imll2 plus withR (shared-context pair), withL1/withL2
    lam     imll2 plus the linear additive rules withR0 (empty contexts),
            withR1 (guarded duplication), withL1/withL2, with the closure
            and forall-laziness side conditions

Rules carry term decorations, so the left rules and cut perform substitutions
in the subject.  Contexts are multisets of named, typed assumptions; cut and
lolliL additionally demand that the free type variables of the two premise
contexts be disjoint.

Checking memoizes on node identity, so derivations that share subderivations
(a DAG) are checked once per distinct node.

Each node caches its size, weight, height, summed cut heights and cut count
in one lazily filled slot (see `terms.cache_up`), so `metrics` and
`is_cut_free` cost only the nodes built since the last query, and a search
for cuts skips every cut-free subderivation.  The counts are taken with tree
multiplicity: a shared subderivation counts once per occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .terms import (
    Abs, App, Copy, Pair, Proj, Term, Var,
    alpha_equal, cache_up, free_vars, is_value, subst,
)
from .typesys import (
    Forall, Lolli, TVar, Type, With,
    free_type_vars, fresh_type_var, is_closed, is_forall_lazy,
    subst_type, type_size,
)

LAM = "lam"
IMALL2 = "imall2"
IMLL2 = "imll2"

RULES = (
    "ax", "cut", "lolliR", "lolliL",
    "withR", "withR0", "withR1", "withL1", "withL2",
    "forallR", "forallL",
)

_SYSTEM_RULES = {
    IMLL2: {"ax", "cut", "lolliR", "lolliL", "forallR", "forallL"},
    IMALL2: {"ax", "cut", "lolliR", "lolliL", "forallR", "forallL",
             "withR", "withL1", "withL2"},
    LAM: {"ax", "cut", "lolliR", "lolliL", "forallR", "forallL",
          "withR0", "withR1", "withL1", "withL2"},
}


@dataclass(frozen=True, eq=False)
class Judgement:
    """context |- subject : goal, with the context a tuple of (name, type)."""

    __slots__ = ("context", "subject", "goal")
    context: tuple
    subject: Term
    goal: Type

    def context_types(self):
        return tuple(a for _, a in self.context)

    def lookup(self, name: str):
        for n, a in self.context:
            if n == name:
                return a
        return None


@dataclass(frozen=True, eq=False)
class Derivation:
    __slots__ = ("rule", "conclusion", "premises", "_stats")
    rule: str
    conclusion: Judgement
    premises: tuple


@dataclass
class Violation:
    path: tuple
    rule: str
    condition: str
    message: str

    def __str__(self):
        where = "/".join(str(i) for i in self.path) or "root"
        return "%s [%s at %s]: %s" % (self.condition, self.rule, where, self.message)


class CheckError(Exception):
    def __init__(self, violations):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def _ctx_multiset(ctx):
    return sorted((n, a._skeleton()) for n, a in ctx)


def _same_context(c1, c2) -> bool:
    return _ctx_multiset(c1) == _ctx_multiset(c2)


def _ctx_remove(ctx, name):
    return tuple((n, a) for n, a in ctx if n != name)


def context_names(ctx):
    return frozenset(n for n, _ in ctx)


def context_free_type_vars(ctx):
    out = frozenset()
    for _, a in ctx:
        out |= free_type_vars(a)
    return out


def match_instantiation(body: Type, var: str, target: Type):
    """Find B with body[B/var] == target, or None.  When var does not occur,
    any B works and (True, None) distinguishes that from failure."""
    hits = []

    def go(a: Type, t: Type, env: dict) -> bool:
        # env maps bound names of `a` to bound names of `t` (de Bruijn align).
        if isinstance(a, TVar):
            if a.name == var and var not in env:
                hits.append(t)
                return True
            if a.name in env:
                return isinstance(t, TVar) and t.name == env[a.name]
            return isinstance(t, TVar) and t.name not in env.values() and t.name == a.name
        if isinstance(a, Lolli):
            return (isinstance(t, Lolli) and go(a.dom, t.dom, env)
                    and go(a.cod, t.cod, env))
        if isinstance(a, With):
            return (isinstance(t, With) and go(a.left, t.left, env)
                    and go(a.right, t.right, env))
        if isinstance(a, Forall):
            return (isinstance(t, Forall)
                    and go(a.body, t.body, {**env, a.var: t.var}))
        raise TypeError(a)

    if not go(body, target, {}):
        return None
    if not hits:
        return (True, None)
    b0 = hits[0]
    if any(b != b0 for b in hits[1:]):
        return None
    # Re-verify through real substitution (covers shadowing corner cases).
    if subst_type(body, var, b0) != target:
        return None
    return (True, b0)


def _linearity(j: Judgement):
    """Every context variable occurs free in the subject, exactly once."""

    def count(t: Term, x: str) -> int:
        if isinstance(t, Var):
            return 1 if t.name == x else 0
        if isinstance(t, Abs):
            return 0 if t.var == x else count(t.body, x)
        if isinstance(t, Copy):
            n = count(t.guard, x) + count(t.scrutinee, x)
            if t.left_var != x:
                n += count(t.left_branch, x)
            if t.right_var != x:
                n += count(t.right_branch, x)
            return n
        return sum(count(c, x) for c in t.children())

    bad = []
    for n, _ in j.context:
        c = count(j.subject, n)
        if c != 1:
            bad.append((n, c))
    return bad


def check(d: Derivation, system: str = LAM):
    """Return a list of Violations; empty means the derivation is correct."""
    if system not in _SYSTEM_RULES:
        raise ValueError("unknown system: %r" % (system,))
    out: list[Violation] = []
    seen: set = set()

    def bad(path, d, cond, msg):
        out.append(Violation(path, d.rule, cond, msg))

    def go(d: Derivation, path: tuple, eigens: frozenset):
        if (id(d), eigens) in seen:
            return
        seen.add((id(d), eigens))
        j = d.conclusion
        if d.rule not in RULES:
            bad(path, d, "rule", "unknown rule %r" % (d.rule,))
            return
        if d.rule not in _SYSTEM_RULES[system]:
            bad(path, d, "system", "rule %s not available in %s" % (d.rule, system))
            return
        names = [n for n, _ in j.context]
        if len(set(names)) != len(names):
            bad(path, d, "context", "duplicate assumption names")
            return
        up = eigens
        if (d.rule == "forallR" and len(d.premises) == 1
                and isinstance(j.goal, Forall)):
            g = find_eigenvariable(d)
            if g is not None:
                up = eigens | {g}
        for i, p in enumerate(d.premises):
            go(p, path + (i,), up)
        handler = _HANDLERS.get(d.rule)
        handler(d, path, system, bad, eigens)
        if system == LAM:
            lin = _linearity(j)
            if lin:
                bad(path, d, "linearity",
                    "assumptions not used exactly once: %s" % (lin,))

    go(d, (), frozenset())
    return out


def check_ok(d: Derivation, system: str = LAM) -> None:
    vs = check(d, system)
    if vs:
        raise CheckError(vs)


def _expect_premises(d, path, n, bad) -> bool:
    if len(d.premises) != n:
        bad(path, d, "arity", "expected %d premises, got %d" % (n, len(d.premises)))
        return False
    return True


def _check_ax(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 0, bad):
        return
    j = d.conclusion
    if len(j.context) != 1:
        bad(path, d, "ax", "axiom context must be a single assumption")
        return
    (x, a), = j.context
    if not (isinstance(j.subject, Var) and j.subject.name == x):
        bad(path, d, "ax", "subject must be the assumption variable")
    if a != j.goal:
        bad(path, d, "ax", "assumption and goal types differ")


def _split_linear(d, path, bad, left_j, right_j, eigens):
    """Common context side conditions of cut and lolliL.

    The two premise contexts may not share free type variables.  Variables
    generalized by a forallR instance between here and the root are bound
    occurrences at the scale of the whole derivation and are exempt — without
    the exemption the boolean type would have no cut-free inhabitants.
    """
    if context_names(left_j.context) & context_names(right_j.context):
        bad(path, d, "context", "premise contexts share assumption names")
    shared = (context_free_type_vars(left_j.context)
              & context_free_type_vars(right_j.context)) - eigens
    if shared:
        bad(path, d, "linear-constraint",
            "premise contexts share free type variables: %s" % sorted(shared))


def _check_cut(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 2, bad):
        return
    j = d.conclusion
    l, r = d.premises
    lj, rj = l.conclusion, r.conclusion
    cut_names = context_names(rj.context) - context_names(j.context)
    if len(cut_names) != 1:
        bad(path, d, "cut", "cannot identify the cut assumption")
        return
    x = next(iter(cut_names))
    a = rj.lookup(x)
    if lj.goal != a:
        bad(path, d, "cut", "left premise goal differs from cut type")
    if lj.context and any(n not in context_names(j.context) for n in context_names(lj.context)):
        bad(path, d, "cut", "left premise context not in conclusion")
    if not _same_context(j.context, lj.context + _ctx_remove(rj.context, x)):
        bad(path, d, "cut", "conclusion context is not the premise contexts joined")
    if rj.goal != j.goal:
        bad(path, d, "cut", "goal differs from right premise goal")
    _split_linear(d, path, bad, lj, rj, eigens)
    if not alpha_equal(j.subject, subst(rj.subject, x, lj.subject)):
        bad(path, d, "cut", "subject is not the substituted right subject")


def _check_lolliR(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 1, bad):
        return
    j = d.conclusion
    pj = d.premises[0].conclusion
    if not isinstance(j.goal, Lolli):
        bad(path, d, "lolliR", "goal must be an implication")
        return
    if not isinstance(j.subject, Abs):
        bad(path, d, "lolliR", "subject must be an abstraction")
        return
    new = context_names(pj.context) - context_names(j.context)
    if len(new) != 1:
        bad(path, d, "lolliR", "cannot identify the abstracted assumption")
        return
    x = next(iter(new))
    if pj.lookup(x) != j.goal.dom:
        bad(path, d, "lolliR", "abstracted assumption type differs from domain")
    if not _same_context(_ctx_remove(pj.context, x), j.context):
        bad(path, d, "lolliR", "context mismatch")
    if pj.goal != j.goal.cod:
        bad(path, d, "lolliR", "premise goal differs from codomain")
    if not alpha_equal(j.subject, Abs(x, pj.subject)):
        bad(path, d, "lolliR", "subject is not the abstracted premise subject")


def _check_lolliL(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 2, bad):
        return
    j = d.conclusion
    l, r = d.premises
    lj, rj = l.conclusion, r.conclusion
    # y: the conclusion assumption absent from both premises; x: the right
    # premise assumption absent from the conclusion.
    ys = context_names(j.context) - context_names(lj.context) - context_names(rj.context)
    xs = context_names(rj.context) - context_names(j.context)
    if len(ys) != 1 or len(xs) != 1:
        bad(path, d, "lolliL", "cannot identify the introduced/consumed assumptions")
        return
    y, x = next(iter(ys)), next(iter(xs))
    ab = j.lookup(y)
    if not isinstance(ab, Lolli):
        bad(path, d, "lolliL", "introduced assumption must have implication type")
        return
    if lj.goal != ab.dom:
        bad(path, d, "lolliL", "left premise goal differs from domain")
    if rj.lookup(x) != ab.cod:
        bad(path, d, "lolliL", "consumed assumption type differs from codomain")
    if not _same_context(j.context,
                         lj.context + ((y, ab),) + _ctx_remove(rj.context, x)):
        bad(path, d, "lolliL", "context mismatch")
    if rj.goal != j.goal:
        bad(path, d, "lolliL", "goal differs from right premise goal")
    _split_linear(d, path, bad, lj, rj, eigens)
    if not alpha_equal(j.subject, subst(rj.subject, x, App(Var(y), lj.subject))):
        bad(path, d, "lolliL", "subject is not the right subject with y applied")
    if system == LAM and is_closed(ab.cod) and not is_closed(ab.dom):
        bad(path, d, "closure",
            "implication-left with closed codomain but open domain")


def _check_withR(d, path, system, bad, eigens):
    # IMALL2 additive pair: both premises share the whole context.
    if not _expect_premises(d, path, 2, bad):
        return
    j = d.conclusion
    lj, rj = (p.conclusion for p in d.premises)
    if not isinstance(j.goal, With):
        bad(path, d, "withR", "goal must be a conjunction")
        return
    if not (_same_context(j.context, lj.context) and _same_context(j.context, rj.context)):
        bad(path, d, "withR", "premises must share the conclusion context")
    if lj.goal != j.goal.left or rj.goal != j.goal.right:
        bad(path, d, "withR", "premise goals differ from the components")
    if not (isinstance(j.subject, Pair)
            and alpha_equal(j.subject, Pair(lj.subject, rj.subject))):
        bad(path, d, "withR", "subject is not the premise pair")


def _check_withR0(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 2, bad):
        return
    j = d.conclusion
    lj, rj = (p.conclusion for p in d.premises)
    if not isinstance(j.goal, With):
        bad(path, d, "withR0", "goal must be a conjunction")
        return
    if j.context or lj.context or rj.context:
        bad(path, d, "withR0", "all contexts must be empty")
    if lj.goal != j.goal.left or rj.goal != j.goal.right:
        bad(path, d, "withR0", "premise goals differ from the components")
    for side in (j.goal.left, j.goal.right):
        if not (is_closed(side) and is_forall_lazy(side)):
            bad(path, d, "withR0", "component types must be closed forall-lazy")
    if not (isinstance(j.subject, Pair)
            and alpha_equal(j.subject, Pair(lj.subject, rj.subject))):
        bad(path, d, "withR0", "subject is not the premise pair")


def _check_withR1(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 3, bad):
        return
    j = d.conclusion
    b1, b2, g = d.premises
    if not isinstance(j.goal, With):
        bad(path, d, "withR1", "goal must be a conjunction")
        return
    if len(j.context) != 1:
        bad(path, d, "withR1", "conclusion context must be a single assumption")
        return
    (x, a), = j.context
    sub = j.subject
    if not (isinstance(sub, Copy) and isinstance(sub.scrutinee, Var)
            and sub.scrutinee.name == x):
        bad(path, d, "withR1", "subject must copy the context variable")
        return
    for side, p, comp in (("left", b1, j.goal.left), ("right", b2, j.goal.right)):
        pj = p.conclusion
        if len(pj.context) != 1 or pj.context[0][1] != a:
            bad(path, d, "withR1", "%s branch context must be one assumption of the guard type" % side)
            continue
        if pj.goal != comp:
            bad(path, d, "withR1", "%s branch goal differs from the component" % side)
    gj = g.conclusion
    if gj.context:
        bad(path, d, "withR1", "guard premise context must be empty")
    if gj.goal != a:
        bad(path, d, "withR1", "guard premise goal differs from the assumption type")
    if not is_value(gj.subject):
        bad(path, d, "withR1", "guard must be a value")
    if not is_eta_expanded(g):
        bad(path, d, "withR1", "guard subderivation must be eta-expanded")
    for t, what in ((a, "assumption"), (j.goal.left, "left component"),
                    (j.goal.right, "right component")):
        if not (is_closed(t) and is_forall_lazy(t)):
            bad(path, d, "withR1", "%s type must be closed forall-lazy" % what)
    want = Copy(g.conclusion.subject, Var(x),
                b1.conclusion.context[0][0] if b1.conclusion.context else "_",
                b2.conclusion.context[0][0] if b2.conclusion.context else "_",
                b1.conclusion.subject, b2.conclusion.subject)
    if not alpha_equal(sub, want):
        bad(path, d, "withR1", "subject does not assemble the premises")


def _check_withL(i):
    def go(d, path, system, bad, eigens):
        if not _expect_premises(d, path, 1, bad):
            return
        j = d.conclusion
        pj = d.premises[0].conclusion
        ys = context_names(j.context) - context_names(pj.context)
        xs = context_names(pj.context) - context_names(j.context)
        if len(ys) != 1 or len(xs) != 1:
            bad(path, d, "withL", "cannot identify the introduced/consumed assumptions")
            return
        y, x = next(iter(ys)), next(iter(xs))
        ab = j.lookup(y)
        if not isinstance(ab, With):
            bad(path, d, "withL", "introduced assumption must have conjunction type")
            return
        comp = ab.left if i == 1 else ab.right
        if pj.lookup(x) != comp:
            bad(path, d, "withL", "consumed assumption type differs from component %d" % i)
        if not _same_context(j.context, ((y, ab),) + _ctx_remove(pj.context, x)):
            bad(path, d, "withL", "context mismatch")
        if pj.goal != j.goal:
            bad(path, d, "withL", "goal differs from premise goal")
        if not alpha_equal(j.subject, subst(pj.subject, x, Proj(i, Var(y)))):
            bad(path, d, "withL", "subject is not the projected premise subject")
        if system == LAM and not (is_closed(ab) and is_forall_lazy(ab)):
            bad(path, d, "withL", "conjunction must be closed forall-lazy")
    return go


def find_eigenvariable(d: Derivation):
    """For a forallR node, the eigenvariable used in the premise (or a fresh
    name when the bound variable does not occur)."""
    j = d.conclusion
    pj = d.premises[0].conclusion
    m = match_instantiation(j.goal.body, j.goal.var, pj.goal)
    if m is None:
        return None
    _, b = m
    if b is None:
        return fresh_type_var("g", context_free_type_vars(j.context)
                              | free_type_vars(j.goal))
    if not isinstance(b, TVar):
        return None
    return b.name


def _check_forallR(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 1, bad):
        return
    j = d.conclusion
    pj = d.premises[0].conclusion
    if not isinstance(j.goal, Forall):
        bad(path, d, "forallR", "goal must be universally quantified")
        return
    if not _same_context(j.context, pj.context):
        bad(path, d, "forallR", "context mismatch")
    if not alpha_equal(j.subject, pj.subject):
        bad(path, d, "forallR", "subject must be unchanged")
    g = find_eigenvariable(d)
    if g is None:
        bad(path, d, "forallR", "premise goal is not an instance at an eigenvariable")
        return
    if g in context_free_type_vars(j.context):
        bad(path, d, "forallR", "eigenvariable occurs free in the context")
    if system == LAM and is_closed(j.goal) and context_free_type_vars(j.context):
        bad(path, d, "closure",
            "closed forall introduced over a context with free type variables")


def _check_forallL(d, path, system, bad, eigens):
    if not _expect_premises(d, path, 1, bad):
        return
    j = d.conclusion
    pj = d.premises[0].conclusion
    xs = [n for n, a in j.context
          if pj.lookup(n) is not None and pj.lookup(n) != a]
    xs += [n for n, _ in j.context if pj.lookup(n) is None]
    if len(xs) != 1:
        # The instantiated type may equal the quantified one (unused binder);
        # fall back to scanning for any forall assumption matching.
        xs = [n for n, a in j.context if isinstance(a, Forall)
              and pj.lookup(n) is not None]
    done = False
    for x in xs:
        a = j.lookup(x)
        if not isinstance(a, Forall):
            continue
        inst = pj.lookup(x)
        if inst is None:
            continue
        if match_instantiation(a.body, a.var, inst) is not None:
            done = True
            break
    if not done:
        bad(path, d, "forallL", "no assumption instantiates a quantified type")
        return
    if not _same_context(_ctx_remove(j.context, x), _ctx_remove(pj.context, x)):
        bad(path, d, "forallL", "context mismatch")
    if pj.goal != j.goal:
        bad(path, d, "forallL", "goal differs from premise goal")
    if not alpha_equal(j.subject, pj.subject):
        bad(path, d, "forallL", "subject must be unchanged")


_HANDLERS = {
    "ax": _check_ax,
    "cut": _check_cut,
    "lolliR": _check_lolliR,
    "lolliL": _check_lolliL,
    "withR": _check_withR,
    "withR0": _check_withR0,
    "withR1": _check_withR1,
    "withL1": _check_withL(1),
    "withL2": _check_withL(2),
    "forallR": _check_forallR,
    "forallL": _check_forallL,
}


# -- derived judgements about whole derivations -------------------------------

_premises = attrgetter("premises")


def _stats_here(d: Derivation, kids: list) -> tuple:
    """(size, weight, height, height_sum, cuts) of d from its premises'."""
    size, weight, height, height_sum, cuts = 1, d.rule == "withR1", 0, 0, 0
    for s, w, h, hs, c in kids:
        size += s
        weight += w
        height = max(height, h)
        height_sum += hs
        cuts += c
    if d.rule == "cut":
        return (size, weight, height + 1, height_sum + height, cuts + 1)
    return (size, weight, height + 1, height_sum, cuts)


def _stats(d: Derivation) -> tuple:
    return cache_up(d, "_stats", _premises, _stats_here)


def is_cut_free(d: Derivation) -> bool:
    return _stats(d)[4] == 0


def is_eta_expanded(d: Derivation) -> bool:
    """Cut-free with every axiom at an atomic type."""
    seen = set()

    def go(d):
        if id(d) in seen:
            return True
        seen.add(id(d))
        if d.rule == "cut":
            return False
        if d.rule == "ax" and not isinstance(d.conclusion.goal, TVar):
            return False
        return all(go(p) for p in d.premises)

    return go(d)


def uses_rules(d: Derivation) -> frozenset:
    seen = set()
    rules = set()

    def go(d):
        if id(d) in seen:
            return
        seen.add(id(d))
        rules.add(d.rule)
        for p in d.premises:
            go(p)

    go(d)
    return frozenset(rules)


@dataclass
class ProofMetrics:
    size: int          # number of rule instances
    weight: int        # number of withR1 instances
    height_sum: int    # sum of heights of cut-rooted subderivations
    max_height: int    # height of the whole derivation


def metrics(d: Derivation) -> ProofMetrics:
    size, weight, height, height_sum, _ = _stats(d)
    return ProofMetrics(size=size, weight=weight, height_sum=height_sum,
                        max_height=height - 1)


def check_size_bounds(d: Derivation) -> dict:
    """For eta-expanded derivations: |M| <= |ctx|+|goal| <= 2|D|."""
    from .terms import term_size
    j = d.conclusion
    m = term_size(j.subject)
    seq = sum(type_size(a) for a in j.context_types()) + type_size(j.goal)
    two_d = 2 * metrics(d).size
    return {
        "subject_size": m,
        "sequent_size": seq,
        "twice_derivation_size": two_d,
        "holds": m <= seq <= two_d,
    }


def check_lazy_propagation(d: Derivation) -> bool:
    """Cut-free derivations of forall-lazy sequents avoid withR1, withL, and
    forallL throughout (which forces copy/projection-free subjects)."""
    banned = {"withR1", "withL1", "withL2", "forallL", "cut"}
    return not (uses_rules(d) & banned)


# -- construction combinators -------------------------------------------------
#
# Smart constructors used by generators, gadget builders, and the translator.
# Each computes the conclusion from its premises; they raise ValueError on
# schema mismatch rather than producing an unsound node.

def d_ax(x: str, a: Type) -> Derivation:
    return Derivation("ax", Judgement(((x, a),), Var(x), a), ())


def d_cut(left: Derivation, right: Derivation, x: str) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    if rj.lookup(x) != lj.goal:
        raise ValueError("cut type mismatch on %s" % x)
    ctx = lj.context + _ctx_remove(rj.context, x)
    return Derivation(
        "cut",
        Judgement(ctx, subst(rj.subject, x, lj.subject), rj.goal),
        (left, right),
    )


def d_lolliR(d: Derivation, x: str) -> Derivation:
    j = d.conclusion
    a = j.lookup(x)
    if a is None:
        raise ValueError("no assumption %s to abstract" % x)
    return Derivation(
        "lolliR",
        Judgement(_ctx_remove(j.context, x), Abs(x, j.subject), Lolli(a, j.goal)),
        (d,),
    )


def d_lolliL(left: Derivation, right: Derivation, y: str, x: str) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    b = rj.lookup(x)
    if b is None:
        raise ValueError("no assumption %s to consume" % x)
    ab = Lolli(lj.goal, b)
    ctx = lj.context + ((y, ab),) + _ctx_remove(rj.context, x)
    return Derivation(
        "lolliL",
        Judgement(ctx, subst(rj.subject, x, App(Var(y), lj.subject)), rj.goal),
        (left, right),
    )


def d_withR(left: Derivation, right: Derivation) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    return Derivation(
        "withR",
        Judgement(lj.context, Pair(lj.subject, rj.subject), With(lj.goal, rj.goal)),
        (left, right),
    )


def d_withR0(left: Derivation, right: Derivation) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    if lj.context or rj.context:
        raise ValueError("withR0 premises must be closed")
    return Derivation(
        "withR0",
        Judgement((), Pair(lj.subject, rj.subject), With(lj.goal, rj.goal)),
        (left, right),
    )


def d_withR1(b1: Derivation, b2: Derivation, guard: Derivation, x: str) -> Derivation:
    a = guard.conclusion.goal
    (x1, a1), = b1.conclusion.context
    (x2, a2), = b2.conclusion.context
    if a1 != a or a2 != a:
        raise ValueError("branch assumptions must carry the guard type")
    sub = Copy(guard.conclusion.subject, Var(x), x1, x2,
               b1.conclusion.subject, b2.conclusion.subject)
    goal = With(b1.conclusion.goal, b2.conclusion.goal)
    return Derivation("withR1", Judgement(((x, a),), sub, goal), (b1, b2, guard))


def d_withL(i: int, d: Derivation, y: str, x: str, other: Type) -> Derivation:
    j = d.conclusion
    comp = j.lookup(x)
    if comp is None:
        raise ValueError("no assumption %s to consume" % x)
    ab = With(comp, other) if i == 1 else With(other, comp)
    ctx = ((y, ab),) + _ctx_remove(j.context, x)
    return Derivation(
        "withL%d" % i,
        Judgement(ctx, subst(j.subject, x, Proj(i, Var(y))), j.goal),
        (d,),
    )


def d_forallR(d: Derivation, gamma: str, alpha: str) -> Derivation:
    """Generalize the premise goal, abstracting eigenvariable gamma as alpha."""
    j = d.conclusion
    if gamma in context_free_type_vars(j.context):
        raise ValueError("eigenvariable %s free in context" % gamma)
    body = subst_type(j.goal, gamma, TVar(alpha)) if gamma != alpha else j.goal
    return Derivation(
        "forallR", Judgement(j.context, j.subject, Forall(alpha, body)), (d,)
    )


def d_forallL(d: Derivation, x: str, quant: Type) -> Derivation:
    j = d.conclusion
    inst = j.lookup(x)
    if inst is None:
        raise ValueError("no assumption %s" % x)
    if not isinstance(quant, Forall) or match_instantiation(quant.body, quant.var, inst) is None:
        raise ValueError("assumption type is not an instance of %r" % (quant,))
    ctx = tuple((n, quant if n == x else a) for n, a in j.context)
    return Derivation("forallL", Judgement(ctx, j.subject, j.goal), (d,))


def d_app(fun: Derivation, arg: Derivation) -> Derivation:
    """Natural-deduction application: cut the function into an implication-left
    on a fresh head variable."""
    from .terms import fresh_name
    fj = fun.conclusion
    if not isinstance(fj.goal, Lolli):
        raise ValueError("function premise must have implication type")
    avoid = (context_names(fj.context) | context_names(arg.conclusion.context)
             | free_vars(fj.subject) | free_vars(arg.conclusion.subject))
    y = fresh_name("f", avoid)
    w = fresh_name("w", avoid | {y})
    use = d_lolliL(arg, d_ax(w, fj.goal.cod), y, w)
    return d_cut(fun, use, y)


def d_inst(d: Derivation, b: Type) -> Derivation:
    """Use a universally quantified conclusion at an instance type."""
    from .terms import fresh_name
    j = d.conclusion
    if not isinstance(j.goal, Forall):
        raise ValueError("conclusion is not quantified")
    x = fresh_name("u", context_names(j.context) | free_vars(j.subject))
    inst = subst_type(j.goal.body, j.goal.var, b)
    use = d_forallL(d_ax(x, inst), x, j.goal)
    return d_cut(d, use, x)

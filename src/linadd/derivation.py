"""Sequent derivations and the proof checker.

A derivation node records its rule name, its full conclusion judgement, its
premise subderivations, and the parameters its rule was built with, in the
order of this table, which is also the order of their arguments in a
version 2 `.lamd` file (see `frontend`):

    rule            parameters      premises
    ax              x, A            -
    cut             x               left, right (x : A in the right one)
    lolliR          x               one (x is abstracted)
    lolliL          y, x            left, right (y : A -o B introduced,
                                    x : B of the right premise consumed)
    withR, withR0   -               left, right
    withR1          x               left branch, right branch, guard
    withL1, withL2  y, x, other     one (y : A & B introduced, x consumed,
                                    other the component not projected)
    forallR         gamma, alpha    one (eigenvariable gamma bound, alpha
                                    only the print hint of the binder)
    forallL         x, quant        one (x : quant, a forall, replaces x's
                                    instance)

The `d_*` constructors at the end of this module are the one definition of
each rule: each computes the conclusion from its premises and parameters,
raises ValueError on a schema mismatch, and marks the node it built as
derived.  A node made any other way (`Derivation(...)`,
`dataclasses.replace`, a parsed node that states its judgement) is not
derived.  `check` rebuilds each node that is not derived with its rule's
constructor and compares the result with the stated conclusion; a derived
node it does not rebuild.  That is
sound because the constructors are pure functions of their premises and
parameters that respect `==`, and nodes, judgements, types and terms are
immutable, so a rebuild of a derived node would reproduce its conclusion
exactly: the mark caches that fact for its one node, as an LCF kernel's
theorems carry the checking of their inference (Gordon, Milner &
Wadsworth, 1979).  It is never trusted for the node's premises, which are
nodes of their own.

Beyond the rebuild, `check` checks on every node, derived or not, what a
constructor cannot see: the rule set of the system, arity, the stored
parameters, duplicate names, the context split of cut and lolliL, closure
and laziness, the withR1 guard, and in lam linearity (which rejects nothing
the rest accepts, but names every node that a bad premise made non-linear;
see below).  A node's parameters are the tuple it stores, which must be of
the number and kinds in `PARAMS`; any other tuple is a violation at that
node, reported as "parameters not stated" when it is empty (a node built
without them, as when a file states a judgement without its rule's
arguments).  The three systems:

    imll2   ax, cut, lolliR, lolliL, forallR, forallL
    imall2  imll2 plus withR (shared-context pair), withL1/withL2
    lam     imll2 plus the linear additive rules withR0 (empty contexts),
            withR1 (guarded duplication), withL1/withL2, with the closure
            and forall-laziness side conditions

Rules carry term decorations, so the left rules and cut perform substitutions
in the subject, and lolliR, withR1 and forallR bind names (see `nameless`:
no rule renames, and none can capture).  Contexts are multisets of named,
typed assumptions; cut and lolliL additionally demand that the free type
variables of the two premise contexts be disjoint.

A constructor builds no term.  Its judgement (`Judgement`) stores the
context, the goal, the subject's free names (`subject_names`, computed
exactly from the premises' names: the substitution of s for x in t has
the names of t less x, and those of s, when x is free in t; a binder drops
its names) and the rule's formula for the subject over the premises'
judgements.  The first read of `.subject` runs the formula, after those of
the premises whose subjects were not read yet, bottom-up on a stack of its
own (`_force`), and keeps the result.  So building, stepping and checking
a derivation cost its contexts and goals; a substitution in a subject is
made only when someone reads that subject, and once.

`check` walks with its own stack, in the order of a recursive walk: a
node's pre-checks, its premises left to right, then its own checks and
linearity.  A node's path is a chain of links to its parent's, turned into
a tuple only for a violation.  The eigenvariables generalized above a node
matter only to the context splits at or below it (`_split_linear`), so a
node reached again is visited again only when those eigenvariables differ
on R(node), the variables that some split below it tests (`_split_vars`,
computed on the first revisit).  A subderivation shared within a DAG is
therefore checked once, however many uses it has, unless its uses differ on
what its splits test; a violation in it is reported at the path of the
first use, not again at the paths of uses that agree on what it tests.

In lam, `check` counts the uses of a node's assumptions in its subject
(`_linearity`, which reads the subject) only where it may find one that is
not used exactly once: at a node where some check of this visit, at it or
above it, found a violation, or with a premise that some visit found so
(a per-node memo, which a shared node's revisits read;
`_may_be_nonlinear`).  Every other node is clean: no check at it or above
it found a violation, and such a node's subject has as free names exactly
its context's, each free once.  By induction on the rules of lam, given
clean premises and the checks that passed at the node (the rebuilt or
constructed conclusion, distinct context names, disjoint premise contexts
for cut and lolliL):

    ax              x : A |- x : A.
    cut, lolliL     x is free once in the right subject, so the left one
                    (under y for lolliL) lands once; the premise contexts
                    are disjoint, and y is new to the conclusion's.
    lolliR          x is free once in the body and the binder takes it.
    withR0          both contexts are empty, so both subjects are closed.
    withR1          the guard is closed, each branch uses its one variable
                    once and the binder takes it, and x is the scrutinee.
    withL1, withL2  x is free once and becomes pi(y), y new to the context.
    forallR/L       the subject and the context's names are the premise's.

The linear-constraint check depends on the eigenvariables above a node and
so on the visit, but it does not bear on linearity; it only makes `check`
count where it need not.  A clean node therefore has no linearity
violation, and skipping it changes no report.

Each node stores, when it is built, its size, weight, height, summed cut
heights and cut count in one slot (`_stats`), from its premises' stored
ones, so `metrics` and `is_cut_free` read one slot, and a search for cuts
skips every cut-free subderivation.  The counts are taken with tree
multiplicity: a shared subderivation counts once per occurrence.  A cut
node also keeps its class for cut elimination, computed on the first query
(see `steps.cut_class`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from .nameless import fold, fresh
from .terms import (
    Abs, App, Copy, Pair, Proj, Term, Var, is_value, subst,
)
from .typesys import (
    Forall, Lolli, TVar, Type, With,
    close_type, is_closed, is_forall_lazy, match_instantiation, open_type,
)

premises = attrgetter("premises")  # the kids of a node, for `fold`

LAM = "lam"
IMALL2 = "imall2"
IMLL2 = "imll2"

ARITY = {
    "ax": 0, "cut": 2, "lolliR": 1, "lolliL": 2,
    "withR": 2, "withR0": 2, "withR1": 3, "withL1": 1, "withL2": 1,
    "forallR": 1, "forallL": 1,
}
RULES = tuple(ARITY)
# The kinds of each rule's parameters, in the order of the table in the
# module docstring and of its `d_*` constructor's arguments: str for a name,
# Type for a type.
PARAMS = {
    "ax": (str, Type), "cut": (str,), "lolliR": (str,), "lolliL": (str, str),
    "withR": (), "withR0": (), "withR1": (str,), "withL1": (str, str, Type),
    "withL2": (str, str, Type), "forallR": (str, str), "forallL": (str, Type),
}

_SYSTEM_RULES = {
    IMLL2: {"ax", "cut", "lolliR", "lolliL", "forallR", "forallL"},
    IMALL2: {"ax", "cut", "lolliR", "lolliL", "forallR", "forallL",
             "withR", "withL1", "withL2"},
    LAM: {"ax", "cut", "lolliR", "lolliL", "forallR", "forallL",
          "withR0", "withR1", "withL1", "withL2"},
}


class Judgement:
    """context |- subject : goal, with the context a tuple of (name, type),
    and `subject_names` the free names of the subject.

    A judgement that a `d_*` constructor builds stores the context, the
    goal, the subject's free names (computed from its premises' names) and
    its rule's formula for the subject over its premises' judgements; the
    subject is computed on its first read, and kept (see `_force`).  A
    judgement made any other way states its subject.  Judgements are
    immutable by convention: the one slot filled after one is built is a
    subject that was not yet read."""

    __slots__ = ("context", "_subject", "goal", "subject_names", "_formula", "_args")

    def __init__(self, context: tuple, subject: Term, goal: Type):
        self.context = context
        self._subject = subject
        self.goal = goal
        self.subject_names = subject._fv
        self._formula = self._args = None

    @property
    def subject(self) -> Term:
        s = self._subject
        return _force(self) if s is None else s

    def __repr__(self):
        return "Judgement(context=%r, subject=%r, goal=%r)" % (
            self.context, self.subject, self.goal)

    def context_types(self):
        return tuple(a for _, a in self.context)

    def lookup(self, name: str):
        for n, a in self.context:
            if n == name:
                return a
        return None


def _judgement(context: tuple, goal: Type, names: frozenset, formula,
               *args) -> Judgement:
    """The judgement whose subject is formula(*args), not computed until it
    is read; `names` are the free names of that subject.  The formula reads
    the subjects of the judgements among args, which come first."""
    j = object.__new__(Judgement)
    j.context = context
    j._subject = None
    j.goal = goal
    j.subject_names = names
    j._formula = formula
    j._args = args
    return j


def _force(j: Judgement) -> Term:
    """The subject of j, computed once: the subjects of the judgements it is
    built from that are not yet computed first, bottom-up on a stack of its
    own, so no depth recurses.  Each judgement computed keeps its subject
    and drops its formula and its own copy of the subject's names."""
    todo = [j]
    push, pop = todo.append, todo.pop
    while todo:
        k = todo[-1]
        formula = k._formula
        if formula is None:  # computed since it was pushed
            pop()
            continue
        args = k._args
        n = len(todo)
        for a in args:
            if a.__class__ is Judgement and a._formula is not None:
                push(a)
        if len(todo) == n:
            m = k._subject = formula(*args)
            k.subject_names = m._fv  # an equal set, which m keeps anyway
            k._formula = k._args = None
            pop()
    return j._subject


_NO_STATS = (0, 0, 0, 0, 0)  # the summed `_stats` of no premises


@dataclass(frozen=True, eq=False, init=False)
class Derivation:
    """A rule instance; `params` is the tuple of parameters the node stores,
    () when it was built without them.  `_derived` is True only for a node
    that its rule's `d_*` constructor built, and `_stats` is (size, weight,
    height, summed cut heights, cuts), from the premises' (see the module
    docstring)."""

    __slots__ = ("rule", "conclusion", "premises", "params", "_stats",
                 "_cut", "_derived", "__weakref__")
    rule: str
    conclusion: Judgement
    premises: tuple
    params: tuple

    def __init__(self, rule: str, conclusion: Judgement, premises: tuple,
                 params: tuple = ()):
        _fill(self, rule, conclusion, premises, params, False)


def _fill(d: Derivation, rule: str, conclusion: Judgement, premises: tuple,
          params: tuple, derived: bool) -> None:
    """Set the slots of the new node d, its `_stats` from its premises'."""
    _set_rule(d, rule)
    _set_conclusion(d, conclusion)
    _set_premises(d, premises)
    _set_params(d, params)
    _set_derived(d, derived)
    s, w, h, hs, c = premises[0]._stats if premises else _NO_STATS
    for p in premises[1:]:
        s2, w2, h2, hs2, c2 = p._stats
        s, w, hs, c = s + s2, w + w2, hs + hs2, c + c2
        if h2 > h:
            h = h2
    if rule == "cut":
        stats = (s + 1, w, h + 1, hs + h, c + 1)
    else:
        stats = (s + 1, w + (rule == "withR1"), h + 1, hs, c)
    _set_stats(d, stats)


# The setter of each slot of a node.  The node is frozen, so its slots are
# set through their descriptors: `object.__setattr__` would do the same at
# about 1.5 times the cost, and nodes are built often.
_set_rule, _set_conclusion, _set_premises, _set_params, _set_stats, _set_derived = (
    Derivation.__dict__[s].__set__
    for s in ("rule", "conclusion", "premises", "params", "_stats", "_derived"))


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


def _same_context(c1, c2) -> bool:
    """Equal as multisets, for c1 without duplicate names."""
    return len(c1) == len(c2) and dict(c1) == dict(c2)


def _ctx_remove(ctx, name):
    return tuple((n, a) for n, a in ctx if n != name)


def context_names(ctx):
    return frozenset(dict(ctx))


def context_free_type_vars(ctx):
    return frozenset().union(*(a._fv for _, a in ctx))


def _linearity(j: Judgement):
    """The context names that do not occur free in the subject exactly once,
    with their counts."""
    if not j.context:
        return []
    counts: dict = {}
    stack = [j.subject]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            counts[t.name] = counts.get(t.name, 0) + 1
        elif t._fv:
            stack += t.children()
    return [(n, counts.get(n, 0)) for n, _ in j.context if counts.get(n) != 1]


def _split_vars(d: Derivation, cache: dict) -> frozenset:
    """R(d): the type variables that some cut or lolliL at or below d finds
    in both of its premise contexts, less those that a forallR between it
    and d binds.  Only these of the eigenvariables above d can change what
    `check` reports below d.  Fills `cache` (id -> R) for every node below
    d."""
    def here(n, below):
        r = frozenset().union(*below)
        if n.rule == "forallR" and params_error(n) is None:
            return r - {n.params[0]}
        if n.rule in ("cut", "lolliL") and len(n.premises) == 2:
            left, right = (p.conclusion.context for p in n.premises)
            r |= context_free_type_vars(left) & context_free_type_vars(right)
        return r

    return fold(d, premises, here, cache)


def _may_be_nonlinear(d: Derivation, found: bool, dirty: dict) -> bool:
    """Whether `check` must count the uses of d's assumptions in lam: a
    violation was `found` at or above d in this visit, or some visit of a
    premise of d found it may be non-linear or left it before its checks (it
    has no entry in `dirty`).  Otherwise d is linear (see the module
    docstring)."""
    if found:
        return True
    for p in d.premises:
        if dirty.get(id(p), True):
            return True
    return False


_ENTER = object()  # marks a stack entry of `check` that enters its node


def check(d: Derivation, system: str = LAM):
    """Return a list of Violations; empty means the derivation is correct."""
    if system not in _SYSTEM_RULES:
        raise ValueError("unknown system: %r" % (system,))
    rules = _SYSTEM_RULES[system]
    out: list[Violation] = []
    first: dict = {}   # id(node) -> the eigenvariables of its first visit
    again: dict = {}   # id(node) -> {eigenvariables & R(node) visited}
    split: dict = {}   # id(node) -> R(node), filled on the first revisit
    dirty: dict = {}   # id(node) -> whether some visit found it may be nonlinear

    def bad(at, d, cond, msg):
        # `at` links to the parent's link: (parent_at, i), None at the root
        path = []
        while at is not None:
            at, i = at
            path.append(i)
        out.append(Violation(tuple(reversed(path)), d.rule, cond, msg))

    def leave(d, at, eigens, wrong, mark):
        # the checks of d that follow those of its premises; `mark` is the
        # number of violations found before d was entered
        _check_node(d, wrong, at, system, bad, eigens)
        if system != LAM:
            return
        if not _may_be_nonlinear(d, len(out) > mark, dirty):
            dirty.setdefault(id(d), False)
            return
        dirty[id(d)] = True
        lin = _linearity(d.conclusion)
        if lin:
            bad(at, d, "linearity", "assumptions not used exactly once: %s" % (lin,))

    # Entries (node, link, eigenvariables above it, _ENTER, None) enter a
    # node; (node, link, eigenvariables, what is wrong with its parameters,
    # the number of violations before it) leave it once its premises are
    # done, as a recursive walk would return.  A node without premises is
    # left as soon as it is entered.
    todo = [(d, None, frozenset(), _ENTER, None)]
    while todo:
        d, at, eigens, wrong, mark = todo.pop()
        if wrong is not _ENTER:
            leave(d, at, eigens, wrong, mark)
            continue
        seen = first.get(id(d))
        if seen is None:
            first[id(d)] = eigens
        elif seen == eigens:
            continue
        else:
            r = _split_vars(d, split)
            keys = again.get(id(d))
            if keys is None:
                keys = again[id(d)] = {seen & r}
            if eigens & r in keys:
                continue
            keys.add(eigens & r)
        if d.rule not in RULES:
            bad(at, d, "rule", "unknown rule %r" % (d.rule,))
            continue
        if d.rule not in rules:
            bad(at, d, "system", "rule %s not available in %s" % (d.rule, system))
            continue
        ctx = d.conclusion.context
        if len(ctx) > 1 and len({n for n, _ in ctx}) != len(ctx):
            bad(at, d, "context", "duplicate assumption names")
            continue
        wrong = params_error(d)
        up = eigens
        if d.rule == "forallR" and wrong is None:
            up = eigens | {d.params[0]}
        ps = d.premises
        if not ps:
            leave(d, at, eigens, wrong, len(out))
            continue
        todo.append((d, at, eigens, wrong, len(out)))
        if len(ps) == 1:
            todo.append((ps[0], (at, 0), up, _ENTER, None))
        else:
            todo += [(ps[i], (at, i), up, _ENTER, None)
                     for i in range(len(ps) - 1, -1, -1)]
    return out


def check_ok(d: Derivation, system: str = LAM) -> None:
    vs = check(d, system)
    if vs:
        raise CheckError(vs)


def params_error(d: Derivation):
    """What is wrong with the parameters d stores for its known rule, or
    None."""
    kinds, params = PARAMS[d.rule], d.params
    if len(params) != len(kinds):
        if not params:
            return "parameters not stated"
        return "expected %d parameters, got %d" % (len(kinds), len(params))
    if all(map(isinstance, params, kinds)):
        return None
    i = next(i for i, (p, k) in enumerate(zip(params, kinds)) if not isinstance(p, k))
    return "parameter %d is not a %s" % (i + 1, "name" if kinds[i] is str else "type")


def rebuild_error(d: Derivation, ordered: bool = False):
    """Why d's rule's constructor, over d's premises and with d's parameters
    (of the right number and kinds), does not conclude d's conclusion: its
    ValueError, or the parts that differ.  None when it does.  Contexts are
    compared as multisets, or as sequences when `ordered`.  None at once
    for a derived node, whose constructor built exactly its conclusion."""
    if d._derived:
        return None
    try:
        built = CONSTRUCTORS[d.rule](*d.premises, *d.params).conclusion
    except ValueError as e:
        return str(e)
    j = d.conclusion
    same_context = (j.context == built.context if ordered
                    else _same_context(j.context, built.context))
    differ = [part for part, same in (
        ("context", same_context),
        ("goal", j.goal == built.goal),
        ("subject", j.subject == built.subject)) if not same]
    return "the rule concludes a different %s" % " and ".join(differ) if differ else None


def _check_node(d, wrong, at, system, bad, eigens):
    """Rebuild d with its rule's constructor unless it is derived, compare
    the conclusions, then check the side conditions no constructor sees;
    `wrong` is what is wrong with d's parameters."""
    rule = d.rule
    if len(d.premises) != ARITY[rule]:
        bad(at, d, "arity", "expected %d premises, got %d"
            % (ARITY[rule], len(d.premises)))
        return
    if wrong is not None:
        bad(at, d, "params", wrong)
        return
    why = rebuild_error(d)
    if why is not None:
        bad(at, d, rule, why)
        return
    j, params = d.conclusion, d.params
    if rule in ("cut", "lolliL"):
        _split_linear(d, at, bad, eigens)
    if system != LAM:
        return
    lazy = ()
    if rule == "lolliL":
        ab = j.lookup(params[0])
        if is_closed(ab.cod) and not is_closed(ab.dom):
            bad(at, d, "closure",
                "implication-left with closed codomain but open domain")
    elif rule == "forallR":
        if is_closed(j.goal) and context_free_type_vars(j.context):
            bad(at, d, "closure",
                "closed forall introduced over a context with free type variables")
    elif rule in ("withL1", "withL2"):
        lazy = (j.lookup(params[0]),)
    elif rule == "withR0":
        lazy = (j.goal.left, j.goal.right)
    elif rule == "withR1":
        guard = d.premises[2]
        if not is_value(guard.conclusion.subject):
            bad(at, d, "withR1", "guard must be a value")
        if not is_eta_expanded(guard):
            bad(at, d, "withR1", "guard subderivation must be eta-expanded")
        lazy = (j.context[0][1], j.goal.left, j.goal.right)
    if lazy and not all(is_closed(a) and is_forall_lazy(a) for a in lazy):
        bad(at, d, "laziness", "%s types must be closed forall-lazy" % rule)


def _split_linear(d, at, bad, eigens):
    """Common context side conditions of cut and lolliL.

    The two premise contexts may not share free type variables.  Variables
    generalized by a forallR instance between here and the root are bound
    occurrences at the scale of the whole derivation and are exempt — without
    the exemption the boolean type would have no cut-free inhabitants.
    """
    left, right = (p.conclusion.context for p in d.premises)
    if context_names(left) & context_names(right):
        bad(at, d, "context", "premise contexts share assumption names")
    shared = (context_free_type_vars(left) & context_free_type_vars(right)) - eigens
    if shared:
        bad(at, d, "linear-constraint",
            "premise contexts share free type variables: %s" % sorted(shared))


# -- derived judgements about whole derivations -------------------------------


def is_cut_free(d: Derivation) -> bool:
    return d._stats[4] == 0


def _nodes(d: Derivation):
    """Every distinct node of d, once each, without recursion."""
    seen, todo = set(), [d]
    while todo:
        d = todo.pop()
        if id(d) not in seen:
            seen.add(id(d))
            todo += d.premises
            yield d


def names_used(d: Derivation) -> set:
    """The names that the nodes of d use: assumptions, the free type
    variables of judgements and the names among parameters."""
    out = set()
    for n in _nodes(d):
        j = n.conclusion
        out |= j.goal._fv
        for x, a in j.context:
            out.add(x)
            out |= a._fv
        out.update(p for p in n.params if isinstance(p, str))
    return out


def dag_size(d: Derivation) -> int:
    """The number of distinct nodes of d: its size with every shared
    subderivation counted once."""
    return sum(1 for _ in _nodes(d))


def is_eta_expanded(d: Derivation) -> bool:
    """Cut-free with every axiom at an atomic type."""
    return all(n.rule != "cut" and (
        n.rule != "ax" or isinstance(n.conclusion.goal, TVar)) for n in _nodes(d))


@dataclass
class ProofMetrics:
    size: int          # number of rule instances
    weight: int        # number of withR1 instances
    height_sum: int    # sum of heights of cut-rooted subderivations
    max_height: int    # height of the whole derivation


def metrics(d: Derivation) -> ProofMetrics:
    size, weight, height, height_sum, _ = d._stats
    return ProofMetrics(size=size, weight=weight, height_sum=height_sum,
                        max_height=height - 1)


# -- construction combinators -------------------------------------------------
#
# One constructor per rule, used by generators, gadget builders, the
# translator, cut elimination and `check`.  Each computes the conclusion from
# its premises and parameters and builds its node with `_derive`, which
# stores the parameters and marks the node derived; it raises ValueError on a
# schema mismatch rather than producing an unsound node.

def _derive(rule: str, conclusion: Judgement, premises: tuple,
            params: tuple) -> Derivation:
    d = object.__new__(Derivation)
    _fill(d, rule, conclusion, premises, params, True)
    return d


def _substituted(names: frozenset, x: str, new: frozenset) -> frozenset:
    """The free names of t[x := s], t's being `names` and s's `new`."""
    return (names - {x}) | new if x in names else names


# Each rule's formula for its subject, over its premises' judgements, whose
# subjects `_force` computes first, and then the parameters it needs.

def _cut_subject(left, right, x):
    return subst(right._subject, x, left._subject)


def _abs_subject(body, x):
    return Abs(x, body._subject)


def _lolliL_subject(left, right, y, x):
    return subst(right._subject, x, App(Var(y), left._subject))


def _pair_subject(left, right):
    return Pair(left._subject, right._subject)


def _copy_subject(b1, b2, guard, x, x1, x2):
    return Copy(guard._subject, Var(x), x1, x2, b1._subject, b2._subject)


def _proj_subject(body, i, y, x):
    return subst(body._subject, x, Proj(i, Var(y)))


def _subject_of(j):
    return j._subject


def d_ax(x: str, a: Type) -> Derivation:
    return _derive("ax", _judgement(((x, a),), a, frozenset((x,)), Var, x),
                   (), (x, a))


def d_cut(left: Derivation, right: Derivation, x: str) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    if rj.lookup(x) != lj.goal:
        raise ValueError("cut type mismatch on %s" % x)
    ctx = lj.context + _ctx_remove(rj.context, x)
    names = _substituted(rj.subject_names, x, lj.subject_names)
    return _derive(
        "cut", _judgement(ctx, rj.goal, names, _cut_subject, lj, rj, x),
        (left, right), (x,),
    )


def d_lolliR(d: Derivation, x: str) -> Derivation:
    j = d.conclusion
    a = j.lookup(x)
    if a is None:
        raise ValueError("no assumption %s to abstract" % x)
    names = j.subject_names - {x} if x in j.subject_names else j.subject_names
    return _derive(
        "lolliR", _judgement(_ctx_remove(j.context, x), Lolli(a, j.goal), names,
                             _abs_subject, j, x),
        (d,), (x,),
    )


def d_lolliL(left: Derivation, right: Derivation, y: str, x: str) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    b = rj.lookup(x)
    if b is None:
        raise ValueError("no assumption %s to consume" % x)
    ab = Lolli(lj.goal, b)
    ctx = lj.context + ((y, ab),) + _ctx_remove(rj.context, x)
    names = _substituted(rj.subject_names, x, lj.subject_names | {y})
    return _derive(
        "lolliL", _judgement(ctx, rj.goal, names, _lolliL_subject, lj, rj, y, x),
        (left, right), (y, x),
    )


def d_withR(left: Derivation, right: Derivation) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    if not _same_context(lj.context, rj.context):
        raise ValueError("withR premises must share one context")
    return _derive(
        "withR", _judgement(lj.context, With(lj.goal, rj.goal),
                            lj.subject_names | rj.subject_names, _pair_subject, lj, rj),
        (left, right), (),
    )


def d_withR0(left: Derivation, right: Derivation) -> Derivation:
    lj, rj = left.conclusion, right.conclusion
    if lj.context or rj.context:
        raise ValueError("withR0 premises must be closed")
    return _derive(
        "withR0", _judgement((), With(lj.goal, rj.goal),
                             lj.subject_names | rj.subject_names, _pair_subject, lj, rj),
        (left, right), (),
    )


def d_withR1(b1: Derivation, b2: Derivation, guard: Derivation, x: str) -> Derivation:
    j1, j2, g = b1.conclusion, b2.conclusion, guard.conclusion
    a = g.goal
    if g.context:
        raise ValueError("withR1 guard premise must be closed")
    if len(j1.context) != 1 or len(j2.context) != 1:
        raise ValueError("withR1 branches must have exactly one assumption")
    (x1, a1), = j1.context
    (x2, a2), = j2.context
    if not a1 == a2 == a:
        raise ValueError("branch assumptions must carry the guard type")
    names = (g.subject_names | {x} | (j1.subject_names - {x1})
             | (j2.subject_names - {x2}))
    goal = With(j1.goal, j2.goal)
    return _derive(
        "withR1", _judgement(((x, a),), goal, names, _copy_subject, j1, j2, g,
                             x, x1, x2),
        (b1, b2, guard), (x,))


def d_withL(i: int, d: Derivation, y: str, x: str, other: Type) -> Derivation:
    j = d.conclusion
    comp = j.lookup(x)
    if comp is None:
        raise ValueError("no assumption %s to consume" % x)
    ab = With(comp, other) if i == 1 else With(other, comp)
    ctx = ((y, ab),) + _ctx_remove(j.context, x)
    names = _substituted(j.subject_names, x, frozenset((y,)))
    return _derive(
        "withL%d" % i, _judgement(ctx, j.goal, names, _proj_subject, j, i, y, x),
        (d,), (y, x, other),
    )


def d_forallR(d: Derivation, gamma: str, alpha: str) -> Derivation:
    """Generalize the premise goal over eigenvariable gamma, printed as
    alpha where that captures nothing."""
    j = d.conclusion
    if gamma in context_free_type_vars(j.context):
        raise ValueError("eigenvariable %s free in context" % gamma)
    goal = Forall(alpha, close_type(j.goal, gamma), True)
    return _derive("forallR", _judgement(j.context, goal, j.subject_names, _subject_of, j),
                   (d,), (gamma, alpha))


def d_forallL(d: Derivation, x: str, quant: Type) -> Derivation:
    j = d.conclusion
    inst = j.lookup(x)
    if inst is None:
        raise ValueError("no assumption %s" % x)
    if not isinstance(quant, Forall) or match_instantiation(quant, inst) is None:
        raise ValueError("assumption type is not an instance of %r" % (quant,))
    ctx = tuple((n, quant if n == x else a) for n, a in j.context)
    return _derive("forallL", _judgement(ctx, j.goal, j.subject_names, _subject_of, j),
                   (d,), (x, quant))


# Each rule's constructor, called as CONSTRUCTORS[rule](*premises, *params).
CONSTRUCTORS = {
    "ax": d_ax, "cut": d_cut, "lolliR": d_lolliR, "lolliL": d_lolliL,
    "withR": d_withR, "withR0": d_withR0, "withR1": d_withR1,
    "withL1": partial(d_withL, 1), "withL2": partial(d_withL, 2),
    "forallR": d_forallR, "forallL": d_forallL,
}


def rebuild(d: Derivation, prems: tuple) -> Derivation:
    """d's rule with d's parameters over replacement premises."""
    return CONSTRUCTORS[d.rule](*prems, *d.params)


def climb(node: Derivation, i: int, child: Derivation) -> Derivation:
    """One frame of a spine rebuild: node's rule with node's parameters
    over node's premises, child replacing premise i (`rebuild`), which
    costs the rule's context and name summary and builds no term.  Only
    node's rule, parameters, conclusion, derived mark and premises are read,
    so node may also be a frame of a zipper walk that holds those, with a
    hole at premise i (`cutelim`)."""
    ps = node.premises
    return rebuild(node, ps[:i] + (child,) + ps[i + 1:])


def replace_at(d: Derivation, path: tuple, fn) -> Derivation:
    """d with its subderivation n at premise path `path` replaced by fn(n),
    and the ancestors of n on the path rebuilt bottom-up by `climb`."""
    spine = []
    for i in path:
        spine.append(d)
        d = d.premises[i]
    new = fn(d)
    for node, i in zip(reversed(spine), reversed(path)):
        new = climb(node, i, new)
    return new


def d_app(fun: Derivation, arg: Derivation) -> Derivation:
    """Natural-deduction application: cut the function into an implication-left
    on a fresh head variable."""
    fj = fun.conclusion
    if not isinstance(fj.goal, Lolli):
        raise ValueError("function premise must have implication type")
    avoid = (context_names(fj.context) | context_names(arg.conclusion.context)
             | fj.subject_names | arg.conclusion.subject_names)
    y = fresh("f", avoid)
    w = fresh("w", avoid)
    use = d_lolliL(arg, d_ax(w, fj.goal.cod), y, w)
    return d_cut(fun, use, y)


def d_inst(d: Derivation, b: Type) -> Derivation:
    """Use a universally quantified conclusion at an instance type."""
    j = d.conclusion
    if not isinstance(j.goal, Forall):
        raise ValueError("conclusion is not quantified")
    x = fresh("u", context_names(j.context) | j.subject_names)
    inst = open_type(j.goal.body, b)
    use = d_forallL(d_ax(x, inst), x, j.goal)
    return d_cut(d, use, x)

"""Reduction on terms.

Three contraction rules:

    beta   (\\x. M) N                          ->  M[N/x]
    proj   pi(<M1, M2>)                        ->  Mi
    copy   copy[V] U as x,y in <P, Q>          ->  <P[U/x], Q[U/y]>   (U a value)

applicable in any context.  The let forms reduce through their macro
expansions, so `beta` covers them; `eta` (\\x. M x -> M, x not free in M)
is kept separate and is only used on the translation side.

A redex is identified by its path (child indices from the root) and kind.
`redex_free` reads a flag that every node stores when it is built (see
`terms`), so a search skips each subtree it already knows holds no redex.
`normalize` runs a strategy (leftmost, rightmost, or seeded random) under
an optional budget.  The leftmost and rightmost strategies are one zipper
walk (Huet, "The Zipper", JFP 1997): the walk keeps the focus and the
frames from the root down to it, so no step starts again from the root.
It moves into the first (or last) child that is not redex-free, contracts
in place, and checks a parent for a redex only where a contraction below
can have made one: right after the contraction, and on climbing back into
it.  A parent is rebuilt once, on climbing out of it, and only if a child
changed.  So a step costs its contraction plus the moves of the walk, not
the depth of its redex.
`find_redexes` lists every redex in leftmost-outermost (pre-)order; it is the
reference the walk is tested against, and the random strategy draws from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from .nameless import children, fold, references, shift
from .terms import (
    Abs, App, Bound, Copy, Pair, Proj, Term, Var,
    alpha_equal, free_vars, is_value, open_term,
)
from .derivation import climb, metrics
from .steps import eliminate_cut_once

@dataclass(frozen=True)
class Redex:
    path: tuple
    kind: str


class BudgetExceeded(Exception):
    pass


def redex_kind_at(t: Term):
    return _kind_over(t, t.children())


def _kind_over(t: Term, kids) -> str | None:
    """The kind of redex that t would be over the children kids, if any."""
    if isinstance(t, App) and isinstance(kids[0], Abs):
        return "beta"
    if isinstance(t, Proj) and isinstance(kids[0], Pair):
        return "proj"
    if isinstance(t, Copy) and is_value(kids[1]):
        return "copy"
    return None


def redex_free(t: Term) -> bool:
    """No redex anywhere in t, i.e. t is normal."""
    return t._redex_free


def find_redexes(t: Term) -> list:
    out = []
    stack = [(t, ())]
    while stack:
        t, path = stack.pop()
        if redex_free(t):
            continue
        cs = t.children()
        k = _kind_over(t, cs)
        if k is not None:
            out.append(Redex(path, k))
        for i in reversed(range(len(cs))):
            stack.append((cs[i], path + (i,)))
    return out


def contract(t: Term) -> Term:
    """Contract the redex at the root of t."""
    if isinstance(t, App) and isinstance(t.fun, Abs):
        return open_term(t.fun.body, t.arg)
    if isinstance(t, Proj) and isinstance(t.body, Pair):
        return t.body.left if t.index == 1 else t.body.right
    if isinstance(t, Copy) and is_value(t.scrutinee):
        return Pair(
            open_term(t.left_branch, t.scrutinee),
            open_term(t.right_branch, t.scrutinee),
        )
    raise ValueError("no redex at the root")


def _replace(t: Term, path: tuple, sub: Term) -> Term:
    spine = []
    for i in path:
        spine.append(t)
        t = t.children()[i]
    for n, i in zip(reversed(spine), reversed(path)):
        kids = list(n.children())
        kids[i] = sub
        sub = n.with_children(kids)
    return sub


def step(t: Term, r: Redex) -> Term:
    target = t[r.path]
    if redex_kind_at(target) != r.kind:
        raise ValueError("no %s redex at %r" % (r.kind, r.path))
    return _replace(t, r.path, contract(target))


@dataclass
class NormalizeResult:
    term: Term
    steps: int
    trace: list = field(default_factory=list)


def normalize(t: Term, strategy: str = "leftmost", budget: int | None = None,
              seed: int | None = None, keep_trace: bool = False) -> NormalizeResult:
    if strategy not in ("leftmost", "rightmost", "random"):
        raise ValueError("unknown strategy %r" % strategy)
    trace: list = []
    if strategy != "random":
        t, steps = _walk(t, strategy == "rightmost", budget,
                         trace if keep_trace else None)
        # a traced run returns its last traced term, not an equal copy
        return NormalizeResult(trace[-1][1] if trace else t, steps, trace)
    rng = random.Random(seed)
    steps = 0
    while not redex_free(t):
        _check_budget(steps, budget)
        r = rng.choice(find_redexes(t))
        t = step(t, r)
        steps += 1
        if keep_trace:
            trace.append((r, t))
    return NormalizeResult(t, steps, trace)


def _check_budget(steps: int, budget: int | None) -> None:
    if budget is not None and steps >= budget:
        raise BudgetExceeded("no normal form within %d steps" % budget)


def _walk(t: Term, rightmost: bool, budget: int | None, trace: list | None):
    """The normal form of t under the leftmost (or rightmost) strategy, and
    its step count: each step contracts the first (or last) of find_redexes.

    The walk holds a focus and a stack of frames [node, kids, i, changed]
    from the root down; the focus stands for kids[i] of the last frame's
    node.  In pre-order a node precedes its subtrees, so the first redex is
    the first node on the way down that is one, and the last is where the
    way into the last child that is not redex-free ends.  The subtrees the
    walk has finished hold no redex.  A contraction can make an ancestor a
    redex only through the child on the path: the parent, as an App over an
    Abs, a Proj over a Pair or a Copy over a value, or a Copy further up
    over a scrutinee that is now a value, and so holds no redex.  So the
    leftmost walk checks the parent right after a contraction and each node
    it climbs back into; the rightmost walk contracts a node only once its
    children are redex-free, so it meets each such redex on its way up."""
    frames: list = []
    focus, steps = t, 0
    while True:
        if not focus._redex_free:
            kind = None if rightmost else redex_kind_at(focus)
            if kind is None:
                kids = focus.children()
                i = _next_unfinished(kids, len(kids) if rightmost else -1, rightmost)
                if i is not None:
                    frames.append([focus, list(kids), i, False])
                    focus = kids[i]
                    continue
                kind = redex_kind_at(focus)
            _check_budget(steps, budget)
            focus = contract(focus)
            steps += 1
            if trace is not None:
                trace.append((Redex(tuple(f[2] for f in frames), kind),
                              _plugged(frames, focus)))
            if rightmost or not frames:
                continue
        elif not frames:
            return focus, steps
        frame = frames[-1]
        node, kids, i, _ = frame
        if focus is not kids[i]:
            kids[i] = focus
            frame[3] = True
        if rightmost or _kind_over(node, kids) is None:
            if not focus._redex_free:
                continue  # leftmost, after a contraction: look down it next
            j = _next_unfinished(kids, i, rightmost)
            if j is not None:
                frame[2] = j
                focus = kids[j]
                continue
        frames.pop()
        focus = node.with_children(kids) if frame[3] else node


def _next_unfinished(kids, i: int, rightmost: bool):
    """The index of the first child after kids[i] in the walk's order (the
    last before it, if rightmost) that is not redex-free, or None."""
    for j in range(i - 1, -1, -1) if rightmost else range(i + 1, len(kids)):
        if not kids[j]._redex_free:
            return j
    return None


def _plugged(frames: list, focus: Term) -> Term:
    """The whole term: the focus put back into its frames."""
    for node, kids, i, _ in reversed(frames):
        kids = kids.copy()
        kids[i] = focus
        focus = node.with_children(kids)
    return focus


# -- eta ----------------------------------------------------------------------

def _eta_here(t: Term, kids: list) -> Term:
    """t over its eta-normal kids, with \\. f 0 contracted to f when f does
    not refer to the binder."""
    if any(k is not c for k, c in zip(kids, t.children())):
        t = t.with_children(kids)
    if (isinstance(t, Abs) and isinstance(t.body, App)
            and t.body.arg == Bound(0) and not references(t.body.fun, 0)):
        return shift(t.body.fun, -1)
    return t


def eta_normalize(t: Term) -> Term:
    """The eta normal form of t, in one bottom-up fold: each node is rebuilt
    over the normal forms of its kids and contracted if it is a redex.
    Shifting a normal f keeps it normal, so no node is looked at twice."""
    return fold(t, children, _eta_here, {})


def beta_eta_normal_form(t: Term) -> Term:
    return eta_normalize(normalize(t).term)


def beta_eta_equal(m: Term, n: Term) -> bool:
    return alpha_equal(beta_eta_normal_form(m), beta_eta_normal_form(n))


# -- subject reduction --------------------------------------------------------

def push_reduction(d, r: Redex):
    """Transport one subject-reduction step through a derivation: given a
    derivation of ctx |- M : A and a redex of M, produce a derivation of
    ctx |- step(M, r) : A.

    The redex either sits inside a single premise subject (recurse) or is an
    interface redex of some cut: its pattern only exists because the cut
    substituted the left subject into the right one.  In the latter case the
    responsible cut is commuted upward until both premises are principal for
    the cut type, then fired; commuting and quantifier steps preserve the
    subject, and the principal step performs exactly the requested
    contraction.

    The search is one zipper walk: it keeps the nodes from the root down to
    the cut it steps, with the premise taken at each.  A step that leaves
    that cut's subject `==` leaves the root's too, since every rule's
    subject is a function of its premises' that respects `==`, so the
    search from the root would come down the same way: it goes on from the
    cut instead.  The nodes above are rebuilt (`derivation.climb`) once, when
    a step changes the subject.
    """
    before = d.conclusion.subject
    target = step(before, r)
    fuel = 4 * (metrics(d).size ** 2) + 100
    spine, node, path = [], d, r.path  # (node, premise taken) from the root
    while fuel > 0:
        fuel -= 1
        loc = _locate(node, path)
        while loc != "interface":
            i, path = loc
            spine.append((node, i))
            node = node.premises[i]
            loc = _locate(node, path)
        new = eliminate_cut_once(node)
        if new.conclusion.subject == node.conclusion.subject:
            node = new
            continue
        for above, i in reversed(spine):
            new = climb(above, i, new)
        if new.conclusion.subject != before:
            if new.conclusion.subject != target:
                raise AssertionError("push_reduction contracted the wrong redex")
            return new
        spine, node, path = [], new, r.path
    raise AssertionError("push_reduction did not converge")


def _var_path(t: Term, x: str):
    """Path of the (unique) free occurrence of x in t."""
    path = []
    while not isinstance(t, Var):
        i = next(i for i, c in enumerate(t.children()) if x in free_vars(c))
        path.append(i)
        t = t.children()[i]
    return tuple(path)


def _locate(d, path: tuple):
    """Map a subject redex to a premise (index, premise-local path), or report
    it as an interface redex of this node's cut."""
    rule = d.rule
    j = d.conclusion
    if rule in ("forallR", "forallL"):
        return (0, path)
    if rule == "lolliR":
        assert path[:1] == (0,), "redex cannot be the abstraction itself"
        return (0, path[1:])
    if rule in ("withR", "withR0"):
        return (path[0], path[1:])
    if rule == "withR1":
        if path[:1] == (2,):
            return (0, path[1:])
        if path[:1] == (3,):
            return (1, path[1:])
        raise AssertionError("redex in a guard or scrutinee of withR1")
    if rule in ("withL1", "withL2"):
        return (0, path)
    if rule == "lolliL":
        rj = d.premises[1].conclusion
        _, x = d.params
        px = _var_path(rj.subject, x)
        if path[:len(px) + 1] == px + (1,):
            return (0, path[len(px) + 1:])
        return (1, path)
    if rule == "cut":
        rj = d.premises[1].conclusion
        x, = d.params
        px = _var_path(rj.subject, x)
        if path[:len(px)] == px:
            return (0, path[len(px):])
        kind = redex_kind_at(j.subject[path])
        if redex_kind_at(rj.subject[path]) == kind:
            return (1, path)
        return "interface"
    raise AssertionError("no redex can appear under rule %s" % rule)

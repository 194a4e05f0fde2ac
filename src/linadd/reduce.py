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
an optional budget.  The leftmost and rightmost strategies descend from the
root into the first (or last) child that is not redex-free and stop at the
redex, so a step costs
the depth of its redex plus the nodes that the contraction and the
replacement on the path build, not a scan of the whole term.
`find_redexes` lists every redex in leftmost-outermost (pre-)order; it is the
reference those descents are tested against, and the random strategy draws
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from .nameless import children, fold, references, shift
from .terms import (
    Abs, App, Bound, Copy, Pair, Proj, Term, Var,
    alpha_equal, free_vars, is_value, open_term,
)
from .derivation import metrics, replace_at
from .steps import eliminate_cut_once

@dataclass(frozen=True)
class Redex:
    path: tuple
    kind: str


class BudgetExceeded(Exception):
    pass


def redex_kind_at(t: Term):
    if isinstance(t, App) and isinstance(t.fun, Abs):
        return "beta"
    if isinstance(t, Proj) and isinstance(t.body, Pair):
        return "proj"
    if isinstance(t, Copy) and is_value(t.scrutinee):
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
        k = redex_kind_at(t)
        if k is not None:
            out.append(Redex(path, k))
        cs = t.children()
        for i in reversed(range(len(cs))):
            stack.append((cs[i], path + (i,)))
    return out


def _descend(t: Term, rightmost: bool) -> Redex:
    """The first (or last) of find_redexes(t), for t not redex-free.  In
    pre-order a node precedes its subtrees, so the first redex is the first
    node on the way down that is one, and the last is where the way ends."""
    path = []
    while rightmost or redex_kind_at(t) is None:
        cs = t.children()
        order = range(len(cs) - 1, -1, -1) if rightmost else range(len(cs))
        i = next((i for i in order if not redex_free(cs[i])), None)
        if i is None:
            break
        path.append(i)
        t = cs[i]
    return Redex(tuple(path), redex_kind_at(t))


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
    rng = random.Random(seed) if strategy == "random" else None
    steps = 0
    trace: list = []
    while True:
        if redex_free(t):
            return NormalizeResult(t, steps, trace)
        if budget is not None and steps >= budget:
            raise BudgetExceeded("no normal form within %d steps" % budget)
        if strategy in ("leftmost", "rightmost"):
            r = _descend(t, strategy == "rightmost")
        else:
            r = rng.choice(find_redexes(t))
        t = step(t, r)
        steps += 1
        if keep_trace:
            trace.append((r, t))


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
    """
    before = d.conclusion.subject
    target = step(before, r)
    fuel = 4 * (metrics(d).size ** 2) + 100
    cur = d
    while fuel > 0:
        fuel -= 1
        cur = _advance(cur, r.path)
        if cur.conclusion.subject != before:
            if cur.conclusion.subject != target:
                raise AssertionError("push_reduction contracted the wrong redex")
            return cur
    raise AssertionError("push_reduction did not converge")


def _advance(d, path: tuple):
    """Move the derivation one localized elimination step toward contracting
    the subject redex at `path`: find the premise path to the node where it
    is an interface redex, then step there and rebuild the spine above."""
    at = []
    node, loc = d, _locate(d, path)
    while loc != "interface":
        i, path = loc
        at.append(i)
        node = node.premises[i]
        loc = _locate(node, path)
    return replace_at(d, tuple(at), eliminate_cut_once)


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

"""Cut elimination for checked derivations of forall-lazy sequents.

Strategy (round based), over the cut classes of `steps`:

  round = { 1 } step every `commuting` cut, deepest first (leftmost on
            ties), picking again after each movement (commuting steps
            preserve the subject and keep the potential size + 2*weight);
          { 2 } fire the first `symmetric` cut in pre-order if any
            exists, otherwise the deepest `ready` cut (the first in
            pre-order on ties; a firing lowers the potential).

Every step goes through the one table `steps.STEP`.  Of the seven classes,
`deadlock` and `copy_first` cuts have no step, and `safe` and `blocked`
cuts are left for the steps of the other classes to resolve; on derivations
with a forall-lazy conclusion the strategy always finds a ready cut when only
those remain, so elimination completes with a cut-free derivation whose
subject is the normal form of the original subject.

The loop is one zipper walk (Huet, "The Zipper", JFP 1997), as
normalization is in `reduce`: it holds the focus cut and the frames from
the root down to it, applies the step there, and moves to the next cut the
strategy picks, climbing only to where that cut's path leaves the focus's
and going down from there.  The cuts off the walk's way are never
rescanned: the walk summarizes each node that holds a cut once, by the
cut below it that the strategy would pick first (`_Walk.summary`; the class
of each cut node is kept on it, `steps.cut_class`), each frame keeps that
for the cuts outside its premise on the way, and the pick is the first of
the last frame's and the focus's.  After a step only what it changed is
looked at: the nodes it built are summarized, the parent frame's cut is
reclassified from its premises (`steps.classify_over`), and so is each
frame's whose class turns on whether its left premise holds a cut, when
the step made that premise's cut count cross zero.  The root's size, weight and cut count follow from
the step's difference, and the summed cut heights from the heights the
frames keep, updated upwards while they change.

A frame is rebuilt once, when the walk climbs out of it, through its
rule's constructor (`derivation.climb`, which `replace_at` also uses).  A
constructor computes the context, the goal and the subject's free names
and builds no term: the subject is a view that is computed when read (see
`derivation`), and no step reads one, except a ready cut's test of its
left subject for a value.

So a step costs its rule: the nodes it builds, each with its context and
name summary, and the moves of the walk, which climbs no more frames than
it went down.  With `keep_derivations` each snapshot costs a climb of the
whole spine besides, and printing it reads the subjects of the frames
rebuilt for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import ref

from .derivation import Derivation, check_ok, climb, is_cut_free, metrics, replace_at
from .typesys import judgement_is_forall_lazy
from .steps import (
    COMMUTING, READY, STEP, SYMMETRIC, CutElimError, classify_over, cut_class,
)


@dataclass
class ElimStep:
    round: int
    path: tuple
    kind: str            # commuting | symmetric | ready
    size: int            # |D| after the step
    weight: int          # withR1 count after the step
    potential: int       # size + 2*weight after the step
    height_sum: int      # summed heights of cut subderivations after the step


@dataclass
class ElimTrace:
    steps: list = field(default_factory=list)
    rounds: int = 0
    # With keep_derivations=True, snapshots[0] is the input derivation and
    # snapshots[i + 1] the derivation after steps[i].
    snapshots: list = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return len(self.steps)

    def counts(self) -> dict:
        out = {"commuting": 0, "symmetric": 0, "ready": 0}
        for s in self.steps:
            out[s.kind] += 1
        return out


def elim_step(d: Derivation, path: tuple) -> Derivation:
    """Step the cut at `path` through `steps.STEP`.  Only symmetric,
    commuting and ready cuts may be stepped."""
    def step(node):
        c = cut_class(node) if node.rule == "cut" else "no"
        if c not in (SYMMETRIC, COMMUTING, READY):
            raise CutElimError("%s cut at %r: only symmetric, commuting and "
                               "ready cuts are stepped" % (c, path))
        return STEP[c](node)
    return replace_at(d, path, step)


def eliminate(d: Derivation, budget: int | None = None,
              recheck: bool = True, keep_derivations: bool = False) -> tuple:
    """Run the round strategy to a cut-free derivation.  Returns
    (derivation, ElimTrace).  Raises CutElimError when the input is not
    forall-lazy or no step applies, and CheckError (with recheck) when the
    input or the result fails `check`."""
    j = d.conclusion
    if not judgement_is_forall_lazy(j.context_types(), j.goal):
        raise CutElimError("conclusion sequent is not forall-lazy")
    if recheck:
        check_ok(d)
    if budget is None:
        n = metrics(d).size
        budget = 40 * n ** 3 + 1000

    trace = ElimTrace()
    if keep_derivations:
        trace.snapshots.append(d)
    walk = _Walk(d)
    while walk.cuts:
        path, kind = walk.pick()
        if len(trace.steps) >= budget:
            raise CutElimError("elimination budget exhausted")
        walk.move_to(path)
        walk.step(STEP[kind])
        trace.steps.append(ElimStep(
            round=trace.rounds + 1, path=path, kind=kind,
            size=walk.size, weight=walk.weight,
            potential=walk.size + 2 * walk.weight, height_sum=walk.height_sum,
        ))
        if keep_derivations:
            trace.snapshots.append(walk.plugged())
        trace.rounds += kind != COMMUTING  # a firing ends its round

    cur = trace.snapshots[-1] if keep_derivations else walk.plugged()
    if recheck:
        check_ok(cur)
    return cur, trace


# -- the walk -----------------------------------------------------------------
#
# The cut the strategy picks is the least of all cuts under one key: the
# rank of its class (commuting before symmetric before ready), then minus
# its depth for commuting and ready cuts (0 for symmetric ones), then its
# path, which orders by pre-order.  The walk keeps only such least keys: the
# summary of a subderivation is the key of its least cut, or None.

_RANK = {COMMUTING: 0, SYMMETRIC: 1, READY: 2}
_KIND = (COMMUTING, SYMMETRIC, READY)


def _key(kind, path: tuple):
    """The key of a cut of class `kind` at `path`; None for a cut that the
    strategy does not step, and for no cut."""
    r = _RANK.get(kind)
    return None if r is None else (r, 0 if r == 1 else -len(path), path)


def _under(key, prefix: tuple):
    """The key of a subderivation's cut, its path put under `prefix`."""
    if key is None:
        return None
    r, depth, path = key
    return r, depth if r == 1 else depth - len(prefix), prefix + path


def _least(a, b):
    return a if b is None or (a is not None and a <= b) else b


class _Frame:
    """A node on the way from the root to the focus, with a hole at its
    premise i, where the focus, or the next frame, stands: its rule,
    parameters, conclusion and derived mark, and its premises with None at
    i.  So a frame keeps no old version of what is below it, and it climbs
    as the node would (`derivation.climb`).  Only its subject may be stale
    (every step keeps its node's context and goal); the frame keeps the
    rest that changes: the height `h` of the subderivation it roots, the
    class `own` of its cut, and `ctx`, the least key of the cuts outside
    its premise i (`sib`, that of its other premises).  `left` is set on a
    cut whose class turns on whether its premise i, the left one, holds a
    cut: that premise's cut count less the walk's total when the frame was
    made, so that its count now is `left` plus the walk's total (every
    step since is below it)."""

    __slots__ = ("rule", "params", "conclusion", "_derived", "premises", "i",
                 "path", "h_other", "h", "own", "sib", "ctx", "left")


class _Walk:
    """One zipper walk (Huet, "The Zipper", JFP 1997) over a derivation:
    the focus, at path `at`, and the frames from the root down to it,
    with the root's size, weight, summed cut heights and cut count."""

    def __init__(self, d: Derivation):
        self.focus, self.at, self.frames = d, (), []
        self.guarded = []  # the frames with `left` set, root first
        self.size, self.weight, _, self.height_sum, self.cuts = d._stats
        self.memo = {}  # id(node) -> (weak reference to it, its summary)

    def summary(self, d: Derivation):
        """The summary of d: the key of its least cut, by its path from d.
        It depends only on the node and the nodes below it, which are
        immutable, so the walk computes it once per node object: a
        post-order walk with its own stack, as `nameless.fold` makes, that
        stops at the nodes it has summarized before.  The weak reference
        kept beside a summary tells whether an id is still that node's."""
        memo, s = self.memo, None
        todo = [] if is_cut_free(d) else [d]
        while todo:
            n = todo[-1]
            got = memo.get(id(n))
            if got is not None and got[0]() is n:
                s = got[1]
                todo.pop()
                continue
            ps, below = n.premises, []
            for p in ps:
                if not is_cut_free(p):
                    got = memo.get(id(p))
                    if got is None or got[0]() is not p:
                        below.append(p)
            if below:
                todo += below
                continue
            s = _key(cut_class(n), ()) if n.rule == "cut" else None
            for i, p in enumerate(ps):
                if not is_cut_free(p):
                    s = _least(s, _under(memo[id(p)][1], (i,)))
            memo[id(n)] = ref(n), s
            todo.pop()
        return s

    def pick(self) -> tuple:
        """(path, class) of the next cut: the deepest commuting cut, else
        the first symmetric one, else the deepest ready one."""
        s = _under(self.summary(self.focus), self.at)
        if self.frames:
            s = _least(self.frames[-1].ctx, s)
        if s is None:
            raise CutElimError("no fireable cut remains (deadlock or copy-first only)")
        return s[2], _KIND[s[0]]

    def move_to(self, path: tuple) -> None:
        while path[:len(self.at)] != self.at:
            self._up()
        for i in path[len(self.at):]:
            self._down(i)

    def _up(self) -> None:
        f = self.frames.pop()
        self.focus = climb(f, f.i, self.focus)
        if f.left is not None:
            self.guarded.pop()
        self.at = f.path

    def _down(self, i: int) -> None:
        d, at = self.focus, self.at
        ps = d.premises
        f = _Frame()
        f.rule, f.params, f.conclusion, f._derived = d.rule, d.params, d.conclusion, d._derived
        f.premises = ps[:i] + (None,) + ps[i + 1:]
        f.i, f.path, f.h = i, at, d._stats[2]
        f.h_other, f.sib = 0, None
        for k, p in enumerate(ps):
            if k != i:
                f.h_other = max(f.h_other, p._stats[2])
                if not is_cut_free(p):
                    f.sib = _least(f.sib, _under(self.summary(p), at + (k,)))
        f.own = f.left = None
        if d.rule == "cut":
            f.own = cut_class(d)
            if i == 0 and ps[1].rule == "withR1" and not ps[0].conclusion.context:
                f.left = ps[0]._stats[4] - self.cuts
                self.guarded.append(f)
        self.frames.append(f)
        self._refresh(len(self.frames) - 1)
        self.focus, self.at = ps[i], at + (i,)

    def _refresh(self, k: int) -> None:
        """Recompute `ctx` from frame k down to the focus."""
        frames = self.frames
        ctx = frames[k - 1].ctx if k else None
        for f in frames[k:]:
            ctx = f.ctx = _least(ctx, _least(f.sib, _key(f.own, f.path)))

    def step(self, fn) -> None:
        """Replace the focus by fn(focus), and bring the root's stats and
        the frames up to date: the heights along the frames while they
        change, and the class of each frame's cut that can change.  That
        is the parent's, whose premise on the spine is the new focus, and
        a guarded one's whose left premise's cut count crossed zero."""
        old, frames = self.focus, self.frames
        new = self.focus = fn(old)
        m = len(frames)
        s0, w0, _, hs0, c0 = old._stats
        s1, w1, h, hs1, c1 = new._stats
        cuts = self.cuts
        self.size += s1 - s0
        self.weight += w1 - w0
        self.cuts += c1 - c0
        hs = self.height_sum + hs1 - hs0
        for f in reversed(frames):
            h = 1 + max(h, f.h_other)
            if h == f.h:
                break
            if f.own is not None:
                hs += h - f.h
            f.h = h
        self.height_sum = hs
        if not frames:
            return
        low = m
        top = frames[-1]
        if top.own is not None:
            l, r = top.premises
            l, r = (new, r) if top.i == 0 else (l, new)
            c = classify_over(l, r, top.params[0], is_cut_free(l))
            if c != top.own:
                top.own, low = c, m - 1
        if c1 != c0:
            for f in self.guarded:
                if f is not top and (f.left + cuts == 0) != (f.left + self.cuts == 0):
                    k = len(f.path)
                    f.own = classify_over(frames[k + 1], f.premises[1], f.params[0],
                                          f.left + self.cuts == 0)
                    low = min(low, k)
        if low < m:
            self._refresh(low)

    def plugged(self) -> Derivation:
        """The whole derivation: the focus climbed out of every frame as
        the walk would climb, the walk left as it is."""
        d = self.focus
        for f in reversed(self.frames):
            d = climb(f, f.i, d)
        return d

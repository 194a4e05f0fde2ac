"""Cut elimination for checked derivations of forall-lazy sequents.

Strategy (round based):

  round = { 1 } eliminate every commuting cut, deepest first, rescanning
            after each movement (commuting steps preserve the subject and
            keep size + 2*weight constant while the summed cut heights drop);
          { 2 } fire one symmetric cut if any exists, otherwise one ready
            critical cut (both strictly decrease size + 2*weight).

Deadlocked critical cuts and copy-first cuts are never fired; on derivations
with a forall-lazy conclusion the strategy always finds a ready cut when only
critical ones remain, so elimination completes with a cut-free derivation
whose subject is the normal form of the original subject.

A step costs its local work, not a rescan of the whole derivation.  Each
step scans for cuts once: the scan after which {1} finds no commuting cut
is the one {2} chooses from.  The scan descends only into subderivations
that hold a cut, and each cut node's class is computed once per node object
and cached on it (`steps.classify_cuts`), so a scan classifies only the cuts
the last step built.  `derivation.replace_at` rebuilds the spine above a
step in a loop; when the step kept its judgement, as a commuting step does,
every derived ancestor keeps its own conclusion over the new premise and no
constructor runs for it.  That is sound by the argument of
`rebuild_error` and `frontend.derivations_equal`: the constructors are pure
and respect `==`, so over premises with equal conclusions they build equal
conclusions.  A kept conclusion may differ from a rebuilt one only in the
print hints of its binders, which `==` ignores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .derivation import Derivation, check_ok, is_cut_free, metrics, replace_at
from .typesys import judgement_is_forall_lazy
from . import steps as st
from .steps import (
    BLOCKED, COMMUTING, COPY_FIRST, CRITICAL, READY, SYMMETRIC,
    ElimStepError, classify_cut, classify_cuts, eliminate_cut_once,
)


class CutElimError(Exception):
    pass


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


def _node_at(d: Derivation, path: tuple) -> Derivation:
    for i in path:
        d = d.premises[i]
    return d


def _step_at(d: Derivation, path: tuple, fn) -> Derivation:
    """replace_at, with a failed step reported as a CutElimError."""
    try:
        return replace_at(d, path, fn)
    except ElimStepError as e:
        raise CutElimError(str(e)) from e


def elim_step(d: Derivation, path: tuple) -> Derivation:
    """Apply the matching elimination rule at the cut at `path`.  Only
    symmetric, commuting, and ready critical cuts may be fired."""
    node = _node_at(d, path)
    if node.rule != "cut":
        raise CutElimError("no cut at %r" % (path,))
    info = classify_cut(node)
    if info.kind == COPY_FIRST:
        raise CutElimError("copy-first cut has no elimination rule")
    if info.kind == BLOCKED:
        raise CutElimError("cut at %r is blocked on an inner cut" % (path,))
    if info.kind == CRITICAL and info.status != READY:
        raise CutElimError("critical cut at %r is %s, not ready" % (path, info.status))
    return _step_at(d, path, lambda n: eliminate_cut_once(n, allow_unready=False))


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
    spent = 0
    if keep_derivations:
        trace.snapshots.append(d)

    def record(path, kind):
        m = metrics(cur)
        trace.steps.append(ElimStep(
            round=trace.rounds, path=path, kind=kind,
            size=m.size, weight=m.weight,
            potential=m.size + 2 * m.weight, height_sum=m.height_sum,
        ))
        if keep_derivations:
            trace.snapshots.append(cur)

    cur = d
    while not is_cut_free(cur):
        trace.rounds += 1
        # {1} all commuting cuts, deepest first
        while True:
            cuts = classify_cuts(cur)
            commuting = [p for p, i in cuts if i.kind == COMMUTING]
            if not commuting:
                break
            path = max(commuting, key=lambda p: (len(p), [-x for x in p]))
            spent += 1
            if spent > budget:
                raise CutElimError("elimination budget exhausted")
            cur = _step_at(cur, path, st.commute_once)
            record(path, "commuting")
        # {2} one principal firing, chosen from the scan that ended {1}
        if not cuts:
            break
        sym = [p for p, i in cuts if i.kind == SYMMETRIC]
        if sym:
            path = sym[0]
            kind = "symmetric"
            fn = st.fire_symmetric
        else:
            ready = [p for p, i in cuts
                     if i.kind == CRITICAL and i.status == READY]
            if not ready:
                raise CutElimError(
                    "no fireable cut remains (deadlock or copy-first only)")
            path = max(ready, key=len)
            kind = "ready"
            fn = st.fire_critical
        spent += 1
        if spent > budget:
            raise CutElimError("elimination budget exhausted")
        cur = _step_at(cur, path, fn)
        record(path, kind)

    if recheck:
        check_ok(cur)
    return cur, trace

"""Cut elimination for checked derivations of forall-lazy sequents.

Strategy (round based), over the cut classes of `steps`:

  round = { 1 } step every `commuting` cut, deepest first, rescanning
            after each movement (commuting steps preserve the subject and
            keep the potential size + 2*weight);
          { 2 } fire one `symmetric` cut if any exists, otherwise one
            `ready` cut (a firing lowers the potential).

Every step goes through the one table `steps.STEP`.  Of the seven classes,
`deadlock` and `copy_first` cuts have no step, and `safe` and `blocked`
cuts are left for the steps of the other classes to resolve; on derivations
with a forall-lazy conclusion the strategy always finds a ready cut when only
those remain, so elimination completes with a cut-free derivation whose
subject is the normal form of the original subject.

A step costs its local work, not a rescan of the whole derivation.  Each
step scans for cuts once: the scan after which {1} finds no commuting cut
is the one {2} chooses from.  The scan descends only into subderivations
that hold a cut, which the cut count each node stores when it is built
tells without a walk, and each cut node's class is computed once per node
object and kept on it (`steps.cut_class`), so a scan classifies only the
cuts the last step built.  `derivation.replace_at` rebuilds the spine above a
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

from .derivation import Derivation, check_ok, metrics, replace_at
from .typesys import judgement_is_forall_lazy
from .steps import (
    COMMUTING, READY, STEP, SYMMETRIC, CutElimError, classify_cuts, cut_class,
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
    cur = d
    cuts = classify_cuts(cur)
    while cuts:
        commuting = [p for p, c in cuts if c == COMMUTING]
        sym = [p for p, c in cuts if c == SYMMETRIC]
        ready = [p for p, c in cuts if c == READY]
        if commuting:  # {1} deepest first
            kind = COMMUTING
            path = max(commuting, key=lambda p: (len(p), [-x for x in p]))
        elif sym:  # {2} from the scan that ended {1}
            path, kind = sym[0], SYMMETRIC
        elif ready:
            path, kind = max(ready, key=len), READY
        else:
            raise CutElimError(
                "no fireable cut remains (deadlock or copy-first only)")
        if len(trace.steps) >= budget:
            raise CutElimError("elimination budget exhausted")
        cur = replace_at(cur, path, STEP[kind])
        m = metrics(cur)
        trace.steps.append(ElimStep(
            round=trace.rounds + 1, path=path, kind=kind,
            size=m.size, weight=m.weight,
            potential=m.size + 2 * m.weight, height_sum=m.height_sum,
        ))
        if keep_derivations:
            trace.snapshots.append(cur)
        trace.rounds += kind != COMMUTING  # a firing ends its round
        cuts = classify_cuts(cur)

    if recheck:
        check_ok(cur)
    return cur, trace

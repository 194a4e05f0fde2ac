"""The verification suites: the one definition of acceptance criteria 1-4,
5 (the cubic fit), 8 and 9.

Each suite takes the corpus (`linadd.corpus.build_corpus`) and a
`GadgetLibrary` and returns a `SuiteResult`: the measurements it took and the
failures it found, one message each.  `linadd suite NAME` prints the result as
a report; `tests/test_acceptance.py` asserts that the failure list is empty
and puts thresholds and time bounds on the measurements.

    blowup             criterion 1: the add/ladd size and step laws
    subject-reduction  criterion 2: every reduct rechecks and shrinks
    confluence         criteria 3 and 4: at most |M| steps, one normal form
    cutelim-cubic      criterion 5: elimination steps within a fitted cubic
    duplicator         criterion 8: the eraser and duplicator contracts
    soundness          criterion 9: translation sound at every elimination step

Only the suites named in `CORPUS_SUITES` read the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import cubic_family, lam_entries, soundness_entries
from .cutelim import eliminate
from .derivation import LAM, check, d_app, is_cut_free, metrics
from .families import gen_add, gen_applied, gen_ladd, pair_tower
from .inhabit import enumerate_inhabitants, maximal_value
from .reduce import beta_eta_equal, find_redexes, normalize, push_reduction
from .terms import Abs, alpha_equal, identity_term, term_size
from .translate import (
    check_soundness, d_tensor_pair, identity_derivation, translate_derivation,
    translate_type,
)
from .typesys import With, bool_type, tensor_type, type_size, unit_type


@dataclass
class SuiteResult:
    measurements: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, message: str):
        self.failures.append(message)


def blowup(corpus, gadgets) -> SuiteResult:
    """add grows results exponentially in n + 1 steps; ladd stays linear and
    shrinks at every one of its 2n + 1 steps.  add runs over 1 applied to I
    (the table's row) and over B applied to true; ladd over 1 applied to I."""
    res = SuiteResult()
    one = unit_type()
    values = (("1", one, identity_term(), identity_derivation()),
              ("B", bool_type(), *maximal_value(bool_type())))
    table = []
    for n in range(1, 9):
        row = {"n": n}
        for base_name, base, v, vd in values:
            at, ad = gen_add(n, base)
            ra = normalize(gen_applied(ad, vd).conclusion.subject)
            if base is one:
                row.update(add_size=term_size(at), add_steps=ra.steps,
                           add_nf_size=term_size(ra.term))
            at_n = "n=%d over %s" % (n, base_name)
            if not isinstance(at, Abs) or term_size(at.body) != 5 * n + 1:
                res.fail("add size law fails at " + at_n)
            if ra.steps != n + 1:
                res.fail("add step count law fails at " + at_n)
            if not alpha_equal(ra.term, pair_tower(v, n)):
                res.fail("add normal form is not the pair tower at " + at_n)
            # |M_[n]| = 2 |M_[n-1]| + 1
            if term_size(ra.term) != 2 * term_size(pair_tower(v, n - 1)) + 1:
                res.fail("add result size recurrence fails at " + at_n)
        lt, ld = gen_ladd(n, one)
        ladd_app = gen_applied(ld, identity_derivation())
        rl = normalize(ladd_app.conclusion.subject, keep_trace=True)
        row.update(ladd_size=term_size(lt), ladd_steps=rl.steps,
                   ladd_nf_size=term_size(rl.term))
        table.append(row)
        if rl.steps != 2 * n + 1:
            res.fail("ladd step count law fails at n=%d" % n)
        sizes = [term_size(ladd_app.conclusion.subject)]
        sizes += [term_size(t) for _, t in rl.trace]
        if any(b >= a for a, b in zip(sizes, sizes[1:])):
            res.fail("ladd size not strictly decreasing at n=%d" % n)
        if not alpha_equal(rl.term, pair_tower(identity_term(), n)):
            res.fail("ladd normal form is not the pair tower at n=%d" % n)
    res.measurements["table"] = table
    return res


def subject_reduction(corpus, gadgets) -> SuiteResult:
    """Every one-step reduct of every LAM corpus subject has a rebuilt,
    rechecked derivation of the same judgement, and a smaller subject."""
    res = SuiteResult()
    entries = lam_entries(corpus)
    checked = 0
    for e in entries:
        d = e.derivation
        for r in find_redexes(d.conclusion.subject):
            d2 = push_reduction(d, r)
            bad = check(d2, LAM)
            if bad:
                res.fail("%s: reduct fails to check: %s" % (e.name, bad[0]))
                break
            if term_size(d2.conclusion.subject) >= term_size(d.conclusion.subject):
                res.fail("%s: a reduct does not shrink" % e.name)
                break
            checked += 1
    res.measurements.update(entries=len(entries), reducts_checked=checked)
    return res


def confluence(corpus, gadgets) -> SuiteResult:
    """Leftmost, rightmost and three seeded random strategies each take at
    most |M| steps and reach the same normal form on every corpus subject."""
    res = SuiteResult()
    runs = [("leftmost", None), ("rightmost", None)]
    runs += [("random", seed) for seed in range(3)]
    for e in corpus:
        t = e.derivation.conclusion.subject
        bound = term_size(t)
        normal_forms = []
        for strategy, seed in runs:
            r = normalize(t, strategy=strategy, seed=seed)
            if r.steps > bound:
                res.fail("%s: %s takes %d steps, more than |M| = %d"
                         % (e.name, strategy, r.steps, bound))
            normal_forms.append(r.term)
        if any(not alpha_equal(normal_forms[0], o) for o in normal_forms[1:]):
            res.fail("%s: strategies disagree on the normal form" % e.name)
    res.measurements.update(entries=len(corpus), strategies=len(runs))
    return res


def cutelim_cubic(corpus, gadgets) -> SuiteResult:
    """Elimination steps stay within a cubic bound fitted on the three
    smallest family members, and every result is cut-free."""
    res = SuiteResult()
    rows = []
    for n, d in cubic_family(8):
        out, trace = eliminate(d)
        if not is_cut_free(out):
            res.fail("n=%d: result retains a cut" % n)
        rows.append({"n": n, "size": metrics(d).size,
                     "steps": trace.total_steps})
    fit = max(r["steps"] / r["size"] ** 3 for r in rows[:3])
    for r in rows[3:]:
        if r["steps"] > fit * r["size"] ** 3:
            res.fail("cubic bound violated at n=%d" % r["n"])
    res.measurements.update(constant=fit, table=rows)
    return res


def duplicator(corpus, gadgets) -> SuiteResult:
    """Erasers reduce to I on, and duplicators duplicate, every closed normal
    inhabitant; records the eraser slope max |E|/|A| and duplicator sizes."""
    res = SuiteResult()
    one, b = unit_type(), bool_type()
    cases = {"1": one, "B": b, "1*1": tensor_type(one, one),
             "B*B": tensor_type(b, b)}
    # (1 & 1) translates to 1 * 1, so the tensor cases cover it
    if translate_type(With(one, one)) != cases["1*1"]:
        res.fail("1 & 1 does not translate to 1 * 1")
    ident = identity_term()
    total, slopes, dup_sizes = 0, [], {}
    for name, a in cases.items():
        era, dup = gadgets.eraser(a), gadgets.duplicator(a)
        slopes.append(term_size(era.conclusion.subject) / type_size(a))
        dup_sizes[name] = term_size(dup.conclusion.subject)
        for _, vd in enumerate_inhabitants(a).members:
            tv = translate_derivation(vd, gadgets)
            if not alpha_equal(normalize(d_app(era, tv).conclusion.subject).term,
                               ident):
                res.fail("eraser fails on an inhabitant of %s" % name)
            want = d_tensor_pair(tv, tv).conclusion.subject
            if not beta_eta_equal(d_app(dup, tv).conclusion.subject, want):
                res.fail("duplicator fails on an inhabitant of %s" % name)
            total += 1
    res.measurements.update(types=len(cases), inhabitants_checked=total,
                            eraser_slope=max(slopes),
                            duplicator_sizes=dup_sizes)
    return res


def soundness(corpus, gadgets) -> SuiteResult:
    """The translation preserves the subject beta-eta across each elimination
    step, and from the input to the cut-free result."""
    res = SuiteResult()
    entries = soundness_entries(corpus)
    steps = 0
    for e in entries:
        out, trace = eliminate(e.derivation, keep_derivations=True)
        for before, after in zip(trace.snapshots, trace.snapshots[1:]):
            if not check_soundness(before, after, gadgets):
                res.fail("%s: translation not preserved across a step" % e.name)
                break
            steps += 1
        t1 = translate_derivation(e.derivation, gadgets).conclusion.subject
        t2 = translate_derivation(out, gadgets).conclusion.subject
        if not beta_eta_equal(t1, t2):
            res.fail("%s: translation not preserved end to end" % e.name)
    res.measurements.update(entries=len(entries), steps_checked=steps)
    return res


SUITES = {
    "subject-reduction": subject_reduction,
    "blowup": blowup,
    "cutelim-cubic": cutelim_cubic,
    "duplicator": duplicator,
    "soundness": soundness,
    "confluence": confluence,
}

CORPUS_SUITES = frozenset({"subject-reduction", "soundness", "confluence"})

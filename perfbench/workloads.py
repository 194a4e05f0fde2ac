"""The three benchmark workloads and their known answers.

Each workload's `setup(seed, calls, tmp)` generates its inputs and returns
the list of jobs.  A job is a (name, fn) pair; `fn(calls)` runs one unit of
work through `calls` and raises `WrongAnswer` when an output differs from
the answer known for it.  The known answers come from the paper's closed
forms and from comparisons between independent routes (printing then
parsing, three reduction strategies, reduction against cut elimination),
never from re-running the call under test.

Why these workloads:

- corpus: many small inputs where constant factors and parsing dominate.
  One job per entry runs the whole pipeline on it; one more parses the text
  of a copy whose root goal is swapped for another corpus goal and checks
  it, with "fail" as the known answer; a sample of entries also goes
  through `linadd.cli.main` as files.  The seed enters through the random
  compositions of `build_corpus`, the swapped goals, the CLI sample and the
  seed of the random reduction strategy.
- family: a few huge members of the paper's add and ladd families, where
  rescanning the whole term or derivation at every step dominates.  `add`
  copies subterms and `ladd` shrinks the term at each step, so the two load
  reduction in opposite ways.  A fixed job set: the seed does not enter.
- gadgets: translation into the multiplicative fragment and the eraser and
  duplicator contracts, dominated by gadget building, type substitution and
  many-step normalization of mid-sized terms, with no parsing.  A fixed job
  set: the seed does not enter.
"""

from __future__ import annotations

import io
import json
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from linadd import cli
from linadd.corpus import build_corpus
from linadd.cutelim import eliminate
from linadd.derivation import (
    LAM, Derivation, Judgement, check, d_app, is_cut_free, metrics,
)
from linadd.families import gen_add, gen_applied, gen_ladd, ladd_size_formula, pair_tower
from linadd.frontend import derivations_equal, parse_derivation, print_derivation, print_term
from linadd.inhabit import enumerate_inhabitants, maximal_value
from linadd.reduce import beta_eta_equal, find_redexes, normalize, push_reduction
from linadd.terms import Abs, Var, alpha_equal, identity_term, term_size
from linadd.translate import GadgetLibrary, d_tensor_pair, translate_derivation
from linadd.typesys import bool_type, tensor_type, unit_type


class WrongAnswer(Exception):
    """A job's output differs from its known answer."""


def expect(ok, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


class Calls:
    """The benchmark's calls into linadd.  Each runs as a span named after
    the module and function, and adds the work it did to `counts`, which the
    runner replaces at the start of every pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()

    def _call(self, span, failed, fn, *args, **kwargs):
        try:
            return self.tracer.call(span, fn, *args, **kwargs)
        except Exception:
            self.counts[failed] += 1
            raise

    # corpus and families
    def build_corpus(self, seed):
        out = self._call("corpus.build_corpus", "corpus.failed", build_corpus, seed)
        self.counts["corpus.entries"] += len(out)
        return out

    def gen(self, fn, *args):
        self.counts["families.calls"] += 1
        return self._call("families." + fn.__name__, "families.failed", fn, *args)

    # frontend
    def print_derivation(self, d):
        text = self._call("frontend.print_derivation", "frontend.failed",
                          print_derivation, d)
        self.counts["frontend.chars"] += len(text)
        return text

    def parse_derivation(self, text):
        return self._call("frontend.parse_derivation", "frontend.failed",
                          parse_derivation, text)

    def derivations_equal(self, d1, d2):
        return self._call("frontend.derivations_equal", "frontend.failed",
                          derivations_equal, d1, d2)

    # derivation
    def check(self, d, system, nodes):
        """`nodes` is |D|, counted by the caller outside the span."""
        bad = self._call("derivation.check", "derivation.check_failed",
                         check, d, system)
        self.counts["derivation.checks"] += 1
        self.counts["derivation.check_nodes"] += nodes
        return bad

    # reduce
    def normalize(self, t, strategy="leftmost", seed=None):
        r = self._call("reduce.normalize", "reduce.failed", normalize, t,
                       strategy=strategy, seed=seed)
        self.counts["reduce.normalizations"] += 1
        self.counts["reduce.steps"] += r.steps
        return r

    def find_redexes(self, t):
        return self._call("reduce.find_redexes", "reduce.failed", find_redexes, t)

    def push_reduction(self, d, r):
        out = self._call("reduce.push_reduction", "reduce.failed",
                         push_reduction, d, r)
        self.counts["reduce.pushes"] += 1
        return out

    def beta_eta_equal(self, m, n):
        self.counts["reduce.beta_eta"] += 1
        return self._call("reduce.beta_eta_equal", "reduce.failed",
                          beta_eta_equal, m, n)

    # cutelim
    def eliminate(self, d):
        out, trace = self._call("cutelim.eliminate", "cutelim.failed", eliminate, d)
        self.counts["cutelim.runs"] += 1
        self.counts["cutelim.steps"] += trace.total_steps
        self.counts["cutelim.rounds"] += trace.rounds
        return out

    # translate and inhabit
    def translate(self, d, lib):
        out = self._call("translate.translate_derivation", "translate.failed",
                         translate_derivation, d, lib)
        self.counts["translate.translations"] += 1
        return out

    def enumerate_inhabitants(self, a):
        found = self._call("inhabit.enumerate_inhabitants", "inhabit.failed",
                           enumerate_inhabitants, a)
        self.counts["inhabit.inhabitants"] += found.count
        return found

    # terms
    def alpha_equal(self, m, n):
        return self._call("terms.alpha_equal", "terms.failed", alpha_equal, m, n)

    # cli
    def cli_main(self, argv):
        """(exit code, parsed --json report) of one in-process CLI call."""
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self._call("cli.main", "cli.failed", cli.main, argv)
        self.counts["cli.jobs"] += 1
        return code, json.loads(out.getvalue())


class TracedGadgets(GadgetLibrary):
    """A fresh gadget library whose public builders run as spans.  The
    translation calls them, so gadget building shows as a child of the
    translate span; the nodes of every gadget it hands out are counted
    once."""

    def __init__(self, calls: Calls):
        super().__init__()
        self._calls = calls
        self._seen: set = set()

    def _count(self, g):
        if id(g) not in self._seen:
            self._seen.add(id(g))
            self._calls.counts["translate.gadgets"] += 1
            self._calls.counts["translate.gadget_nodes"] += metrics(g).size
        return g

    def eraser(self, a):
        return self._count(self._calls._call(
            "translate.gadget", "translate.failed", super().eraser, a))

    def duplicator(self, a):
        return self._count(self._calls._call(
            "translate.gadget", "translate.failed", super().duplicator, a))


def _swap_goal(d: Derivation, goal) -> Derivation:
    j = d.conclusion
    return Derivation(d.rule, Judgement(j.context, j.subject, goal), d.premises)


# -- corpus -------------------------------------------------------------------

# Corpus entries written to files for the CLI leg: one drawn from each of
# this many equal slices of the entries ranked by |D|, so that every seed
# sends the CLI the same mix of sizes.
CLI_SAMPLE = 12
ELIM_MAX_SIZE = 150      # |D| limit for running cut elimination on an entry
# The sizes of the random compositions vary between seeds: their total by
# about 15% (interquartile range over seeds 0-11), and with it the work and
# the job latencies.  So the workload takes, for each of these sizes, the
# composition whose |D| is closest to it, the earliest built on ties.  That
# gives every seed the same mix of sizes while the seed still picks the
# compositions.  The sizes are the 55 evenly spaced quantiles of |D| over
# the compositions of seeds 0-9; each of those seeds matches them within 1%
# on average.
TARGET_SIZES = (
    9, 13, 17, 17, 20, 24, 25, 26, 27, 29, 31, 32, 32, 33, 35, 39, 40, 42,
    43, 45, 48, 50, 52, 55, 55, 57, 57, 61, 62, 64, 68, 71, 76, 76, 78, 83,
    84, 89, 93, 98, 103, 108, 110, 116, 122, 127, 133, 141, 151, 159, 172,
    186, 207, 234, 297,
)


def _corpus_entry_job(e, size, seed):
    d = e.derivation
    m = d.conclusion.subject
    bound = term_size(m)
    lam = e.system == LAM
    elim = "forall-lazy" in e.tags and size <= ELIM_MAX_SIZE

    def job(c: Calls):
        back = c.parse_derivation(c.print_derivation(d))
        expect(c.derivations_equal(d, back), "print/parse round trip differs")
        expect(c.check(d, e.system, size) == [], "entry fails to check")
        results = [c.normalize(m, "leftmost"), c.normalize(m, "rightmost"),
                   c.normalize(m, "random", seed)]
        expect(all(r.steps <= bound for r in results), "more than |M| steps")
        expect(all(c.alpha_equal(results[0].term, r.term) for r in results[1:]),
               "strategies disagree on the normal form")
        if lam:
            for r in c.find_redexes(m):
                d2 = c.push_reduction(d, r)
                expect(c.check(d2, LAM, metrics(d2).size) == [],
                       "pushed derivation fails to check")
                expect(term_size(d2.conclusion.subject) < bound,
                       "pushed reduct does not shrink")
        if elim:
            out = c.eliminate(d)
            expect(is_cut_free(out), "elimination left a cut")
            expect(c.alpha_equal(out.conclusion.subject, results[0].term),
                   "cut-free subject is not the normal form")
    return job


def _check_fails_job(text, system, size):
    def job(c: Calls):
        d = c.parse_derivation(text)
        expect(c.check(d, system, size) != [], "known-bad derivation accepted")
    return job


def _cli_job(argv, code_wanted, verdict_wanted, max_steps=None):
    def job(c: Calls):
        code, report = c.cli_main(argv)
        expect(code == code_wanted, "exit code %r" % (code,))
        expect(report["verdict"] == verdict_wanted,
               "verdict %r" % (report["verdict"],))
        if max_steps is not None:
            ms = report["measurements"]
            expect(ms["input_size"] == max_steps, "input size differs")
            expect(ms["steps"] <= max_steps, "more than |M| steps")
    return job


def _corpus_entries(corpus) -> list:
    """The landmark entries, and for each target size the closest unused
    random composition."""
    sizes = {id(e): e.size for e in corpus if "random" in e.tags}
    taken: set = set()
    for t in TARGET_SIZES:
        taken.add(min((i for i in sizes if i not in taken),
                      key=lambda i: abs(sizes[i] - t)))
    return [e for e in corpus if id(e) in taken or id(e) not in sizes]


def corpus_setup(seed: int, c: Calls, tmp: str) -> list:
    entries = _corpus_entries(c.build_corpus(seed))
    rng = random.Random(seed)
    goals: list = []
    for e in entries:
        g = e.derivation.conclusion.goal
        if not any(g == h for h in goals):
            goals.append(g)
    jobs = []
    swapped = []
    sizes = [e.size for e in entries]
    for e, size in zip(entries, sizes):
        d = e.derivation
        jobs.append((e.name, _corpus_entry_job(e, size, seed)))
        goal = rng.choice([g for g in goals if not g == d.conclusion.goal])
        swapped.append(print_derivation(_swap_goal(d, goal)))
        jobs.append((e.name + "/goal-swap",
                     _check_fails_job(swapped[-1], e.system, size)))
    ranked = sorted(range(len(entries)), key=sizes.__getitem__)
    n = len(ranked)
    for i in sorted(rng.choice(ranked[k * n // CLI_SAMPLE:(k + 1) * n // CLI_SAMPLE])
                    for k in range(CLI_SAMPLE)):
        e = entries[i]
        base = os.path.join(tmp, "%03d" % i)
        good, bad, term = base + ".lamd", base + "-swap.lamd", base + ".lam"
        for path, text in ((good, print_derivation(e.derivation)),
                           (bad, swapped[i]),
                           (term, print_term(e.derivation.conclusion.subject))):
            with open(path, "w") as f:
                f.write(text + "\n")
        msize = term_size(e.derivation.conclusion.subject)
        jobs.append(("cli/check/" + e.name, _cli_job(
            ["check", good, "--system", e.system, "--json"], 0, "pass")))
        jobs.append(("cli/check-swap/" + e.name, _cli_job(
            ["check", bad, "--system", e.system, "--json"], 1, "fail")))
        jobs.append(("cli/normalize/" + e.name, _cli_job(
            ["normalize", term, "--json"], 0, "pass", max_steps=msize)))
    return jobs


# -- family -------------------------------------------------------------------

# 17 jobs in all, a pass of about 3.3 s, so that every job runs about ten
# times in a 35-second run.  With an odd count the median job latency falls
# inside one job's latencies (ladd-normalize-10) instead of between two.
# Eliminating ladd(1, 11) is left out: it alone took 1.7 s.
LADD_N = (10, 11, 12)    # check and normalize applied ladd(1, n)
ELIM_N = (7, 8, 9, 10)   # eliminate applied ladd(1, n)
ADD_N = (8, 9, 10)       # check and normalize applied add(B, n)
DEEP = 1500              # nested abstractions in the deep normal term


def _family_check_job(d, system, size, body, body_size):
    def job(c: Calls):
        expect(c.check(d, system, size) == [], "family member fails to check")
        expect(term_size(body) == body_size, "term size differs from the formula")
    return job


def _family_normalize_job(m, steps, nf):
    def job(c: Calls):
        r = c.normalize(m)
        expect(r.steps == steps, "%d steps, expected %d" % (r.steps, steps))
        expect(c.alpha_equal(r.term, nf), "normal form is not the pair tower")
    return job


def _family_eliminate_job(d, nf):
    def job(c: Calls):
        out = c.eliminate(d)
        expect(is_cut_free(out), "elimination left a cut")
        expect(c.alpha_equal(out.conclusion.subject, nf),
               "cut-free subject is not the pair tower")
    return job


def _deep_job(m):
    def job(c: Calls):
        r = c.normalize(m)
        expect(r.steps == 0, "a normal term took %d steps" % r.steps)
    return job


def family_setup(seed: int, c: Calls, tmp: str) -> list:
    one, boolean = unit_type(), bool_type()
    jobs = []
    ladd: dict = {}
    unit_value, unit_vd = maximal_value(one)
    for n in sorted(set(LADD_N) | set(ELIM_N)):
        term, d = c.gen(gen_ladd, n, one)
        applied = c.gen(gen_applied, d, unit_vd)
        ladd[n] = (term, applied, metrics(applied).size,
                   pair_tower(unit_value, n))
    for n in LADD_N:
        term, applied, size, nf = ladd[n]
        formula = ladd_size_formula(n, term_size(unit_value))
        jobs.append(("ladd-check-%d" % n, _family_check_job(
            applied, LAM, size, term.body, formula)))
        jobs.append(("ladd-normalize-%d" % n, _family_normalize_job(
            applied.conclusion.subject, 2 * n + 1, nf)))
    for n in ELIM_N:
        _, applied, _, nf = ladd[n]
        jobs.append(("ladd-eliminate-%d" % n, _family_eliminate_job(applied, nf)))
    tt, tt_d = maximal_value(boolean)
    for n in ADD_N:
        term, d = c.gen(gen_add, n, boolean)
        applied = c.gen(gen_applied, d, tt_d)
        jobs.append(("add-check-%d" % n, _family_check_job(
            applied, "imall2", metrics(applied).size, term.body, 5 * n + 1)))
        jobs.append(("add-normalize-%d" % n, _family_normalize_job(
            applied.conclusion.subject, n + 1, pair_tower(tt, n))))
    deep = Var("v0")
    for i in reversed(range(DEEP)):
        deep = Abs("v%d" % i, deep)
    jobs.append(("deep-normalize-%d" % DEEP, _deep_job(deep)))
    return jobs


# -- gadgets ------------------------------------------------------------------

# A pass takes about 3 s, so that every job runs about ten times in a
# 35-second run.  Translating ladd(B, 3) and ladd(B*B, 2) is left out (about
# 2.5 s each), and so are the contracts of all but the first inhabitant of
# B*B*B: each takes 1.2 to 2 s, almost all of it in beta_eta_equal, and the
# eight took 80% of a pass.  All eight are still enumerated and counted.
TRANSLATE = (("1", (1, 2, 3, 4)), ("B", (1, 2)), ("B*1", (1, 2)),
             ("B*B", (1,)))
CONTRACTS = (("1", 1), ("B", 2), ("B*B", 4), ("B*B*B", 8))
CONTRACTED = {"B*B*B": 1}    # type -> how many of its inhabitants, if not all


def _translate_job(d):
    def job(c: Calls):
        out = c.translate(d, TracedGadgets(c))
        size = metrics(out).size
        c.counts["translate.out_nodes"] += size
        expect(c.check(out, "imll2", size) == [], "translation fails in imll2")
    return job


def _enumerate_job(a, count):
    def job(c: Calls):
        found = c.enumerate_inhabitants(a).count
        expect(found == count, "%d inhabitants, expected %d" % (found, count))
    return job


def _contract_job(a, vd):
    def job(c: Calls):
        lib = TracedGadgets(c)
        eraser, dup = lib.eraser(a), lib.duplicator(a)
        tv = c.translate(vd, lib)
        erased = c.normalize(d_app(eraser, tv).conclusion.subject).term
        expect(c.alpha_equal(erased, identity_term()), "eraser does not discard")
        expect(c.beta_eta_equal(d_app(dup, tv).conclusion.subject,
                                d_tensor_pair(tv, tv).conclusion.subject),
               "duplicator does not duplicate")
    return job


def gadgets_setup(seed: int, c: Calls, tmp: str) -> list:
    one, b = unit_type(), bool_type()
    bb = tensor_type(b, b)
    types = {"1": one, "B": b, "B*1": tensor_type(b, one), "B*B": bb,
             "B*B*B": tensor_type(bb, b)}
    jobs = []
    for name, ns in TRANSLATE:
        a = types[name]
        _, vd = maximal_value(a)
        for n in ns:
            _, d = c.gen(gen_ladd, n, a)
            jobs.append(("translate-ladd-%s-%d" % (name, n),
                         _translate_job(c.gen(gen_applied, d, vd))))
    for name, count in CONTRACTS:
        a = types[name]
        jobs.append(("enumerate-%s" % name, _enumerate_job(a, count)))
        members = c.enumerate_inhabitants(a).members[:CONTRACTED.get(name)]
        for i, (_, vd) in enumerate(members):
            jobs.append(("contract-%s-%d" % (name, i), _contract_job(a, vd)))
    return jobs


WORKLOADS = {
    "corpus": corpus_setup,
    "family": family_setup,
    "gadgets": gadgets_setup,
}

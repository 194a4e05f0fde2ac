"""Top-level acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Criteria 1-5, 8 and 9 run the suite of `linadd.suites` that
defines them (the same code as ``linadd suite NAME``) and assert that it found
no failure, plus thresholds and time bounds on its measurements; criteria 6,
7 and 10 are defined here only.  Fitted constants (the cut-elimination cubic
constant, the eraser slope, the compression ratios) are printed rather than
asserted against fixed values; monotonicity and exactness claims are asserted.
"""

import time

import pytest

from linadd import suites
from linadd.corpus import (
    copy_first_enclosure, copy_first_example, deadlock_enclosure,
    deadlock_example,
)
from linadd.cutelim import CutElimError, elim_step, eliminate
from linadd.derivation import check_ok, is_cut_free, metrics
from linadd.families import gen_ladd
from linadd.inhabit import enumerate_inhabitants
from linadd.frontend import parse_term
from linadd.reduce import beta_eta_equal, normalize
from linadd.steps import COPY_FIRST, DEADLOCK, classify_cut
from linadd.terms import Copy, Proj, alpha_equal, is_value, term_size
from linadd.translate import GadgetLibrary, translate_derivation
from linadd.typesys import bool_type, tensor_type, type_size, unit_type


ONE = unit_type()
B = bool_type()


def _copy_proj_free(t):
    if isinstance(t, (Copy, Proj)):
        return False
    return all(_copy_proj_free(c) for c in t.children())


def test_criterion_01_blowup_separation(corpus, gadgets):
    started = time.time()
    res = suites.blowup(corpus, gadgets)
    assert res.failures == []
    assert [row["n"] for row in res.measurements["table"]] == list(range(1, 9))
    assert time.time() - started < 5.0


def test_criterion_02_subject_reduction(corpus, gadgets):
    res = suites.subject_reduction(corpus, gadgets)
    assert res.failures == []
    assert res.measurements["entries"] >= 200
    assert res.measurements["reducts_checked"] > 200


@pytest.fixture(scope="module")
def confluence(corpus, gadgets):
    # criteria 3 and 4 are judged on the same normalize runs
    return suites.confluence(corpus, gadgets)


def test_criterion_03_linear_strong_normalization(corpus, confluence):
    assert [f for f in confluence.failures if "more than |M|" in f] == []
    assert confluence.measurements["entries"] == len(corpus)
    assert confluence.measurements["strategies"] == 5


def test_criterion_04_unique_normal_forms(corpus, confluence):
    assert confluence.failures == []
    assert confluence.measurements["entries"] == len(corpus)


def test_criterion_04_strategies_reach_the_known_normal_form():
    # the corpus projects only pairs of equal components, and the suite
    # compares strategies only with each other; here the normal form is
    # known, and so is the redex each strategy contracts first
    t = parse_term("p1(<a, b>) ((\\x. x) p2(<c, d>))")
    first = {}
    for strategy, seed in (("leftmost", None), ("rightmost", None), ("random", 0)):
        res = normalize(t, strategy, seed=seed, keep_trace=True)
        assert res.term == parse_term("a d") and res.steps == 3, strategy
        first[strategy] = res.trace[0][0].path
    assert (first["leftmost"], first["rightmost"]) == ((0,), (1, 1))


def test_criterion_05_cut_elimination(corpus, gadgets, elimination_entries):
    res = suites.cutelim_cubic(corpus, gadgets)
    assert res.failures == []
    print("\n  cubic constant fitted on n=1..3: C = %.3g"
          % res.measurements["constant"])

    for e in elimination_entries:
        d = e.derivation
        out, _ = eliminate(d)
        assert is_cut_free(out), e.name
        check_ok(out)
        assert _copy_proj_free(out.conclusion.subject), e.name
        if not d.conclusion.context:
            assert is_value(out.conclusion.subject), e.name
        nf = normalize(d.conclusion.subject).term
        assert alpha_equal(out.conclusion.subject, nf), e.name


def test_criterion_06_cut_classification():
    assert classify_cut(deadlock_example()) == DEADLOCK
    assert classify_cut(copy_first_example()) == COPY_FIRST
    for d in (deadlock_example(), copy_first_example()):
        with pytest.raises(CutElimError):
            elim_step(d, ())
    for build in (deadlock_enclosure, copy_first_enclosure):
        out, _ = eliminate(build())
        assert is_cut_free(out)
        assert is_value(out.conclusion.subject)


def test_criterion_07_inhabitant_enumeration():
    started = time.time()
    assert enumerate_inhabitants(ONE).count == 1
    bools = enumerate_inhabitants(B)
    assert bools.count == 2
    tt = parse_term("\\x. \\y. \\z. z x y")
    ff = parse_term("\\x. \\y. \\z. z y x")
    assert any(beta_eta_equal(t, tt) for t in bools.terms())
    assert any(beta_eta_equal(t, ff) for t in bools.terms())
    assert enumerate_inhabitants(tensor_type(B, B)).count == 4
    for a in (ONE, B, tensor_type(B, B)):
        for t, d in enumerate_inhabitants(a).members:
            j = d.conclusion
            bound = sum(type_size(x) for x in j.context_types()) + type_size(j.goal)
            assert term_size(t) <= bound <= 2 * metrics(d).size
    assert time.time() - started < 30.0


def test_criterion_08_eraser_duplicator_contracts(corpus, gadgets):
    started = time.time()
    res = suites.duplicator(corpus, gadgets)
    assert res.failures == []
    m = res.measurements
    assert m["types"] == 4 and m["inhabitants_checked"] == 8
    print("\n  eraser slope |E|/|A|: max %.2f; duplicator sizes: %s"
          % (m["eraser_slope"], m["duplicator_sizes"]))
    assert m["eraser_slope"] < 3.0
    assert time.time() - started < 120.0


def test_criterion_09_translation_soundness(corpus, gadgets):
    res = suites.soundness(corpus, gadgets)
    assert res.failures == []
    assert res.measurements["entries"] >= 100
    assert res.measurements["steps_checked"] > 500


def test_criterion_10_compression():
    # a library of its own, dropped with the test: the gadgets it builds for
    # ladd(B, 5) are about 0.12M objects, which the session library would
    # keep alive until the session ends
    gadgets = GadgetLibrary()
    ratios = []
    at_largest = None
    for n in range(1, 6):
        _, d = gen_ladd(n, B)
        size = metrics(d).size
        translated = metrics(translate_derivation(d, gadgets)).size
        ratios.append(translated / size)
        at_largest = (size, translated)
    print("\n  |D*|/|D| for n=1..5: %s" % ["%.1f" % r for r in ratios])
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    size, translated = at_largest
    assert translated > size ** 2

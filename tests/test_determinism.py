"""Outputs are functions of their inputs.

A fresh name is the first `base_k` not in scope (`nameless.fresh`), so
building, translating or eliminating the same input twice gives the same
result, in one process or in two, whatever ran before.
"""

import hashlib
import json
import os
import subprocess
import sys

import linadd
from linadd import cli
from linadd.corpus import build_corpus
from linadd.cutelim import elim_step, eliminate
from linadd.derivation import metrics
from linadd.families import gen_ladd
from linadd.frontend import derivations_equal, print_derivation
from linadd.reduce import push_reduction
from linadd.translate import translate_derivation
from linadd.typesys import bool_type

B = bool_type()


def test_corpus_prints_the_same_twice(corpus):
    again = build_corpus(0)
    assert [e.name for e in again] == [e.name for e in corpus]
    assert len(corpus) == 215
    differ = [e.name for e, f in zip(corpus, again)
              if print_derivation(e.derivation) != print_derivation(f.derivation)]
    assert not differ


def test_translation_prints_the_same_twice():
    texts = {print_derivation(translate_derivation(gen_ladd(1, B)[1]))
             for _ in range(2)}
    assert len(texts) == 1


def test_translation_prints_the_same_in_another_process():
    # another process, with another seed for the hashes of strings
    code = ("from linadd.families import gen_ladd\n"
            "from linadd.frontend import print_derivation\n"
            "from linadd.translate import translate_derivation\n"
            "from linadd.typesys import bool_type\n"
            "print(print_derivation(translate_derivation("
            "gen_ladd(1, bool_type())[1])), end='')\n")
    src = os.path.dirname(os.path.dirname(linadd.__file__))
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    other = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout
    assert other == print_derivation(translate_derivation(gen_ladd(1, B)[1]))


def test_elimination_gives_equal_results_twice(corpus):
    # these two once renamed assumptions differently on every call
    entries = {e.name: e.derivation for e in corpus}
    for name in ("random-cut-eta-122", "random-cut-eta-135"):
        first, _ = eliminate(entries[name])
        second, _ = eliminate(entries[name])
        assert derivations_equal(first, second), name
        assert print_derivation(first) == print_derivation(second), name


# One sha256 over what cut elimination gives on every forall-lazy entry of
# the seed-0 corpus, in corpus order: repr(trace.steps), repr(trace.rounds)
# and the printed keep_derivations snapshots.  It was recorded while every
# constructor still computed its subject at once, so it pins the output of
# the whole strategy byte for byte, print hints of binders included.
ELIMINATION_SHA256 = "eba462091a331561c8fb18a09edc462d255f6c505de96aee86ee955fc69e8ca6"


def test_elimination_output_is_pinned(corpus):
    h = hashlib.sha256()
    entries = [e for e in corpus if "forall-lazy" in e.tags]
    assert len(entries) == 177
    for e in entries:
        _, trace = eliminate(e.derivation, recheck=False, keep_derivations=True)
        h.update(repr(trace.steps).encode())
        h.update(repr(trace.rounds).encode())
        for snapshot in trace.snapshots:
            h.update(print_derivation(snapshot).encode())
    assert h.hexdigest() == ELIMINATION_SHA256


# One sha256 over the printed push_reduction(d, r) of every pushed (d, r)
# (see `conftest.pushed`), in order.  It was recorded while
# push_reduction still kept its own spine and compared the stepped cut's
# subject after every step, so it pins the derivation each push builds.
PUSH_SHA256 = "b669a5c4fb711c360e2ab61dc1ddb8066f0ddfcd7e5d2aba290765512a68506f"


def test_push_output_is_pinned(pushed):
    assert len(pushed) == 438
    h = hashlib.sha256()
    for d, r in pushed:
        h.update(print_derivation(push_reduction(d, r)).encode())
    assert h.hexdigest() == PUSH_SHA256


def test_elim_step_repeats_each_step_of_elimination(corpus):
    # stepping a snapshot at the path the trace names gives the next one
    stepped = 0
    for e in corpus:
        if "forall-lazy" in e.tags and metrics(e.derivation).size <= 60:
            _, trace = eliminate(e.derivation, recheck=False, keep_derivations=True)
            snapshots = trace.snapshots
            for i, s in enumerate(trace.steps):
                assert derivations_equal(elim_step(snapshots[i], s.path),
                                         snapshots[i + 1]), (e.name, i)
                stepped += 1
    assert stepped == 846


# One sha256 over repr(check(d, system)) for system in lam, imall2, imll2,
# over: the corpus entries of seeds 0-2, each followed by its raw copy; the
# pinned mutants and the multi-mutants of `test_check_mutants`; the
# translated ladd(B, 1..2); the applied ladd(1, 10..12) and add(B, 8..10).
# It was recorded from the checker that called one function per node
# stage, so it pins every violation, its order and its message.
CHECK_SHA256 = "57af03d971a650f231f4bbf5bb652bac644c9fb38e5eabbf7887b8e249109c6a"


def test_check_output_is_pinned(corpus):
    from test_check_mutants import multi_mutants, mutants, raw_copy
    from linadd.derivation import IMALL2, IMLL2, LAM, check
    from linadd.families import gen_add, gen_applied
    from linadd.inhabit import maximal_value
    from linadd.translate import GadgetLibrary
    from linadd.typesys import unit_type
    ds = []
    for c in (corpus, build_corpus(1), build_corpus(2)):
        for e in c:
            ds += [e.derivation, raw_copy(e.derivation)]
    ds += [m for *_, m in mutants(corpus)]
    ds += [m for _, m in multi_mutants(corpus)]
    lib = GadgetLibrary()
    ds += [translate_derivation(gen_ladd(n, B)[1], lib) for n in (1, 2)]
    _, unit = maximal_value(unit_type())
    ds += [gen_applied(gen_ladd(n, unit_type())[1], unit) for n in (10, 11, 12)]
    _, tt = maximal_value(B)
    ds += [gen_applied(gen_add(n, B)[1], tt) for n in (8, 9, 10)]
    assert len(ds) == 2928
    h = hashlib.sha256()
    for d in ds:
        for system in (LAM, IMALL2, IMLL2):
            h.update(repr(check(d, system)).encode())
    assert h.hexdigest() == CHECK_SHA256


def test_translate_command_writes_the_same_twice(tmp_path, capsys):
    src = tmp_path / "ladd.lamd"
    src.write_text(print_derivation(gen_ladd(2, B)[1]))

    def run(*flags):
        assert cli.main(["translate", str(src), *flags]) == 0
        return capsys.readouterr().out

    assert run() == run()
    reports = [json.loads(run("--json")) for _ in range(2)]
    for r in reports:  # wall times are the one part that may differ
        del r["measurements"]["timings"]
    assert reports[0] == reports[1]

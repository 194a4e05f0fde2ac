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
from linadd.cutelim import eliminate
from linadd.families import gen_ladd
from linadd.frontend import derivations_equal, print_derivation
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

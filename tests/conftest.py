import pytest

from linadd.corpus import build_corpus
from linadd.frontend import print_term, print_type
from linadd.translate import GadgetLibrary


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(seed=0)


@pytest.fixture(scope="session")
def gadgets():
    return GadgetLibrary()


def _print_v1(d, indent=0):
    j = d.conclusion
    ctx = " ".join('(%s "%s")' % (n, print_type(a)) for n, a in j.context)
    return '%s(rule %s (seq (%s) "%s" "%s")%s)' % (
        "  " * indent, d.rule, ctx, print_term(j.subject), print_type(j.goal),
        "".join("\n" + _print_v1(p, indent + 1) for p in d.premises))


@pytest.fixture(scope="session")
def print_v1():
    """A writer of version 1 `.lamd` files, which state every judgement and
    no rule's parameters, for the tests of how such files still read."""
    return _print_v1

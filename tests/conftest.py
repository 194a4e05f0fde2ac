import pytest

from linadd.corpus import build_corpus
from linadd.translate import GadgetLibrary


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(seed=0)


@pytest.fixture(scope="session")
def gadgets():
    return GadgetLibrary()


@pytest.fixture(scope="session")
def elimination_entries(corpus):
    """The corpus entries whose root judgement is forall-lazy and small
    enough to run cut elimination on during tests."""
    return [e for e in corpus if "forall-lazy" in e.tags and e.size <= 150]


@pytest.fixture(scope="session")
def cut_chain():
    """A builder of n-deep cut chains: x0 : a |- x0 : a, then n cuts of an
    axiom x_k : a into x_{k-1}, closed by lolliR and forallR into
    |- \\x. x : forall a. a -o a."""
    from linadd.derivation import d_ax, d_cut, d_forallR, d_lolliR
    from linadd.typesys import TVar

    def build(n):
        a = TVar("a")
        d = d_ax("x0", a)
        for k in range(1, n + 1):
            d = d_cut(d_ax("x%d" % k, a), d, "x%d" % (k - 1))
        return d_forallR(d_lolliR(d, "x%d" % n), "a", "a")
    return build

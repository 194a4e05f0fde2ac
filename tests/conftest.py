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

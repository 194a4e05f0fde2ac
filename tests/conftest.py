import pytest

from linadd.corpus import build_corpus
from linadd.translate import GadgetLibrary


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(seed=0)


@pytest.fixture(scope="session")
def gadgets():
    return GadgetLibrary()

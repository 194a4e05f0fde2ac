import pytest
import hypothesis.strategies as st

from linadd.corpus import build_corpus
from linadd.terms import Abs, App, Copy, Pair, Proj, Term, Var, identity_term
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


@pytest.fixture
def count_terms(monkeypatch):
    """Call it to start counting the term nodes built: it returns a
    one-item list that holds the count."""
    def start():
        count = [0]
        todo = [Term]
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if "__init__" in cls.__dict__:
                def init(node, *args, _real=cls.__dict__["__init__"], **kwargs):
                    count[0] += 1
                    _real(node, *args, **kwargs)
                monkeypatch.setattr(cls, "__init__", init)
        return count
    return start


@pytest.fixture(scope="session")
def pushed(corpus):
    """(derivation, redex) for every redex of the seed-0 LAM entries and of
    quadratic_family(1..12): 438 pushes, each a few milliseconds."""
    from linadd.corpus import lam_entries, quadratic_family
    from linadd.reduce import find_redexes
    ds = [e.derivation for e in lam_entries(corpus)]
    ds += [quadratic_family(n) for n in range(1, 13)]
    return [(d, r) for d in ds for r in find_redexes(d.conclusion.subject)]


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


@pytest.fixture(scope="session")
def drawn_terms():
    """A Hypothesis strategy of small untyped terms, drawn with data.draw.
    Binders and free variables share one pool of five names, so a binder
    may capture a free name, shadow another binder or use its variable any
    number of times.  Beta redexes and the self-application \\x. x x are
    drawn as such, so that many terms reduce and some have no normal form."""
    names = st.sampled_from(["x", "y", "z", "u", "v"])
    leaves = st.one_of(
        st.builds(Var, names),
        st.builds(lambda x: Abs(x, App(Var(x), Var(x))), names),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Abs, names, sub),
            st.builds(App, sub, sub),
            st.builds(lambda x, m, n: App(Abs(x, m), n), names, sub, sub),
            st.builds(Pair, sub, sub),
            st.builds(Proj, st.sampled_from([1, 2]), sub),
            st.builds(lambda s, l, r: Copy(identity_term(), s, l, r,
                                           Var(l), Var(r)),
                      sub, names, names),
        ),
        max_leaves=12)

"""A corpus of checked derivations for the regression suite.

The corpus mixes hand-built landmark derivations (the additive families, the
enumerated inhabitants of the small closed types, the deadlock and copy-first
cut examples) with seeded random compositions of closed derivations.  Every
entry rechecks in its stated system; the default build yields well over two
hundred entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .terms import is_value
from .typesys import TVar, bool_type, judgement_is_forall_lazy, tensor_type, unit_type
from .derivation import (
    Derivation, LAM, check, d_ax, d_cut, d_lolliL, d_lolliR, d_withL,
    d_withR1, d_forallL, d_forallR, is_cut_free, is_eta_expanded, metrics,
)
from .families import gen_add, gen_applied, gen_ladd, value_tower_derivation
from .inhabit import (
    InhabitError, enumerate_inhabitants, eta_expand, eta_expansion_derivation,
    maximal_value,
)
from .translate import d_tensor_pair, identity_derivation


@dataclass
class CorpusEntry:
    name: str
    derivation: Derivation
    system: str = LAM
    tags: frozenset = field(default_factory=frozenset)

    @property
    def size(self) -> int:
        return metrics(self.derivation).size


class CorpusError(Exception):
    pass


def _entry(out, name, d, system=LAM, tags=()):
    bad = check(d, system)
    if bad:
        raise CorpusError("corpus entry %s fails to check: %s" % (name, bad[0]))
    j = d.conclusion
    tags = set(tags)
    if not j.context and judgement_is_forall_lazy((), j.goal):
        tags.add("forall-lazy")
    out.append(CorpusEntry(name, d, system, frozenset(tags)))


# -- landmark derivations -----------------------------------------------------

def deadlock_example() -> Derivation:
    """A `deadlock` cut, which never fires: the copied argument y I is built
    from an assumption, so no amount of reduction turns it into a value."""
    one = unit_type()
    use = d_lolliL(identity_derivation(), d_ax("w", one), "y", "w")
    left = d_forallL(use, "y", one)          # y : 1 |- y I : 1
    right = d_withR1(d_ax("x1", one), d_ax("x2", one),
                     identity_derivation(), "x")
    return d_cut(left, right, "x")


def copy_first_example() -> Derivation:
    """A cut of a copy against a projection: the projection cannot consume the
    pair until the copy has fired."""
    one = unit_type()
    left = d_withR1(d_ax("x1", one), d_ax("x2", one),
                    identity_derivation(), "x")
    right = d_withL(1, d_ax("p", one), "y", "p", one)
    return d_cut(left, right, "y")


def copy_first_enclosure() -> Derivation:
    """The copy-first example under an outer cut that closes its context; the
    enclosing derivation is forall-lazy and eliminates completely."""
    return d_cut(identity_derivation(), copy_first_example(), "x")


def deadlock_enclosure() -> Derivation:
    """The deadlock example under an outer cut that closes its context."""
    return d_cut(identity_derivation(), deadlock_example(), "y")


def cubic_family(max_n: int = 8):
    """[(n, derivation)] of the applied linear-additive family over 1, used to
    fit the cubic bound on elimination steps."""
    out = []
    for n in range(1, max_n + 1):
        _, d = gen_ladd(n, unit_type())
        out.append((n, gen_applied(d, identity_derivation())))
    return out


def quadratic_family(n: int) -> Derivation:
    """|- \\x_n. x_n : forall a. a -o a, by n cuts of \\w. w against the
    assumptions f_1 .. f_n of a chain of n implication-left rules, each cut
    below the ones before it.  |D| = 5n + 3, and eliminating it takes a
    number of steps quadratic in n (24, 66 and 198 for n = 4, 8 and 16),
    each cut commuting up the chain to its implication-left."""
    a = TVar("a")
    d = d_ax("x_0", a)
    for i in range(1, n + 1):
        d = d_lolliL(d_ax("x_%d" % i, a), d, "f_%d" % i, "x_%d" % (i - 1))
    for i in range(1, n + 1):
        d = d_cut(d_lolliR(d_ax("w", a), "w"), d, "f_%d" % i)
    return d_forallR(d_lolliR(d, "x_%d" % n), "a", "a")


# -- random compositions ------------------------------------------------------

def _random_compositions(rng: random.Random, pool: list, count: int):
    """Grow `pool` (closed checked derivations) by `count` random closed
    compositions; yields (name, derivation) pairs."""
    made = 0
    attempt = 0
    while made < count:
        attempt += 1
        if attempt > 50 * count:
            raise CorpusError("random composition stalled")
        op = rng.choice(("app-id", "cut-eta", "tensor", "copy-apply"))
        d = rng.choice(pool)
        goal = d.conclusion.goal
        if op == "app-id":
            # (\z. z) M
            new = d_cut(d, _apply_identity(goal), "q")
        elif op == "cut-eta":
            try:
                new = d_cut(d, eta_expansion_derivation("x", goal), "x")
            except InhabitError:
                continue
        elif op == "tensor":
            e = rng.choice(pool)
            new = d_tensor_pair(d, e)
        else:
            # copy a value under a guard of its own type, then project
            if not (is_value(d.conclusion.subject) and is_cut_free(d)
                    and is_eta_expanded(d)):
                continue
            cp = d_withR1(d_ax("x1", goal), d_ax("x2", goal), d, "x")
            sel = d_withL(rng.choice((1, 2)), d_ax("p", goal), "y", "p", goal)
            new = d_cut(d, d_cut(cp, sel, "y"), "x")
        if metrics(new).size > 400:
            continue
        made += 1
        pool.append(new)
        yield "random-%s-%d" % (op, made), new


def _apply_identity(goal):
    """q : A |- (\\z. z) q : A."""
    body = d_lolliR(d_ax("z", goal), "z")
    return d_cut(body, d_lolliL(d_ax("q", goal), d_ax("w", goal), "f", "w"), "f")


# -- the corpus ---------------------------------------------------------------

# How many seeded random compositions the corpus holds.
RANDOM_COUNT = 160
# The largest entry of `soundness_entries`.
SOUNDNESS_MAX_SIZE = 60


def build_corpus(seed: int = 0) -> list:
    """Build the full corpus; every entry has been rechecked in its system."""
    one = unit_type()
    boolean = bool_type()
    out = []

    # family members and their applied forms
    for n in range(0, 6):
        _, d = gen_ladd(n, one)
        _entry(out, "ladd-unit-%d" % n, d)
        _entry(out, "ladd-unit-%d-applied" % n,
               gen_applied(d, identity_derivation()))
    for n in range(0, 5):
        _, d = gen_ladd(n, boolean)
        tags = () if n >= 3 else ("small",)
        _entry(out, "ladd-bool-%d" % n, d, tags=tags)
        if n <= 2:
            _, vd = maximal_value(boolean)
            _entry(out, "ladd-bool-%d-applied" % n, gen_applied(d, vd),
                   tags=tags)
    for n in range(0, 6):
        _, d = gen_add(n, one)
        _entry(out, "add-unit-%d" % n, d, system="imall2")

    # enumerated inhabitants of the small closed types, plus eta expansions
    named_types = [
        ("unit", one),
        ("bool", boolean),
        ("unit*unit", tensor_type(one, one)),
        ("bool*bool", tensor_type(boolean, boolean)),
        ("unit*bool", tensor_type(one, boolean)),
        ("unit*(unit*unit)", tensor_type(one, tensor_type(one, one))),
    ]
    for tname, a in named_types:
        for i, (_, d) in enumerate(enumerate_inhabitants(a).members):
            _entry(out, "inhabitant-%s-%d" % (tname, i), d, tags=("small",))
            _entry(out, "inhabitant-%s-%d-eta" % (tname, i), eta_expand(d),
                   tags=("small",))

    # value towers over the maximal boolean value
    _, ttd = maximal_value(boolean)
    for k in range(1, 4):
        _entry(out, "value-tower-bool-%d" % k,
               value_tower_derivation(ttd, k), tags=("small",))

    # cut-classification landmarks
    _entry(out, "deadlock", deadlock_example(), tags=("deadlock",))
    _entry(out, "copy-first", copy_first_example(), tags=("copy-first",))
    _entry(out, "deadlock-enclosed", deadlock_enclosure(),
           tags=("deadlock-enclosed",))
    _entry(out, "copy-first-enclosed", copy_first_enclosure(),
           tags=("copy-first-enclosed", "small"))

    # seeded random compositions over a pool of closed derivations
    rng = random.Random(seed)
    pool = [d for e in out for d in [e.derivation]
            if e.system == LAM and not d.conclusion.context
            and metrics(d).size <= 120]
    for name, d in _random_compositions(rng, pool, RANDOM_COUNT):
        _entry(out, name, d, tags=("random",))
    return out


def lam_entries(corpus) -> list:
    return [e for e in corpus if e.system == LAM]


def soundness_entries(corpus) -> list:
    """A modest forall-lazy subset for per-step translation soundness checks:
    the translation of each snapshot is beta-eta compared, which is expensive,
    so the subset stays small."""
    return [e for e in corpus
            if "forall-lazy" in e.tags and e.size <= SOUNDNESS_MAX_SIZE]

"""Translation of checked derivations into linear λ-terms typed without
the additive rules.

Types map homomorphically with conjunction becoming the tensor macro.  The
pair-projection rules become eraser gadgets (stepwise data consumption) and
the guarded-copy rule becomes a duplicator gadget (selection among all
possible outcomes, erasing the rest), following the Mairson–Terui linear
erasure/duplication discipline.  Every translated derivation is rebuilt as a
full derivation in the multiplicative fragment, so the output re-checks.

A `GadgetLibrary` owns the closed gadgets: each eraser (those nested in a
generator too), each duplicator, the unit derivation and the two boolean
values is built once per library and then shared wherever it is needed, so
translations are DAGs (hash-consing, Filliâtre & Conchon 2006, applied to
closed gadgets).  Sharing is sound because a closed gadget has an empty
context: no assumption name of it can meet another.  Sizes stay tree sizes:
`metrics(out).size` counts a shared subderivation once per occurrence, as if
nothing were shared, and `compression_report` puts `translated_dag_size`, the
distinct nodes, beside it.

Duplicators and erasers are built by `nameless.fold`, which keeps its own
stack, so a type of any depth gets its gadgets.
"""

from __future__ import annotations

import itertools

from .nameless import fold, fresh
from .terms import term_size
from .typesys import (
    Forall, Lolli, TVar, Type, With,
    bool_type, free_type_vars, has_with, is_closed,
    match_tensor_type, open_type, subst_type, tensor_type, unit_type,
)
from .derivation import (
    CONSTRUCTORS, Derivation, context_free_type_vars, context_names, dag_size,
    metrics, d_app, d_ax, d_forallR, d_inst, d_lolliL, d_lolliR,
)
from .reduce import beta_eta_equal


class GadgetError(Exception):
    """No eraser/duplicator construction for the requested type shape."""


# -- type translation ---------------------------------------------------------

def _tensor_here(a: Type, kids: list) -> Type:
    if not kids:  # a has no &
        return a
    return tensor_type(*kids) if isinstance(a, With) else a.with_children(kids)


def translate_type(a: Type) -> Type:
    """a with every & a tensor; a itself when it has no &."""
    return fold(a, lambda t: t.children() if has_with(t) else (), _tensor_here, {})


# -- small derivation combinators --------------------------------------------

def identity_derivation() -> Derivation:
    """|- I : 1, eta-long."""
    return d_forallR(d_lolliR(d_ax("i", TVar("a")), "i"), "a", "a")


def d_tensor_pair(l: Derivation, r: Derivation) -> Derivation:
    """Combine Γ|-M:A and Δ|-N:B into Γ,Δ |- \\z. z M N : A * B."""
    a, b = l.conclusion.goal, r.conclusion.goal
    ctx = l.conclusion.context + r.conclusion.context
    g = fresh("g", free_type_vars(a) | free_type_vars(b) | context_free_type_vars(ctx))
    avoid = (context_names(ctx)
             | l.conclusion.subject_names | r.conclusion.subject_names)
    z, p, q = (fresh(n, avoid) for n in "zpq")
    inner = d_lolliL(r, d_ax(q, TVar(g)), p, q)
    outer = d_lolliL(l, inner, z, p)
    return d_forallR(d_lolliR(outer, z), g, g)


def d_let_tensor(scrut: Derivation, body: Derivation, x1: str, x2: str) -> Derivation:
    """`let M be x1*x2 in N`, i.e. M applied to \\x1.\\x2.N at the body's type."""
    r = body.conclusion.goal
    fn = d_lolliR(d_lolliR(body, x2), x1)
    return d_app(d_inst(scrut, r), fn)


def d_let_unit(scrut: Derivation, body: Derivation) -> Derivation:
    """`let M be I in N`, i.e. the unit-typed M applied to N at its type."""
    return d_app(d_inst(scrut, body.conclusion.goal), body)


# -- erasers ------------------------------------------------------------------

# The eraser walks a closed type with only positive quantifiers: quantifiers
# are instantiated at 1, each argument position is fed a canonical closed
# inhabitant (the generator), and the head atom leaves a unit behind.  The
# generator for an argument type abstracts its own arguments, consumes each
# with the matching eraser, and chains the units onto I.  Both are linear in
# the type size.  The type is closed, so the walk opens every quantifier at
# one variable, which stands for 1.

_AT_ONE = TVar("1")


def _eraser_spine(a: Type):
    """The spine of the closed type a: None for each quantifier, and for each
    argument its generator's argument types, closed by 1 for _AT_ONE."""
    while not isinstance(a, TVar):
        if isinstance(a, Forall):
            yield None
            a = open_type(a.body, _AT_ONE)
        elif isinstance(a, Lolli):
            args, g = [], a.dom
            while isinstance(g, Lolli):
                args.append(subst_type(g.dom, _AT_ONE.name, unit_type()))
                g = g.cod
            if not isinstance(g, TVar):
                raise GadgetError("generator head is not an instantiated variable"
                                  " (negative quantifier in the erased type)")
            yield args
            a = a.cod
        else:
            raise GadgetError("eraser does not support conjunction types")


def _eraser(a: Type, spine: list, lib) -> Derivation:
    """The eraser of a, whose spine (`_eraser_spine`) is given."""
    d = d_ax("z", a)
    for args in spine:
        if args is None:
            d = d_inst(d, unit_type())
            continue
        g = lib.unit()
        names = ["g_%d" % i for i in range(len(args))]
        for x, t in zip(reversed(names), reversed(args)):
            g = d_let_unit(d_app(lib.eraser(t), d_ax(x, t)), g)
        for x in reversed(names):
            g = d_lolliR(g, x)
        d = d_app(d, g)
    return d_lolliR(d, "z")


# -- duplicators --------------------------------------------------------------

BOOL = bool_type()

def _bool_values():
    """Derivations of the two eta-long boolean inhabitants; the one pairing
    its first argument first represents true."""
    def build(swap):
        l, r = d_ax("x", TVar("a")), d_ax("y", TVar("a"))
        first, second = (r, l) if swap else (l, r)
        d = d_tensor_pair(first, second)
        d = d_lolliR(d_lolliR(d, "y"), "x")
        return d_forallR(d, "a", "a")
    return (build(False), build(True))


def _tensor_tree(a: Type) -> tuple:
    """The tensor tree of a: the components (`match_tensor_type`) of a and
    of each component, by id, () at a leaf; and how many boolean leaves each
    has, by id, None when some leaf is neither 1 nor B.  One fold; the tree
    holds every component, so their ids stay theirs while it lives."""
    tree: dict = {}

    def kids(t):
        ks = tree[id(t)] = match_tensor_type(t) or ()
        return ks

    def bools(t, ks):
        if ks:
            return None if None in ks else ks[0] + ks[1]
        return 0 if t == unit_type() else 1 if t == BOOL else None

    counts: dict = {}
    fold(a, kids, bools, counts)
    return tree, counts


def _proj1(r: Type, lib) -> Derivation:
    """|- \\z. let z be x*y in (let E_r y be I in x) : (r * r) -o r."""
    e = d_app(lib.eraser(r), d_ax("y", r))
    body = d_let_unit(e, d_ax("x", r))
    return d_lolliR(d_let_tensor(d_ax("z", tensor_type(r, r)), body, "x", "y"), "z")


def _flat_select(bools: list, value, lib) -> Derivation:
    """Selection by table: a closed balanced tuple holds the outcome pair
    `value(assignment)` twice for every boolean assignment (true half
    first); each selector then takes the current table apart, keeps its
    half, and erases the other.  Each entry is built once and paired with
    itself."""
    leaves = map(value, itertools.product((True, False), repeat=len(bools)))
    level = [d_tensor_pair(v, v) for v in leaves]
    while len(level) > 1:  # pair neighbours, level by level
        level = [d_tensor_pair(l, r) for l, r in zip(level[::2], level[1::2])]
    d, = level
    for b in bools:
        s, _ = match_tensor_type(d.conclusion.goal)
        sel = d_app(d_app(d_inst(d_ax(b, BOOL), s), d_ax("u", s)), d_ax("v", s))
        pick = d_app(_proj1(s, lib), sel)
        d = d_let_tensor(d, pick, "u", "v")
    return d


_FLAT_LIMIT = 256


class GadgetLibrary:
    """The owner of the closed gadgets of a translation: erasers and
    duplicators keyed by type, the unit derivation and the two boolean
    values.  Each is built once per library and shared wherever it is
    needed, inside other gadgets too, so outputs are DAGs.  The memo lives
    and dies with the library; nothing is cached per module."""

    def __init__(self):
        self._erasers: dict = {}
        self._dups: dict = {}
        self._unit = None
        self._bools = None

    def unit(self) -> Derivation:
        """|- I : 1, eta-long."""
        if self._unit is None:
            self._unit = identity_derivation()
        return self._unit

    def bools(self) -> tuple:
        """The derivations of true and false (see `_bool_values`)."""
        if self._bools is None:
            self._bools = _bool_values()
        return self._bools

    def eraser(self, a: Type) -> Derivation:
        """Closed derivation of |- E : A -o 1 with E M normalizing to I for
        every closed normal inhabitant M; |E| is linear in |A|.  One fold
        builds the erasers that its generators apply, innermost first."""
        if a not in self._erasers:
            if not is_closed(a):
                raise GadgetError("eraser requires a closed type")

            spines: dict = {}  # id(type) -> its spine; fold keeps the types alive

            def kids(t):
                if t in self._erasers:
                    return ()
                spine = spines[id(t)] = list(_eraser_spine(t))
                return [u for args in spine if args for u in args]

            def build(t, _):
                if t not in self._erasers:
                    self._erasers[t] = _eraser(t, spines[id(t)], self)

            fold(a, kids, build, {})
        return self._erasers[a]

    def duplicator(self, a: Type) -> Derivation:
        """Closed derivation of |- D : A -o A * A with D M normalizing
        (beta-eta) to M * M for every closed normal inhabitant M.  A tensor
        with more than log2(_FLAT_LIMIT) booleans pairs the duplicators of
        its two components: one fold builds them bottom-up, left first."""
        if a not in self._dups:
            tree, bools = _tensor_tree(a)
            if bools[id(a)] is None:
                raise GadgetError("no duplicator for this type shape: %s" % (a,))

            def kids(t):
                if t in self._dups or 2 ** bools[id(t)] <= _FLAT_LIMIT:
                    return ()
                return tree[id(t)]

            def build(t, ds):
                if t not in self._dups:
                    self._dups[t] = (self._product_dup(t, *tree[id(t)], *ds) if ds
                                     else self._flat_dup(t, tree))
                return self._dups[t]

            fold(a, kids, build, {})
        return self._dups[a]

    def _flat_dup(self, a: Type, tree: dict) -> Derivation:
        # one lookup table holding every outcome pair, selected by feeding
        # the boolean leaves in; unit leaves are consumed along the way.
        # The walks go over occurrences (type, name) of a's tensor tree, each
        # its own object, since a component may occur twice.  The root is
        # named by the lambda binder; a pair names its components for the
        # let that takes it apart when the walk first reaches it, so in
        # pre-order, c_2k and c_2k+1 for the k-th pair reached; a boolean
        # leaf's name doubles as its selector variable.
        split: dict = {}  # id(occurrence) -> its components' occurrences

        def kids(o):
            k = 2 * len(split)
            ks = split[id(o)] = [(c, "c_%d" % (k + i))
                                 for i, c in enumerate(tree[id(o[0])])]
            return ks

        root = (a, "z")
        post: list = []  # every occurrence after its components
        fold(root, kids, lambda o, _: post.append(o), {})

        def value(assignment):
            # the inhabitant that assigns the boolean leaves, left to right
            picks = iter(assignment)

            def here(o, vs):
                if vs:
                    return d_tensor_pair(*vs)
                if o[0] == BOOL:
                    return self.bools()[0 if next(picks) else 1]
                return self.unit()

            return fold(root, lambda o: split[id(o)], here, {})

        d = _flat_select([v for t, v in post if t == BOOL], value, self)
        for o in post:  # the lets, innermost first
            t, v = o
            ks = split[id(o)]
            if ks:
                d = d_let_tensor(d_ax(v, t), d, ks[0][1], ks[1][1])
            elif t != BOOL:
                d = d_let_unit(d_ax(v, unit_type()), d)
        return d_lolliR(d, "z")

    def _product_dup(self, a: Type, t1: Type, t2: Type, d1: Derivation,
                     d2: Derivation) -> Derivation:
        out = d_tensor_pair(
            d_tensor_pair(d_ax("x1", t1), d_ax("y1", t2)),
            d_tensor_pair(d_ax("x2", t1), d_ax("y2", t2)))
        out = d_let_tensor(d_app(d2, d_ax("y", t2)), out, "y1", "y2")
        out = d_let_tensor(d_app(d1, d_ax("x", t1)), out, "x1", "x2")
        out = d_let_tensor(d_ax("z", a), out, "x", "y")
        return d_lolliR(out, "z")


# -- derivation translation ---------------------------------------------------

def translate_derivation(d: Derivation, lib: GadgetLibrary | None = None) -> Derivation:
    """Rebuild a checked additive derivation in the multiplicative fragment.
    The result proves Γ• |- M• : A• and re-checks; projections become
    erasers of the dropped component and guarded copies become duplicators
    applied to the shared assumption."""
    if lib is None:
        lib = GadgetLibrary()
    return fold(d, _translated_premises, lambda n, ps: _translate_node(n, ps, lib), {})


def _translated_premises(d: Derivation) -> tuple:
    # a withR1's guard is dropped, not translated
    return d.premises[:2] if d.rule == "withR1" else d.premises


def _translate_node(d: Derivation, ps: list, lib: GadgetLibrary) -> Derivation:
    """The translation of d, given the translations `ps` of its premises."""
    rule = d.rule
    params = d.params
    if rule in ("ax", "forallL"):
        x, a = params
        return CONSTRUCTORS[rule](*ps, x, translate_type(a))
    if rule in ("cut", "lolliR", "lolliL", "forallR"):
        return CONSTRUCTORS[rule](*ps, *params)
    if rule == "withR0":
        return d_tensor_pair(*ps)
    if rule in ("withL1", "withL2"):
        y, x, other = params
        drop = translate_type(other)
        z = fresh("d", d.conclusion.subject_names
                  | context_names(d.conclusion.context) | {x})
        e = d_app(lib.eraser(drop), d_ax(z, drop))
        body = d_let_unit(e, ps[0])
        x1, x2 = (x, z) if rule == "withL1" else (z, x)
        ab = translate_type(d.conclusion.lookup(y))
        return d_let_tensor(d_ax(y, ab), body, x1, x2)
    if rule == "withR1":
        x, = params
        (x1, a), = d.premises[0].conclusion.context
        (x2, _), = d.premises[1].conclusion.context
        a = translate_type(a)
        dup = lib.duplicator(a)
        pair = d_tensor_pair(*ps)
        return d_let_tensor(d_app(dup, d_ax(x, a)), pair, x1, x2)
    raise ValueError("cannot translate rule %r" % (rule,))


# -- contracts and reporting --------------------------------------------------

def check_soundness(before: Derivation, after: Derivation,
                    lib: GadgetLibrary | None = None) -> bool:
    """An elimination step from `before` to `after` must leave the two
    translations beta-eta-equal."""
    lib = lib or GadgetLibrary()
    t1 = translate_derivation(before, lib).conclusion.subject
    t2 = translate_derivation(after, lib).conclusion.subject
    return beta_eta_equal(t1, t2)


def compression_report(d: Derivation, out: Derivation) -> dict:
    """Sizes of d and of its translation out.  The derivation sizes count
    a shared subderivation once per occurrence (tree size);
    `translated_dag_size` counts each distinct node of out once."""
    return {
        "derivation_size": metrics(d).size,
        "subject_size": term_size(d.conclusion.subject),
        "translated_size": term_size(out.conclusion.subject),
        "translated_derivation_size": metrics(out).size,
        "translated_dag_size": dag_size(out),
    }

import gc
import weakref

import pytest

import linadd.translate
from linadd.cutelim import eliminate
from linadd.derivation import check, check_ok, d_app, dag_size, metrics
from linadd.frontend import (
    derivations_equal, parse_derivation, parse_type, print_derivation,
)
from linadd.families import gen_ladd
from linadd.inhabit import enumerate_inhabitants
from linadd.reduce import beta_eta_equal, normalize
from linadd.terms import alpha_equal, identity_term, term_size
from linadd.translate import (
    GadgetError, GadgetLibrary, check_soundness, compression_report,
    d_tensor_pair, identity_derivation, translate_derivation, translate_type,
)
from linadd.typesys import (
    Lolli, With, bool_type, match_tensor_type, tensor_type, type_size,
    unit_type,
)


ONE = unit_type()
B = bool_type()
I = identity_term()


def test_translate_type_maps_with_to_tensor():
    assert translate_type(With(ONE, ONE)) == tensor_type(ONE, ONE)
    assert translate_type(ONE) == ONE
    assert translate_type(B) == B
    nested = With(With(ONE, B), ONE)
    got = match_tensor_type(translate_type(nested))
    assert got is not None and match_tensor_type(got[0]) is not None


# frozen gadget sizes; the eraser stays linear in the type size
ERASER_SIZES = {"unit": 5, "bool": 29, "unit*unit": 23, "bool*bool": 71}
DUP_SIZES = {"unit": 11, "bool": 134, "unit*unit": 29, "bool*bool": 707}
TYPES = {"unit": ONE, "bool": B,
         "unit*unit": tensor_type(ONE, ONE),
         "bool*bool": tensor_type(B, B)}


def test_translate_type_of_long_chains():
    # parsed in a loop, so no bracket limit bounds their length
    a = parse_type(" -o ".join(["a"] * 3000))
    assert translate_type(a) is a  # nothing to translate without &
    w = parse_type(" -o ".join(["a & a"] * 3000))
    assert translate_type(w) == parse_type(" -o ".join(["a * a"] * 3000))


def test_deep_cut_chain_reads_back_and_translates(cut_chain):
    d = cut_chain(3000)
    assert derivations_equal(d, parse_derivation(print_derivation(d)))
    out = translate_derivation(d)
    assert check(out, "imll2") == []
    assert metrics(out).size == metrics(d).size


def test_eraser_sizes(gadgets):
    for name, a in TYPES.items():
        e = gadgets.eraser(a)
        check_ok(e, "imll2")
        assert term_size(e.conclusion.subject) == ERASER_SIZES[name]


def test_duplicator_sizes(gadgets):
    for name, a in TYPES.items():
        d = gadgets.duplicator(a)
        check_ok(d, "imll2")
        assert term_size(d.conclusion.subject) == DUP_SIZES[name]


def test_eraser_consumes_every_inhabitant(gadgets):
    for a in TYPES.values():
        e = gadgets.eraser(a)
        for _, vd in enumerate_inhabitants(a).members:
            tv = translate_derivation(vd, gadgets)
            out = normalize(d_app(e, tv).conclusion.subject).term
            assert alpha_equal(out, I)


def test_duplicator_copies_every_inhabitant(gadgets):
    for a in TYPES.values():
        dup = gadgets.duplicator(a)
        for _, vd in enumerate_inhabitants(a).members:
            tv = translate_derivation(vd, gadgets)
            got = d_app(dup, tv).conclusion.subject
            want = d_tensor_pair(tv, tv).conclusion.subject
            assert beta_eta_equal(got, want)


def test_duplicator_of_nine_booleans_pairs_its_components():
    # past 8 booleans a lookup table is too large: the duplicator pairs the
    # library's duplicators of the two components
    lib = GadgetLibrary()
    left = B
    for _ in range(7):
        left = tensor_type(left, B)
    dup = lib.duplicator(tensor_type(left, B))
    check_ok(dup, "imll2")
    nodes, todo = set(), [dup]
    while todo:
        d = todo.pop()
        if id(d) not in nodes:
            nodes.add(id(d))
            todo += d.premises
    assert id(lib.duplicator(left)) in nodes and id(lib.duplicator(B)) in nodes


def test_eraser_requires_closed_type(gadgets):
    from linadd.typesys import TVar
    with pytest.raises(GadgetError):
        gadgets.eraser(TVar("a"))


@pytest.mark.parametrize("text", ["1 & 1", "forall a. (forall b. b) -o a"],
                         ids=["conjunction-on-spine", "quantified-generator-head"])
def test_eraser_refuses_shapes_without_one(gadgets, text):
    with pytest.raises(GadgetError):
        gadgets.eraser(parse_type(text))


def test_eraser_of_a_quantified_generator_argument(gadgets):
    # the generator's argument is itself quantified, so its eraser opens it
    a = parse_type("forall a. ((forall b. b -o b) -o a) -o a")
    e = gadgets.eraser(a)
    check_ok(e, "imll2")
    (_, vd), = enumerate_inhabitants(a).members
    assert alpha_equal(normalize(d_app(e, vd).conclusion.subject).term, I)


def test_duplicator_requires_tensor_tree_of_units_and_bools(gadgets):
    with pytest.raises(GadgetError):
        gadgets.duplicator(Lolli(ONE, ONE))


def test_translated_derivations_recheck_in_imll2(corpus, gadgets):
    from linadd.corpus import soundness_entries
    for e in soundness_entries(corpus):
        out = translate_derivation(e.derivation, gadgets)
        assert check(out, "imll2") == [], e.name


def test_translation_of_cut_free_bool_value_is_itself(gadgets):
    for _, vd in enumerate_inhabitants(B).members:
        tv = translate_derivation(vd, gadgets)
        assert beta_eta_equal(tv.conclusion.subject, vd.conclusion.subject)


def test_identity_derivation_is_eta_long():
    check_ok(ID_ := identity_derivation(), "imll2")
    assert alpha_equal(ID_.conclusion.subject, I)


def test_check_soundness_across_one_elimination(gadgets):
    from linadd.corpus import copy_first_enclosure
    d = copy_first_enclosure()
    out, trace = eliminate(d, keep_derivations=True)
    for before, after in zip(trace.snapshots, trace.snapshots[1:]):
        assert check_soundness(before, after, gadgets)


def test_compression_report_keys(gadgets):
    from linadd.corpus import copy_first_enclosure
    d = copy_first_enclosure()
    out = translate_derivation(d, gadgets)
    rep = compression_report(d, out)
    assert set(rep) == {"derivation_size", "subject_size",
                        "translated_size", "translated_derivation_size",
                        "translated_dag_size"}
    assert rep["translated_size"] > 0
    assert rep["translated_dag_size"] == dag_size(out)
    assert 0 < rep["translated_dag_size"] <= rep["translated_derivation_size"]


def test_eraser_growth_is_linear(gadgets):
    ratios = [term_size(gadgets.eraser(a).conclusion.subject) / type_size(a)
              for a in TYPES.values()]
    assert max(ratios) < 3.0


# A library builds each closed gadget once and the translation shares it,
# so outputs are DAGs whose tree sizes are those of the unshared build.
@pytest.mark.parametrize("n, tree_size", [(2, 1824), (3, 16194)])
def test_translation_shares_closed_gadgets(n, tree_size):
    _, d = gen_ladd(n, B)
    out = translate_derivation(d, GadgetLibrary())
    assert metrics(out).size == tree_size
    assert check(out, "imll2") == []
    # unshared, ladd(B, 2) and ladd(B, 3) had 1,644 and 13,943 distinct
    # nodes; shared, 421 and 1,133
    assert dag_size(out) * 4 < tree_size


def test_each_closed_eraser_is_built_once(monkeypatch):
    built = []
    build = linadd.translate._eraser

    def counted(a, *rest):
        built.append(a)
        return build(a, *rest)

    monkeypatch.setattr(linadd.translate, "_eraser", counted)
    _, d = gen_ladd(3, B)
    translate_derivation(d, GadgetLibrary())
    # unshared, the 8 distinct types took 498 builds
    assert 0 < len(built) <= len(set(built))


def test_gadgets_die_with_their_library():
    lib = GadgetLibrary()
    _, d = gen_ladd(2, B)
    out = translate_derivation(d, lib)
    eraser = weakref.ref(lib.eraser(B))
    unit = weakref.ref(lib.unit())
    del lib, out
    gc.collect()
    assert eraser() is None and unit() is None

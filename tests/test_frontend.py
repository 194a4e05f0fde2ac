import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from linadd import frontend
from linadd.frontend import (
    ParseError, _recomputed, _texts,
    derivations_equal, parse_derivation, parse_term, parse_type,
    print_derivation, print_term, print_type, tokenize,
)
from linadd.derivation import (
    IMALL2, IMLL2, LAM, Derivation, Judgement, _nodes, check, d_ax, d_cut,
    d_forallL, d_forallR, d_lolliL, d_lolliR, d_withL, d_withR, dag_size, metrics,
)
from linadd.families import gen_applied, gen_ladd
from linadd.inhabit import maximal_value
from linadd.terms import (
    Abs, App, Bound, Copy, Pair, Proj, Var, alpha_equal, free_vars,
    identity_term, let_tensor, tensor_term,
)
from linadd.translate import GadgetLibrary, translate_derivation
from linadd.typesys import (
    Forall, Lolli, TBound, TVar, With, bool_type, tensor_type, unit_type,
)


# -- concrete syntax ----------------------------------------------------------

def test_parse_unit_macro():
    assert parse_type("1") == unit_type()
    assert parse_type("forall a. a -o a") == unit_type()


def test_lolli_right_associates():
    assert parse_type("a -o b -o c") == Lolli(TVar("a"), Lolli(TVar("b"), TVar("c")))


def test_tensor_parses_to_macro():
    assert parse_type("a * b") == tensor_type(TVar("a"), TVar("b"))


def test_with_parses():
    assert parse_type("a & b") == With(TVar("a"), TVar("b"))


def test_application_left_associates():
    assert alpha_equal(parse_term("x y z"), App(App(Var("x"), Var("y")), Var("z")))


def test_copy_syntax():
    t = parse_term("copy[\\x. x] y as a,b in <a, b>")
    assert alpha_equal(t, Copy(identity_term(), Var("y"), "a", "b",
                               Var("a"), Var("b")))


def test_projection_syntax():
    assert alpha_equal(parse_term("p1(x)"), Proj(1, Var("x")))
    assert alpha_equal(parse_term("p2(x)"), Proj(2, Var("x")))


def test_comments_are_skipped():
    assert alpha_equal(parse_term("; a comment\n\\x. x ; trailing\n"),
                       identity_term())


def test_parse_error_is_located():
    with pytest.raises(ParseError):
        parse_term("\\x.")
    with pytest.raises(ParseError):
        parse_type("a -o")
    with pytest.raises(ParseError):
        parse_term("x y)")


# Message, span and `expected` of the error on each malformed input.  Spans
# count from the start of the input, also inside a quoted string; an error
# in a derivation file spans the first token the reader cannot accept, and a
# file without the `(lamd 2` header fails at its first token.
_PARSE_ERRORS = [
    (parse_derivation, '(rule ax (seq () "x',
     "unterminated string", (17, 19), ()),
    (parse_term, "x $ y", "unexpected character '$'", (2, 3), ()),
    (parse_derivation, "$", "unexpected character '$'", (0, 1), ()),
    (parse_type, "a - b", "unexpected character '-'", (2, 3), ()),
    (parse_type, "a -0 b", "unexpected character '-'", (2, 3), ()),
    (parse_type, "1'", "unexpected character \"'\"", (1, 2), ()),
    (parse_type, "a\fb", "unexpected character '\\x0c'", (1, 2), ()),
    (parse_type, "\u216b", "unexpected character '\u216b'", (0, 1), ()),
    (parse_term, "x y)", "trailing input", (3, 4), ()),
    (parse_type, "a \u00e9 b", "trailing input", (2, 3), ()),
    (parse_derivation, '(rule ax x "a")',
     'missing header "(lamd 2"', (0, 1), ()),
    (parse_derivation, '(lamd 2 (rule ax x "a)"))',
     "trailing input", (21, 22), ()),
    (parse_derivation, '(lamd 2 (rule lolliR x (rule ax x "a"))',
     "unexpected 'end of input'", (39, 39), ("')'",)),
    (parse_derivation, '(lamd 2 (rule ax x "a" (seq ((x "a -o")) "x" "a")))',
     "unexpected 'end of input'", (37, 37), ("type",)),
    (parse_derivation, '(lamd 2 (rule ax x "a" (seq () "x" "a -o")))',
     "unexpected 'end of input'", (40, 40), ("type",)),
    (parse_derivation, "(lamd 2 (foo))", "unexpected 'foo'", (9, 12), ("'rule'",)),
    (parse_derivation, "", 'missing header "(lamd 2"', (0, 0), ()),
    (parse_type, "a -o", "unexpected 'end of input'", (4, 4), ("type",)),
    (parse_type, "", "unexpected 'end of input'", (0, 0), ("type",)),
    (parse_type, "forall . a", "unexpected '.'", (7, 8), ("type variable",)),
    (parse_term, "\\x.", "unexpected 'end of input'", (3, 3), ("term",)),
    (parse_term, "copy[x] y as a b", "unexpected 'b'", (15, 16), ("','",)),
    (parse_derivation, "(lamd 2 foo)", "unexpected 'foo'", (8, 11), ("'('",)),
    (parse_derivation, '(lamd 2 (rule cut y (rule ax x "a") foo))',
     "unexpected 'foo'", (36, 39), ("'('",)),
    (parse_derivation, '(lamd 2 (rule (ax) x "a"))',
     "unexpected '('", (14, 15), ("rule name",)),
    (parse_derivation, '(lamd 2 (rule ax x "a" (foo)))',
     "unexpected 'foo'", (24, 27), ("'rule'",)),
    (parse_derivation, '(lamd 2 (rule ax x "a" (seq x "x" "a")))',
     "unexpected 'x'", (28, 29), ("'('",)),
    (parse_derivation, '(lamd 2 (rule ax x "a" (seq ((x)) "x" "a")))',
     "unexpected ')'", (31, 32), ("quoted type",)),
    (parse_derivation, '(lamd 2 (rule ax x "a" (seq () "x" a)))',
     "unexpected 'a'", (35, 36), ("quoted type",)),
    (parse_term, "\\p1. x", "unexpected 'p1'", (1, 3), ("variable",)),
    (parse_type, "\u00b2x 1\u00b2", "unexpected character '\u00b2'", (0, 1), ()),
    (parse_type, "\u0663", "unexpected character '\u0663'", (0, 1), ()),
    # a copy's scrutinee is one application, not a `*` chain
    (parse_term, "copy[g] a * b as u,v in <u, v>", "unexpected '*'", (10, 11), ("'as'",)),
    # a name is defined once, and referred to only after its def ends
    (parse_derivation, "(lamd 2 (ref d0))", "undefined name 'd0'", (13, 15), ()),
    (parse_derivation,
     '(lamd 2 (rule withR (def d0 (rule ax x "a")) (def d0 (rule ax x "a"))))',
     "duplicate def 'd0'", (50, 52), ()),
    (parse_derivation, '(lamd 2 (def d0 (rule withR (rule ax x "a") (ref d0))))',
     "undefined name 'd0'", (49, 51), ()),
    (parse_derivation, '(lamd 2 (def (rule ax x "a")))', "unexpected '('", (13, 14),
     ("name",)),
    (parse_derivation, "(lamd 2 (ref))", "unexpected ')'", (12, 13), ("name",)),
    (parse_derivation, "(lamd 2 (def", "unexpected 'end of input'", (12, 12), ("name",)),
    (parse_derivation, '(lamd 2 (def d0 (rule ax x "a")',
     "unexpected 'end of input'", (31, 31), ("')'",)),
    (parse_derivation, '(lamd 2 (rule withR (def d0 (rule ax x "a")) (ref d0',
     "unexpected 'end of input'", (52, 52), ("')'",)),
    (parse_derivation, '(lamd 2 (rule withR (def d0 (rule ax x "a") (rule ax x "a")) (ref d0)))',
     "unexpected '('", (44, 45), ("')'",)),
]


@pytest.mark.parametrize("parse, src, message, span, expected", _PARSE_ERRORS)
def test_parse_error_golden(parse, src, message, span, expected):
    with pytest.raises(ParseError) as info:
        parse(src)
    e = info.value
    assert (e.message, (e.span.start, e.span.end), e.expected) == (
        message, span, expected)
    detail = " (expected %s)" % ", ".join(expected) if expected else ""
    assert str(e) == "%s at %d..%d%s" % (message, span[0], span[1], detail)


# The same for more malformed derivation files.  A rule's own error spans
# the "(" of its node.  A node without a `seq` is built by its rule's
# constructor, so the reader refuses it unless it states all of its rule's
# parameters, each of its kind.
_V2_ERRORS = [
    ('(lamd 2 (rule withL1 y x (rule ax x "a")))',
     "too few arguments for withL1", (25, 26), ()),
    ('(lamd 2 (rule ax x))', "too few arguments for ax", (18, 19), ()),
    ('(lamd 2 (rule cut x y (rule ax x "a") (rule ax y "a")))',
     "too many arguments for cut", (20, 21), ()),
    ('(lamd 2 (rule ax "x" "a"))', "unexpected string", (17, 20), ("name",)),
    ('(lamd 2 (rule ax x a))', "unexpected 'a'", (19, 20), ("quoted type",)),
    ('(lamd 2 (rule ax x "a -o"))', "unexpected 'end of input'", (24, 24),
     ("type",)),
    ('(lamd 2 (rule cut x (rule ax y "a") (rule ax x "b")))',
     "cut type mismatch on x", (8, 9), ()),
    ('(lamd 2 (rule cut x (rule ax x "a")))',
     "cut takes 2 premises, got 1", (8, 9), ()),
    ('(lamd 2 (rule foo))', "unknown rule 'foo'", (14, 17), ()),
    ('(lamd 2 (rule ax x "a")', "unexpected 'end of input'", (23, 23), ("')'",)),
    ('(lamd 2 (rule ax x "a")) x', "trailing input", (25, 26), ()),
    ('(lamd 2 (rule ax x "a") $', "unexpected character '$'", (24, 25), ()),
    ('(lamd 3 (rule ax x "a"))', "unsupported .lamd version", (6, 7), ("2",)),
]


@pytest.mark.parametrize("src, message, span, expected", _V2_ERRORS)
def test_v2_parse_error_golden(src, message, span, expected):
    test_parse_error_golden(parse_derivation, src, message, span, expected)


# The text and span of each token; a number is ASCII digits, and a word
# starts with a letter or `_`.
_TOKENS = [
    ("x' _y \u00e9_1 a1'b", [("x'", 0, 2), ("_y", 3, 5),
                         ("\u00e9_1", 6, 9), ("a1'b", 10, 14)]),
    ("x\u00b2 \u03b9", [("x\u00b2", 0, 2), ("\u03b9", 3, 4)]),
    ("x1 12 1x", [("x1", 0, 2), ("12", 3, 5), ("1", 6, 7), ("x", 7, 8)]),
    ("1\u00e9 _1", [("1", 0, 1), ("\u00e9", 1, 2), ("_1", 3, 5)]),
    ("forall p1 I", [("forall", 0, 6), ("p1", 7, 9), ("I", 10, 11)]),
    ("; c\nx ; d", [("x", 4, 5)]),
    ("a\t\r\nb", [("a", 0, 1), ("b", 4, 5)]),
    ("a-ob", [("a", 0, 1), ("-o", 1, 3), ("b", 3, 4)]),
    ("a -o-o b", [("a", 0, 1), ("-o", 2, 4), ("-o", 4, 6), ("b", 7, 8)]),
    ("(a)-o(b)", [("(", 0, 1), ("a", 1, 2), (")", 2, 3), ("-o", 3, 5),
                  ("(", 5, 6), ("b", 6, 7), (")", 7, 8)]),
    ('"s t"x', [('"s t"', 0, 5), ("x", 5, 6)]),
]


@pytest.mark.parametrize("src, tokens", _TOKENS)
def test_tokens_golden(src, tokens):
    toks = tokenize(src)
    assert toks == tokens + [("", len(src), len(src))]
    assert _texts(src) == [text for text, _, _ in toks]


# -- deep inputs --------------------------------------------------------------

DEEP = 1500


def test_deep_binder_prefix_parses():
    src = "".join("\\v%d. " % i for i in range(DEEP)) + "v0"
    t = parse_term(src)
    assert print_term(t) == src
    for i in range(DEEP):
        assert isinstance(t, Abs) and t.var == "v%d" % i
        t = t.body
    assert t == Bound(DEEP - 1)  # the outermost binder, v0


def test_deep_forall_prefix_parses():
    src = "".join("forall a%d. " % i for i in range(DEEP)) + "a0"
    a = parse_type(src)
    assert print_type(a) == src
    for i in range(DEEP):
        assert isinstance(a, Forall) and a.var == "a%d" % i
        a = a.body
    assert a == TBound(DEEP - 1)  # the outermost binder, a0


def test_long_lolli_chain_parses():
    src = " -o ".join(["a"] * (DEEP + 1))
    a = parse_type(src)
    assert print_type(a) == src
    assert a == parse_type(src)
    for _ in range(DEEP):
        assert isinstance(a, Lolli) and a.dom == TVar("a")
        a = a.cod
    assert a == TVar("a")


def test_deep_prefixes_compare_and_hash():
    src = "".join("forall a%d. " % i for i in range(DEEP)) + "a0"
    a, b = parse_type(src), parse_type(src)
    assert a == b and hash(a) == hash(b)
    assert a != parse_type(src[:-2] + "a1")
    src = "".join("\\v%d. " % i for i in range(DEEP)) + "v0"
    t, u = parse_term(src), parse_term(src)
    assert alpha_equal(t, u) and hash(t) == hash(u)
    assert not alpha_equal(t, parse_term(src[:-2] + "v1"))
    assert free_vars(t) == frozenset()
    assert free_vars(parse_term(src[:-2] + "w")) == {"w"}


def test_deep_application_spine_prints():
    src = "f " + " ".join("x%d" % i for i in range(DEEP))
    t = parse_term(src)
    assert print_term(t) == src
    assert free_vars(t) == {"f"} | {"x%d" % i for i in range(DEEP)}


def test_left_nested_with_chain_prints_each_level_once():
    # `&` associates left, so a left operand needs no brackets
    a = TVar("a")
    t = a
    for _ in range(40):
        t = With(t, a)
    src = " & ".join(["a"] * 41)
    assert print_type(t) == src
    assert parse_type(src) == t


def test_long_with_chain_round_trips():
    src = " & ".join(["a"] * 3000)
    t = parse_type(src)
    assert print_type(t) == src
    assert parse_type(print_type(t)) == t


def _deep_terms():
    """(name, 1,500-deep text, its tree) for each nested form of a term."""
    n, g, x, y = DEEP, Var("g"), Var("x"), Var("y")
    forms = {  # name -> (text, innermost tree, the tree one level out)
        "bracket": ("(" * n + "x" + ")" * n, x, lambda t: t),
        "abs-operand": ("f \\x. " * n + "x", Bound(0),
                        lambda t: App(Var("f"), Abs("x", t, True))),
        "pair": ("<" * n + "x" + ", y>" * n, x, lambda t: Pair(t, y)),
        "p1": ("p1(" * n + "x" + ")" * n, x, lambda t: Proj(1, t)),
        "let-head": ("let " * n + "x" + " be u * v in <u, v>" * n, x,
                     lambda t: let_tensor(t, "u", "v", Pair(Bound(1), Bound(0)), True)),
        "copy-guard": ("copy[" * n + "g" + "] x as u,v in <u, v>" * n, g,
                       lambda t: Copy(t, x, "u", "v", Bound(0), Bound(0), True)),
        "copy-scrutinee": ("copy[g] " * n + "x" + " as u,v in <u, v>" * n, x,
                           lambda t: Copy(g, t, "u", "v", Bound(0), Bound(0), True)),
        "copy-branch": ("copy[g] x as u,v in <" * n + "u" + ", v>" * n, Bound(0),
                        lambda t: Copy(g, x, "u", "v", t, Bound(0), True)),
    }
    for name, (src, t, out) in forms.items():
        for _ in range(n):
            t = out(t)
        yield name, src, t


def _deep_types():
    """(name, 1,500-deep text, its tree) for each nested form of a type."""
    n, a = DEEP, TVar("a")
    forms = {  # name -> (text, innermost tree, the tree k levels in, k < n)
        "bracket": ("(" * n + "a" + ")" * n, a, lambda t, k: t),
        "lolli-domain": ("(" * n + "a" + " -o a)" * n, a, lambda t, k: Lolli(t, a)),
        "forall-with-operand": (
            "b & forall b. " * n + "b", TBound(0),
            lambda t, k: With(TBound(0) if k else TVar("b"), Forall("b", t, True))),
        "forall-tensor-operand": (
            "b * forall b. " * n + "b", TBound(0),
            lambda t, k: tensor_type(TBound(0) if k else TVar("b"), Forall("b", t, True))),
    }
    for name, (src, t, out) in forms.items():
        for k in reversed(range(n)):
            t = out(t, k)
        yield name, src, t


def _deep_inputs():
    # each text alone, and quoted in a derivation file
    for name, src, t in _deep_terms():
        yield pytest.param(parse_term, src, t, id="term-" + name)
        text = '(lamd 2 (rule ax x "a" (seq ((x "a")) "%s" "a")))' % src
        yield pytest.param(lambda s: parse_derivation(s).conclusion.subject, text, t,
                           id="lamd-term-" + name)
    for name, src, a in _deep_types():
        yield pytest.param(parse_type, src, a, id="type-" + name)
        text = '(lamd 2 (rule ax x "%s"))' % src
        yield pytest.param(lambda s: parse_derivation(s).conclusion.goal, text, a,
                           id="lamd-type-" + name)


def _frames_deeper(n, fn, *args):
    return fn(*args) if n == 0 else _frames_deeper(n - 1, fn, *args)


@pytest.mark.parametrize("parse, src, tree", list(_deep_inputs()))
def test_deep_nesting_reads_whatever_the_caller(parse, src, tree):
    assert parse(src) == tree
    assert _frames_deeper(300, parse, src) == tree


def _chain_text(parse, binder, ops, operands):
    """The text of a chain of operands joined by ops under binder b, and
    the left fold of its operands, each parsed alone under b."""
    src = operands[0] + "".join(" %s %s" % p for p in zip(ops, operands[1:]))
    parts = [parse(binder + o).body for o in operands]
    out = parts[0]
    for op, p in zip(ops, parts[1:]):
        if op == "&":
            out = With(out, p)
        else:
            out = (tensor_term if parse is parse_term else tensor_type)(out, p)
    return binder + src, out


_OPERANDS = {  # (with b, without b) of each grammar
    parse_type: (["b", "(b -o a)", "(forall c. c -o b)", "(a * b)", "(a & b -o 1)"],
                 ["a", "1", "(a -o a)", "(forall c. c)", "(1 * a)"]),
    parse_term: (["b", "f b", "(\\c. c b)", "<b, y>", "p1(b) x", "(b * I)"],
                 ["x", "I", "f y", "(\\c. c)", "<x, y>", "(I * x)"]),
}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 60])
@pytest.mark.parametrize("parse", [parse_type, parse_term], ids=["type", "term"])
def test_chains_read_as_the_left_fold_of_their_operands(parse, n):
    rng = random.Random(n)
    with_b, without_b = _OPERANDS[parse]
    for _ in range(10):
        operands = [rng.choice(with_b if k in (0, n // 2, n - 1) else with_b + without_b)
                    for k in range(n)]
        ops = [rng.choice("&*") if parse is parse_type else "*" for _ in range(n - 1)]
        binder = "forall b. " if parse is parse_type else "\\b. "
        src, body = _chain_text(parse, binder, ops, operands)
        assert parse(src).body == body, src


# -- generated round trips ----------------------------------------------------

_tnames = st.sampled_from(["a", "b", "g"])


def _types():
    leaves = st.one_of(st.builds(TVar, _tnames), st.just(unit_type()))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Lolli, sub, sub),
            st.builds(With, sub, sub),
            st.builds(Forall, _tnames, sub),
            st.builds(tensor_type, sub, sub),
        ),
        max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_term_round_trip(drawn_terms, data):
    t = data.draw(drawn_terms)
    assert alpha_equal(t, parse_term(print_term(t)))


@settings(max_examples=200, deadline=None)
@given(_types())
def test_type_round_trip(a):
    assert parse_type(print_type(a)) == a


def test_printed_names_do_not_depend_on_earlier_calls():
    assert print_type(parse_type("a * b")) == "forall g. (a -o b -o g) -o g"
    assert print_type(parse_type("a * b")) == "forall g. (a -o b -o g) -o g"
    assert print_term(parse_term("x * y")) == "\\z. z x y"
    assert print_term(parse_term("x * y")) == "\\z. z x y"


def test_printer_renames_only_a_capturing_hint():
    # the tensor's hint g would capture the free g; the inner x would
    # capture the outer x, which its body uses
    assert print_type(parse_type("g * b")) == "forall g0. (g -o b -o g0) -o g0"
    t = Abs("x", Abs("x", App(Bound(0), Bound(1)), True), True)
    assert print_term(t) == "\\x. \\x0. x0 x"
    assert print_term(Abs("x", Abs("x", Var("x")))) == "\\x. \\x. x"


# Binder hints and free names drawn from one small pool, so that hints
# collide with each other, with free names and with the printer's own
# renamings; bodies refer to any enclosing binder by index.
_hints = st.sampled_from(["x", "y", "x0"])


def _nameless_term(draw, depth, fuel):
    kinds = ["var"] + ["bound"] * (depth > 0)
    if fuel > 0:
        kinds += ["abs", "app", "pair", "proj", "copy"]
    kind = draw(st.sampled_from(kinds))
    sub = lambda extra: _nameless_term(draw, depth + extra, fuel // 2)
    if kind == "var":
        return Var(draw(_hints))
    if kind == "bound":
        return Bound(draw(st.integers(0, depth - 1)))
    if kind == "abs":
        return Abs(draw(_hints), _nameless_term(draw, depth + 1, fuel - 1), True)
    if kind == "app":
        return App(sub(0), sub(0))
    if kind == "pair":
        return Pair(sub(0), sub(0))
    if kind == "proj":
        return Proj(draw(st.sampled_from([1, 2])), sub(0))
    return Copy(sub(0), sub(0), draw(_hints), draw(_hints), sub(1), sub(1), True)


def _nameless_type(draw, depth, fuel):
    kinds = ["var"] + ["bound"] * (depth > 0)
    if fuel > 0:
        kinds += ["lolli", "with", "forall"]
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return TVar(draw(_hints))
    if kind == "bound":
        return TBound(draw(st.integers(0, depth - 1)))
    if kind == "forall":
        return Forall(draw(_hints), _nameless_type(draw, depth + 1, fuel - 1), True)
    sub = [_nameless_type(draw, depth, fuel // 2) for _ in range(2)]
    return Lolli(*sub) if kind == "lolli" else With(*sub)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_printed_names_round_trip(data):
    t = _nameless_term(data.draw, 0, 16)
    text = print_term(t)
    assert parse_term(text) == t
    assert print_term(parse_term(text)) == text
    a = _nameless_type(data.draw, 0, 16)
    text = print_type(a)
    assert parse_type(text) == a
    assert print_type(parse_type(text)) == text


def _file_types(d):
    """The types that the file of d spells out: the type parameters, and the
    context and goal types of the judgements it states."""
    out = []
    for n in _nodes(d):
        out.extend(p for p in n.params if not isinstance(p, str))
        if n is d or not _recomputed(n):
            out.extend(a for _, a in n.conclusion.context)
            out.append(n.conclusion.goal)
    return out


def _params(d):
    """The stored parameters of every node of d, pre-order."""
    out, todo = [], [d]
    while todo:
        d = todo.pop()
        out.append(d.params)
        todo.extend(reversed(d.premises))
    return out


def test_derivation_round_trip_on_corpus(corpus):
    goals = [e.derivation.conclusion.goal for e in corpus]
    for k, e in enumerate(corpus):
        d = e.derivation
        text = print_derivation(d)
        back = parse_derivation(text)
        assert derivations_equal(d, back), e.name
        assert _params(back) == _params(d), e.name
        assert print_derivation(back) == text, e.name
        assert check(back, e.system) == [], e.name
        # equal type texts within the file parse to one shared object
        shared = {}
        for a in _file_types(back):
            assert shared.setdefault(print_type(a), a) is a, e.name
        # a known-bad copy fails the same way before and after the round trip
        goal = next(g for g in goals[k + 1:] + goals[:k] if not g == d.conclusion.goal)
        j = d.conclusion
        swapped = Derivation(d.rule, Judgement(j.context, j.subject, goal), d.premises)
        bad = check(swapped, e.system)
        back = parse_derivation(print_derivation(swapped))
        assert bad and check(back, e.system) == bad, e.name


# -- the token texts ----------------------------------------------------------

_CHARS = 'ax1_\'"();.\\<>,[]&*-o \t\né²Ⅻ٣$\f'
_PIECES = ["forall", "copy", "as", "in", "let", "be", "p1", "p2", "I", "-o",
           "x'", "12", "1x", "x1", "é", "²x", "; c\n", '"a -o a"']


def test_quoted_punctuation_is_not_syntax():
    # a string inside a type or term is no token of their grammar, whatever
    # it spells
    with pytest.raises(ParseError, match=r"unexpected '\(' at 0..3 \(expected type\)"):
        parse_type('"(" a )')
    with pytest.raises(ParseError, match="trailing input at 2..6"):
        parse_type('a "-o" b')


# -- binders resolved while parsing -------------------------------------------

@pytest.mark.parametrize("parse, printer, src, built", [
    (parse_term, print_term, "\\x. \\x. x", Abs("x", Abs("x", Var("x")))),
    (parse_term, print_term, "\\x. x x'", Abs("x", App(Var("x"), Var("x'")))),
    (parse_term, print_term, "(\\x. x) x", App(Abs("x", Var("x")), Var("x"))),
    (parse_type, print_type, "forall a. a -o forall a. a",
     Forall("a", Lolli(TVar("a"), Forall("a", TVar("a"))))),
    (parse_term, print_term, "copy[v] m as x,x in <x, x>",
     Copy(Var("v"), Var("m"), "x", "x", Var("x"), Var("x"))),
    (parse_term, print_term, "let m be x * x in x",
     let_tensor(Var("m"), "x", "x", Var("x"))),
    (parse_type, print_type, "forall a. forall b. a * (b -o a) -o c",
     Forall("a", Forall("b", Lolli(
         tensor_type(TVar("a"), Lolli(TVar("b"), TVar("a"))), TVar("c"))))),
    (parse_term, print_term, "\\x. \\y. x * (y z)",
     Abs("x", Abs("y", tensor_term(Var("x"), App(Var("y"), Var("z")))))),
], ids=["shadow", "primed", "free-after-scope", "forall-shadow", "copy-branches",
        "let-tensor", "tensor-type-operands", "tensor-term-operands"])
def test_binders_resolve_while_parsing(parse, printer, src, built):
    t = parse(src)
    assert t == built and hash(t) == hash(built)
    assert parse(printer(t)) == t
    assert printer(parse(printer(t))) == printer(t)


def test_shadowing_resolves_to_the_innermost_binder():
    assert parse_term("\\x. \\x. x").body.body == Bound(0)
    assert parse_term("\\x. \\y. \\x. y x").body.body.body == App(Bound(1), Bound(0))
    assert parse_type("forall a. a -o forall a. a").body.cod.body == TBound(0)
    t = parse_term("\\x. copy[v] x as x,y in <x, x>").body
    assert (t.left_branch, t.right_branch) == (Bound(0), Bound(1))
    # let m be x * y in N is m (\\x. \\y. N)
    t = parse_term("\\y. let y be x * y in x y")
    assert t.body.fun == Bound(0)
    assert t.body.arg.body.body == App(Bound(1), Bound(0))


# -- derivations --------------------------------------------------------------

_NODE = '(rule ax x "a" (seq ((x "a")) "x" "a")'


def _nested(depth):
    """A derivation text `depth` rules deep, each with one premise."""
    return "(lamd 2 %s%s)" % ((_NODE + " ") * (depth - 1) + _NODE, ")" * depth)


def test_deep_derivation_file_parses_and_checks():
    # every axiom but the last has a premise it may not have
    d = parse_derivation(_nested(5000))
    assert [v.condition for v in check(d)] == ["arity"] * 4999


def _chain(depth):
    j = Judgement((("x", TVar("a")),), Abs("y", Var("x")), Lolli(TVar("b"), TVar("a")))
    d = Derivation("ax", j, ())
    for _ in range(depth):
        d = Derivation("cut", j, (d,))
    return d


def test_deep_derivations_compare():
    d, e = _chain(5000), _chain(5000)
    assert derivations_equal(d, e)
    assert not derivations_equal(d, _chain(4999))
    bottom = e
    while bottom.premises:
        bottom = bottom.premises[0]
    object.__setattr__(bottom, "rule", "withL1")
    assert not derivations_equal(d, e)


def test_print_derivation_prints_each_term_once(corpus, monkeypatch):
    # in the chain, every node states its judgement (a cut with one premise
    # cannot be rebuilt), and all of them one subject
    ds = [max(corpus, key=lambda e: e.size).derivation, _chain(50)]
    wants = [print_derivation(d) for d in ds]
    calls = []

    def counted(m):
        calls.append(m)
        return print_term(m)

    monkeypatch.setattr(frontend, "print_term", counted)
    for d, want in zip(ds, wants):
        calls.clear()
        assert print_derivation(d) == want
        stated = [n for n in _nodes(d) if n is d or not _recomputed(n)]
        assert want.count("(seq ") == len(stated)
        assert len(calls) == len({id(n.conclusion.subject) for n in stated})
    assert len(calls) == 1 < len(stated)


_A, _B, _G = TVar("a"), TVar("b"), TVar("g")

# Derivations and their version 2 texts: every node with its rule's
# parameters, and the root alone with its judgement.
_V2_TEXTS = [
    (lambda: d_forallR(d_lolliR(d_ax("x", _G), "x"), "g", "a"),
     '(lamd 2 (rule forallR g a (seq () "\\x. x" "forall a. a -o a")\n'
     '  (rule lolliR x\n'
     '    (rule ax x "g"))))'),
    (lambda: d_lolliL(d_ax("u", _A), d_ax("w", _B), "f", "w"),
     '(lamd 2 (rule lolliL f w (seq ((u "a") (f "a -o b")) "f u" "b")\n'
     '  (rule ax u "a")\n'
     '  (rule ax w "b")))'),
    (lambda: d_withL(1, d_ax("x", _A), "y", "x", _B),
     '(lamd 2 (rule withL1 y x "b" (seq ((y "a & b")) "p1(y)" "a")\n'
     '  (rule ax x "a")))'),
    (lambda: d_forallL(d_ax("x", _A), "x", parse_type("forall b. b")),
     '(lamd 2 (rule forallL x "forall b. b" (seq ((x "forall b. b")) "x" "a")\n'
     '  (rule ax x "a")))'),
    (lambda: d_cut(d_ax("y", _A), d_withR(d_ax("x", _A), d_ax("x", _A)), "x"),
     '(lamd 2 (rule cut x (seq ((y "a")) "<y, y>" "a & a")\n'
     '  (rule ax y "a")\n'
     '  (rule withR\n'
     '    (rule ax x "a")\n'
     '    (rule ax x "a"))))'),
]


@pytest.mark.parametrize("build, text", _V2_TEXTS,
                         ids=["forallR", "lolliL", "withL1", "forallL", "cut-withR"])
def test_v2_text_golden(build, text):
    d = build()
    assert print_derivation(d) == text
    todo = [(d, parse_derivation(text))]
    while todo:
        d, back = todo.pop()
        assert back.rule == d.rule and back.params == d.params
        assert derivations_equal(d, back)
        todo.extend(zip(d.premises, back.premises))


@pytest.mark.parametrize("text, params, message", [
    ('(rule ax x (seq ((x "a")) "x" "a"))', ("x",), "expected 2 parameters, got 1"),
    ('(rule cut x y (seq ((y "a")) "y" "a") (rule ax y "a") (rule ax x "a"))',
     ("x", "y"), "expected 1 parameters, got 2"),
], ids=["ax-too-few", "cut-too-many"])
def test_node_with_seq_stores_the_arguments_it_states(text, params, message):
    # a node that states its judgement is not built by its constructor, so
    # the reader keeps its arguments and check reports their count
    d = parse_derivation("(lamd 2 %s)" % text)
    assert d.params == params
    assert [(v.path, v.condition, v.message) for v in check(d)] == [
        ((), "params", message)]


@pytest.mark.parametrize("params, message", [
    ((), "parameters not stated"),
    (("x",), "expected 2 parameters, got 1"),
    (("x", _A, "extra"), "expected 2 parameters, got 3"),
], ids=["none", "too-few", "too-many"])
def test_stored_parameters_round_trip(params, message):
    d = Derivation("ax", d_ax("x", _A).conclusion, (), params)
    back = parse_derivation(print_derivation(d))
    assert back.params == params
    assert [v.message for v in check(d)] == [message]
    for system in (LAM, IMALL2, IMLL2):
        assert check(back, system) == check(d, system), system


def test_largest_generated_family_member_reads_back():
    # its printed text reads back node for node, and as the same DAG:
    # applied, it is 16,460 rules as a tree over 106 distinct nodes
    _, d = gen_ladd(12, unit_type())
    d = gen_applied(d, maximal_value(unit_type())[1])
    back = parse_derivation(print_derivation(d))
    assert derivations_equal(d, back)
    assert (metrics(back).size, dag_size(back), dag_size(d)) == (16460, 106, 106)
    assert check(back) == []


def test_corpus_entries_read_back_as_the_same_dag(corpus):
    # each entry, and a copy whose root states another entry's goal, writes
    # each shared node once and reads back with its sharing
    goals = [e.derivation.conclusion.goal for e in corpus]
    shared = 0
    for e in corpus:
        d = e.derivation
        j = d.conclusion
        goal = next(g for g in goals if g != j.goal)
        swapped = Derivation(d.rule, Judgement(j.context, j.subject, goal), d.premises)
        for x in (d, swapped):
            text = print_derivation(x)
            back = parse_derivation(text)
            assert dag_size(back) == dag_size(x), e.name
            assert derivations_equal(x, back) and print_derivation(back) == text, e.name
        shared += dag_size(d) < metrics(d).size
    assert (len(corpus), shared) == (215, 104)


def test_translated_ladd_writes_each_shared_node_once():
    # its gadgets are shared: 1,133 distinct nodes, 16,194 as a tree
    d = translate_derivation(gen_ladd(3, bool_type())[1], GadgetLibrary())
    text = print_derivation(d)
    back = parse_derivation(text)
    assert len(text) < 1_000_000
    assert dag_size(back) == dag_size(d) == 1133 < metrics(d).size
    assert derivations_equal(d, back)


def test_deep_derivation_prints_and_reads_back():
    d = _chain(2000)
    text = print_derivation(d)
    assert text.count("(rule ") == 2001
    assert derivations_equal(d, parse_derivation(text))


def test_deep_shared_derivation_reads_back_as_a_dag():
    # each cut uses the node below it twice: 1,501 distinct nodes, each
    # but the root written as a def nested in the def of the node above it
    # and read back once, where the tree has 2 ** 1501 - 1 nodes
    j = _chain(0).conclusion
    d = Derivation("ax", j, ())
    for _ in range(DEEP):
        d = Derivation("cut", j, (d, d))
    text = print_derivation(d)
    assert text.count("(def ") == text.count("(ref ") == DEEP
    back = parse_derivation(text)
    assert dag_size(back) == DEEP + 1 and metrics(back).size == 2 ** (DEEP + 1) - 1
    assert derivations_equal(d, back) and print_derivation(back) == text


# -- fuzzing: the parsers raise ParseError and nothing else ---------------------

_PARSERS = (parse_type, parse_term, parse_derivation)


def _parses_or_fails(parse, src):
    try:
        parse(src)
    except ParseError as e:
        assert 0 <= e.span.start <= e.span.end <= len(src), (src, e)


_SYNTAX = _PIECES + ["(", ")", "<", ">", ",", ".", "\\", "[", "]", "&", "*",
                     "(rule", "(seq", "ax", "()", '((x "a"))', '"x"', '"\\x. x"',
                     "(def", "(ref", "d0", "$", '"', "'"]


@settings(max_examples=400, deadline=None)
@given(st.text(_CHARS, max_size=40)
       | st.lists(st.sampled_from(_SYNTAX), max_size=20).map(" ".join))
def test_parsers_raise_only_parse_error(src):
    for parse in _PARSERS:
        _parses_or_fails(parse, src)


def _mutants(src):
    """src with one token dropped, duplicated, or swapped with the next."""
    toks = tokenize(src)[:-1]
    for k, (_, i, j) in enumerate(toks):
        yield src[:i] + src[j:]
        yield src[:j] + " " + src[i:]
        if k + 1 < len(toks):
            _, u, v = toks[k + 1]
            yield src[:i] + src[u:v] + src[j:u] + src[i:j] + src[v:]


def test_mutated_corpus_files_raise_only_parse_error(corpus):
    for e in sorted(corpus, key=lambda e: e.size)[:12]:
        for src in _mutants(print_derivation(e.derivation)):
            _parses_or_fails(parse_derivation, src)
        j = e.derivation.conclusion
        for parse, text in ((parse_term, print_term(j.subject)),
                            (parse_type, print_type(j.goal))):
            for src in _mutants(text):
                _parses_or_fails(parse, src)


def test_truncated_input_raises_parse_error(corpus):
    # the smallest entry, and the smallest that shares a node
    smallest = sorted(corpus, key=lambda e: e.size)
    shares = next(e for e in smallest if dag_size(e.derivation) < e.size)
    for e in (smallest[0], shares):
        text = print_derivation(e.derivation)
        for n in range(len(text)):
            with pytest.raises(ParseError):
                parse_derivation(text[:n])
    for parse, src in ((parse_term, "copy[\\x. x] let m be a * b in p1(<a, b>) as x,y in <x, y>"),
                       (parse_type, "forall a. (a -o 1) & (a * a) -o a")):
        parse(src)
        for n in range(len(src)):
            _parses_or_fails(parse, src[:n])

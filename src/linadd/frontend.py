"""Concrete syntax.

Terms:   x | \\x. M | M N | <M, N> | p1(M) | p2(M)
         | copy[V] M as x,y in <P, Q>
         | I | M * N | let M be I in N | let M be x * y in N   (macros)

Types:   a | A -o B | A & B | forall a. A | 1 | A * B          (macros)

`-o` is right-associative; `&` and `*` bind tighter and associate left;
application is left-associative.  Macros are expanded while parsing and are
never represented in the AST; the printers emit the expanded form.

Derivation files (`.lamd`) are s-expressions, with terms and types embedded
as double-quoted strings in the syntax above; `;` starts a line comment in
every format.  A derivation file is version 2, the only version:

    (lamd 2 NODE)
    NODE = (rule NAME ARG... [(seq ((x "TYPE") ...) "TERM" "TYPE")] NODE...)
         | (def NAME NODE) | (ref NAME)

whose ARGs are the node's stored parameters, a name bare and a type
quoted.  A derivation is a DAG, and the writer writes a node that is a
premise more than once as `(def dK NODE)` at its first occurrence in
pre-order and `(ref dK)` at each later one, K counting first occurrences
from 0; the reader binds a def's name when its node closes and reads each
ref as that one node.  A derivation that shares no node is written as a
tree, with no def or ref.  A node without a `seq` is built by its rule's
constructor, so its ARGs must be all of its rule's parameters, of the kinds
in `derivation.PARAMS`, and it is derived (see `derivation`): neither
`check` nor the writer rebuilds it, and `derivations_equal` does not
compare the conclusions of two derived nodes with equal parameters.  A
node with a `seq` is not derived, and it stores whatever ARGs it states,
each by its form, so it may store too few, too many or one of the wrong
kind, which `check` reports.  The writer writes each node's stored
parameters, and the `seq` at the root and wherever the constructor does not
recompute the judgement exactly, so any derivation whose nodes store names
and types reads back node for node and with its sharing, well-formed or
not.  A file without the `(lamd 2` header is refused at its first token.
Rules and defs may nest to any depth: the reader keeps a stack of its open
nodes and defs, and no pass over a derivation recurses once per level.

Each parser reads its input in one pass and builds every node once.  One
regex is the lexer: its `findall` yields the token texts (a string keeps
its quotes), and the parsers walk that list by index.  No span is computed
on the way: a parser that fails names the index of the failing token, and
only then does `tokenize`, the same regex's `finditer`, locate it.  A
number is ASCII digits and a word starts with a letter or `_`; `tokenize`
raises on any other text, which no parser accepts, so that lexical error is
the error, as it would be had lexing run first.  Otherwise the error is at
the first token the reader cannot accept, and a rule's refusal at its
node's `(`.

The type and term readers keep the names of the enclosing binders,
innermost first, and emit an identifier bound there as its index, so every
binder is built over a body that already refers to it (see `nameless`) and
no body is rebound.  A `&`/`*` chain is read as a list of operands, each
shifted once past the binders of the `*` macros over it, and built once.
Each reader is a generator that `nameless.drive` runs on its own stack, so
a type or term of any depth reads, as the printers print one.

One file names the same type many times.  `parse_derivation` therefore
parses each distinct type or term text once per call, and equal texts share
one object (safe, since both are immutable and compare structurally).
`print_derivation` likewise prints each type and term object once per call.
Neither memo outlives the call.

The printers choose the names of binders: each keeps its hint unless the
hint would capture.  The three printers are one walk with its own stack,
`_print`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .nameless import drive, references, shift
from .terms import (
    Abs, App, Bound, Copy, Pair, Proj, Term, Var,
    identity_term, let_tensor, let_unit, tensor_term,
)
from .typesys import (
    Forall, Lolli, TBound, TVar, Type, With, tensor_type, unit_type,
)
from .derivation import (
    ARITY, CONSTRUCTORS, PARAMS, Derivation, Judgement, params_error, rebuild_error,
)

KEYWORDS = {"forall", "copy", "as", "in", "let", "be", "p1", "p2", "I"}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected=()):
        self.message = message
        self.span = span
        self.expected = tuple(expected)
        detail = " (expected %s)" % ", ".join(expected) if expected else ""
        super().__init__("%s at %d..%d%s" % (message, span.start, span.end, detail))


# Layout and comments, then one token: a string, a number, a word, a mark,
# the end (`\Z`, "") or any other character alone, so that none is skipped.
# A comment runs to the end of its line, so that backtracking cannot end it
# early and read a token inside it; every layout character has one reading,
# so a failed match backtracks in linear time.  A number is ASCII digits.  A
# word is a maximal run of identifier characters (str.isalnum, `_`, `'`),
# which `\w` matches exactly, and must start with a letter or `_`.  After
# trailing layout, `\Z` matches twice.
_LAYOUT = r"[ \t\r\n]*(?:;[^\n]*(?![^\n])[ \t\r\n]*)*"
_TOKEN = re.compile(_LAYOUT + r'("[^"]*"|[0-9]+|\w[\w\']*|-o|[()<>,.\\\[\]&*]|\Z|.)')


def _atom(t: str) -> bool:
    """Whether t is the text of an atom: a word or a number."""
    c = t[:1]
    return c.isalpha() or c == "_" or "0" <= c <= "9"


def _texts(src: str) -> list:
    """The text of each token of src, "" for the end; a string keeps its
    quotes.  A text that no token has (`Ⅻ`, `$`, a lone `"`) no parser
    accepts, so `_locate` finds its lexical error."""
    texts = _TOKEN.findall(src)
    if len(texts) > 1 and not texts[-2]:
        texts.pop()
    return texts


def tokenize(src: str) -> list:
    """(text, start, end) of each token of src as `_texts` reads it, up to
    and including the end.  Raises the first lexical error: an unterminated
    string, or a character that starts no token."""
    toks = []
    for m in _TOKEN.finditer(src):
        text = m[1]
        i, j = m.span(1)
        if text == '"':
            raise ParseError("unterminated string", SourceSpan(i, len(src)))
        # accept the end, an atom, a string and a mark
        if text and not (_atom(text) or text[0] in '"()<>,.\\[]&*' or text == "-o"):
            raise ParseError("unexpected character %r" % text[0], SourceSpan(i, i + 1))
        toks.append((text, i, j))
        if not text:
            return toks


class _Fail(Exception):
    """A parse failure at the token of index args[0], with args[1] its
    message (None: "unexpected <token>"; a ParseError: the error inside that
    token, a string) and args[2] what was expected."""

    def __init__(self, at: int, message=None, expected=()):
        super().__init__(at, message, expected)


def _locate(src: str, at: int, message, expected) -> ParseError:
    """The error of a parse of src that failed at its token `at`."""
    try:
        text, start, end = tokenize(src)[at]
    except ParseError as e:  # a lexical error comes first
        return e
    if isinstance(message, ParseError):  # raised inside the string
        offset = start + 1  # past the opening quote
        span = message.span
        return ParseError(message.message,
                          SourceSpan(span.start + offset, span.end + offset),
                          message.expected)
    if message is None:
        if text[:1] == '"':
            text = text[1:-1]
        message = "unexpected %r" % (text or "end of input")
    return ParseError(message, SourceSpan(start, end), expected)


def _ident(t: str) -> bool:
    c = t[:1]
    return (c.isalpha() or c == "_") and t not in KEYWORDS


def _expect(toks: list, i: int, text: str) -> int:
    """The index after toks[i], which must be text."""
    if toks[i] != text:
        raise _Fail(i, None, (repr(text),))
    return i + 1


def _name(toks: list, i: int, what: str) -> str:
    t = toks[i]
    if not _ident(t):
        raise _Fail(i, None, (what,))
    return t


def _parse_all(parse, src: str):
    """Run the reader `parse` over the whole of `src`.  A reader is a
    generator that takes the token texts, an index and the enclosing
    binders' names, innermost first, and returns a tree and the index after
    it.  It reads binder prefixes, `-o` chains and the operands of a chain
    in loops, and yields (reader, *args) for each other nested form, which
    `nameless.drive` runs on its own stack, so no depth of nesting
    recurses."""
    toks = _texts(src)
    try:
        out, i = drive(parse(toks, 0, []))
        if toks[i]:
            raise _Fail(i, "trailing input")
    except _Fail as e:
        raise _locate(src, *e.args) from None
    return out


# -- types --------------------------------------------------------------------

def _parse_type(toks: list, i: int, env: list):
    # `forall a.` prefixes and the right-nested `-o` chain, innermost last;
    # each `-o` domain is a chain of operands, joined by `&` and `*`
    wrap = []  # binder hints and `-o` domains
    while True:
        t = toks[i]
        if t == "forall":
            v = _name(toks, i + 1, "type variable")
            _expect(toks, i + 2, ".")
            env.insert(0, v)
            wrap.append(v)
            i += 3
            continue
        args, ops = [], []  # the operands and the operators between them
        while True:
            if t in env:
                a, i = TBound(env.index(t)), i + 1
            elif t == "(":
                a, i = yield (_parse_type, toks, i + 1, env)
                i = _expect(toks, i, ")")
            elif t == "1":
                a, i = unit_type(), i + 1
            elif t == "forall":
                a, i = yield (_parse_type, toks, i, env)
            elif _ident(t):
                a, i = TVar(t), i + 1
            else:
                raise _Fail(i, None, ("type",))
            args.append(a)
            t = toks[i]
            if t != "&" and t != "*":
                break
            ops.append(t)
            i += 1
            t = toks[i]
        out = args[0]
        if ops:  # shift each operand once, and build each node once
            stars = ops.count("*")  # the tensors over the first operand
            out = shift(out, stars)
            for op, a in zip(ops, args[1:]):
                a = shift(a, stars)
                out = With(out, a) if op == "&" else tensor_type(out, a, scoped=True)
                stars -= op == "*"
        if t != "-o":
            break
        wrap.append(out)
        i += 1
    for w in reversed(wrap):
        if w.__class__ is str:
            del env[0]
            out = Forall(w, out, True)
        else:
            out = Lolli(w, out)
    return out, i


def parse_type(src: str) -> Type:
    return _parse_all(_parse_type, src)


def _binder_name(hint: str, scope, names: list) -> str:
    """The name to print for a binder over `scope`, given the printed names
    of the enclosing binders, outermost first: its hint, unless that would
    capture a free name of the scope or the innermost enclosing binder so
    named that the scope refers to; then the first of base0, base1, ... that
    does neither, base being the hint without its trailing digits."""
    base = hint.rstrip("0123456789")
    v, i = hint, 0
    while v in scope._fv or (
            v in names and references(scope, names[::-1].index(v) + 1)):
        v, i = "%s%d" % (base, i), i + 1
    return v


def _print(root, parts) -> str:
    """The text of a tree: one walk with its own stack.  `parts(node,
    names)`, given the printed names of the enclosing binders, outermost
    first, returns a leaf's text, or a node's text as a tuple of strings,
    subtrees and markers of a binder's scope: (v,) opens the scope of a
    binder printed v, and None closes the innermost scope."""
    names: list = []
    out = []
    todo = [root]
    while todo:
        x = todo.pop()
        if x.__class__ is str:
            out.append(x)
        elif x is None:
            names.pop()
        elif x.__class__ is tuple:
            names.append(x[0])
        else:
            x = parts(x, names)
            if x.__class__ is str:  # a leaf
                out.append(x)
            else:
                todo += x[::-1]
    return "".join(out)


def _wrap(t, kinds) -> tuple:
    """t, in brackets when it is one of `kinds`."""
    return ("(", t, ")") if isinstance(t, kinds) else (t,)


def _type_parts(t: Type, names: list):
    kind = t.__class__
    if kind is TVar:
        return t.name
    if kind is TBound:
        return names[-1 - t.index]
    if kind is Lolli:  # right-associative
        return (*_wrap(t.dom, (Lolli, Forall, With)), " -o ", t.cod)
    if kind is Forall:
        v = _binder_name(t.var, t.body, names)
        return ("forall %s. " % v, (v,), t.body, None)
    if kind is With:  # left-associative
        return (*_wrap(t.left, (Lolli, Forall)), " & ",
                *_wrap(t.right, (Lolli, Forall, With)))
    raise TypeError(t)


def print_type(a: Type) -> str:
    return _print(a, _type_parts)


# -- terms --------------------------------------------------------------------

def _parse_term(toks: list, i: int, env: list, chain: bool = True):
    # `\x.` and `let ... in` prefixes, innermost last, then a `*` chain of
    # applications; without `chain`, one application and no prefix
    wrap = []  # binder hints and the heads of lets
    while chain:
        t = toks[i]
        if t == "\\":
            v = _name(toks, i + 1, "variable")
            _expect(toks, i + 2, ".")
            env.insert(0, v)
            wrap.append(v)
            i += 3
        elif t == "let":
            m, i = yield (_parse_term, toks, i + 1, env)
            _expect(toks, i, "be")
            if toks[i + 1] == "I":
                _expect(toks, i + 2, "in")
                wrap.append((m,))
                i += 3
                continue
            x = _name(toks, i + 1, "variable")
            _expect(toks, i + 2, "*")
            y = _name(toks, i + 3, "variable")
            _expect(toks, i + 4, "in")
            env[:0] = (y, x)
            wrap.append((m, x, y))
            i += 5
        else:
            break
    args = []  # the operands of the `*` chain
    while True:
        out = None  # the application so far
        while True:
            t = toks[i]
            if t in env:
                m, i = Bound(env.index(t)), i + 1
            elif t == "(":
                m, i = yield (_parse_term, toks, i + 1, env)
                i = _expect(toks, i, ")")
            elif t == "<":
                l, i = yield (_parse_term, toks, i + 1, env)
                _expect(toks, i, ",")
                r, i = yield (_parse_term, toks, i + 1, env)
                m, i = Pair(l, r), _expect(toks, i, ">")
            elif t == "p1" or t == "p2":
                _expect(toks, i + 1, "(")
                m, i = yield (_parse_term, toks, i + 2, env)
                m, i = Proj(1 if t == "p1" else 2, m), _expect(toks, i, ")")
            elif t == "copy":
                _expect(toks, i + 1, "[")
                guard, i = yield (_parse_term, toks, i + 2, env)
                _expect(toks, i, "]")
                scrut, i = yield (_parse_term, toks, i + 1, env, False)
                _expect(toks, i, "as")
                x = _name(toks, i + 1, "variable")
                _expect(toks, i + 2, ",")
                y = _name(toks, i + 3, "variable")
                _expect(toks, i + 4, "in")
                _expect(toks, i + 5, "<")
                env.insert(0, x)
                l, i = yield (_parse_term, toks, i + 6, env)
                env[0] = y
                _expect(toks, i, ",")
                r, i = yield (_parse_term, toks, i + 1, env)
                del env[0]
                m, i = Copy(guard, scrut, x, y, l, r, True), _expect(toks, i, ">")
            elif t == "I":
                m, i = identity_term(), i + 1
            elif t == "\\" or t == "let":
                m, i = yield (_parse_term, toks, i, env)
            elif _ident(t):
                m, i = Var(t), i + 1
            elif out is None:
                raise _Fail(i, None, ("term",))
            else:
                break
            out = m if out is None else App(out, m)
        args.append(out)
        if not chain or t != "*":
            break
        i += 1
    # as for types: each operand is shifted once, and every node built once
    out = shift(args[0], len(args) - 1)
    for k in range(1, len(args)):  # operand k lies under len(args) - k tensors
        out = tensor_term(out, shift(args[k], len(args) - k), scoped=True)
    for w in reversed(wrap):
        if w.__class__ is str:
            del env[0]
            out = Abs(w, out, True)
        elif len(w) == 1:
            out = let_unit(w[0], out)
        else:
            del env[:2]
            out = let_tensor(*w, out, scoped=True)
    return out, i


def parse_term(src: str) -> Term:
    return _parse_all(_parse_term, src)


def _term_parts(t: Term, names: list):
    kind = t.__class__
    if kind is Var:
        return t.name
    if kind is Bound:
        return names[-1 - t.index]
    if kind is App:  # left-associative
        return (*_wrap(t.fun, (Abs, Copy)), " ", *_wrap(t.arg, (Abs, App, Copy)))
    if kind is Abs:
        v = _binder_name(t.var, t.body, names)
        return ("\\%s. " % v, (v,), t.body, None)
    if kind is Pair:
        return ("<", t.left, ", ", t.right, ">")
    if kind is Proj:
        return ("p%d(" % t.index, t.body, ")")
    if kind is Copy:
        x = _binder_name(t.left_var, t.left_branch, names)
        y = _binder_name(t.right_var, t.right_branch, names)
        return ("copy[", *_wrap(t.guard, App), "] ",
                *_wrap(t.scrutinee, (Abs, App, Copy)), " as %s,%s in <" % (x, y),
                (x,), t.left_branch, None, ", ", (y,), t.right_branch, None, ">")
    raise TypeError(t)


def print_term(m: Term) -> str:
    return _print(m, _term_parts)


# -- derivations --------------------------------------------------------------

def parse_derivation(src: str) -> Derivation:
    """Parse a version 2 derivation file.  Equal type or term texts within
    the file are parsed once and share one object.  A `(def NAME NODE)`
    binds NAME to its node when the node closes, and each later
    `(ref NAME)` reads as that one object, so a file written from a DAG
    reads back as the same DAG, each shared node lexed and built once.  A
    name is defined once, and is referred to only after its def ends."""
    toks = _texts(src)
    types: dict = {}  # quoted text -> Type
    terms: dict = {}  # quoted text -> Term
    named: dict = {}  # def name -> its node, or None while the def is open
    # each unclosed form: the name of a def, or (token index, rule,
    # parameters, judgement, premises) of a node
    open_nodes: list = []

    def quoted(k, memo, parse, what):
        # the Type or Term that the quoted text toks[k] spells
        s = toks[k]
        x = memo.get(s)
        if x is None:
            if s[:1] != '"':
                raise _Fail(k, None, (what,))
            try:
                x = memo[s] = parse(s[1:-1])
            except ParseError as e:
                raise _Fail(k, e) from None
        return x

    try:
        if toks[:2] != ["(", "lamd"]:
            raise _Fail(0, 'missing header "(lamd 2"')
        if toks[2] != "2":
            raise _Fail(2, "unsupported .lamd version", ("2",))
        i = 3
        while True:
            node = i  # the item read next is a derivation
            _expect(toks, i, "(")
            form = toks[i + 1]
            d = None  # the node read, when it is a ref
            if form == "def" or form == "ref":
                name = toks[i + 2]
                if not _atom(name):
                    raise _Fail(i + 2, None, ("name",))
                if form == "def":
                    if name in named:
                        raise _Fail(i + 2, "duplicate def %r" % name)
                    named[name] = None
                    open_nodes.append(name)
                    i += 3
                    continue
                d = named.get(name)
                if d is None:
                    raise _Fail(i + 2, "undefined name %r" % name)
                i = _expect(toks, i + 3, ")")
            else:
                _expect(toks, i + 1, "rule")
                rule = toks[i + 2]
                if not _atom(rule):
                    raise _Fail(i + 2, None, ("rule name",))
                i += 3
                kinds = PARAMS.get(rule, ())
                start = i
                while _atom(toks[i]) or toks[i][:1] == '"':
                    i += 1
                seq = toks[i] == "(" and toks[i + 1] == "seq"
                args = []
                for k in range(start, i):
                    if not seq and len(args) == len(kinds):
                        raise _Fail(k, "too many arguments for %s" % rule)
                    # a node that states its judgement takes each argument by
                    # its form; one built by its constructor needs its rule's
                    # kinds
                    if (toks[k][:1] == '"') if seq else (kinds[len(args)] is Type):
                        args.append(quoted(k, types, parse_type, "quoted type"))
                    elif _atom(toks[k]):
                        args.append(toks[k])
                    else:
                        raise _Fail(k, "unexpected string", ("name",))
                if not seq and len(args) < len(kinds):
                    raise _Fail(i, "too few arguments for %s" % rule)
                j = None
                if seq:
                    _expect(toks, i + 2, "(")
                    i += 3
                    ctx = []
                    while toks[i] == "(":
                        if not _atom(toks[i + 1]):
                            raise _Fail(i + 1, None, ("name",))
                        ctx.append((toks[i + 1],
                                    quoted(i + 2, types, parse_type, "quoted type")))
                        _expect(toks, i + 3, ")")
                        i += 4
                    _expect(toks, i, ")")
                    j = Judgement(tuple(ctx), quoted(i + 1, terms, parse_term, "quoted term"),
                                  quoted(i + 2, types, parse_type, "quoted type"))
                    _expect(toks, i + 3, ")")
                    i += 4
                elif rule not in CONSTRUCTORS:
                    raise _Fail(node + 2, "unknown rule %r" % rule)
                open_nodes.append((node, rule, tuple(args), j, []))
            # close the forms that end here, innermost first: d, once built
            # or referred to, is bound by each def around it and then becomes
            # a premise of the node around those
            while d is not None or toks[i] == ")":
                if d is None:
                    at, rule, params, j, prems = open_nodes.pop()
                    if j is not None:
                        d = Derivation(rule, j, tuple(prems), params)
                    elif len(prems) != ARITY[rule]:
                        raise _Fail(at, "%s takes %d premises, got %d"
                                    % (rule, ARITY[rule], len(prems)))
                    else:
                        try:
                            d = CONSTRUCTORS[rule](*prems, *params)
                        except ValueError as e:
                            raise _Fail(at, str(e)) from None
                    i += 1
                if not open_nodes:
                    _expect(toks, i, ")")
                    if toks[i + 1]:
                        raise _Fail(i + 1, "trailing input")
                    return d
                if open_nodes[-1].__class__ is str:
                    named[open_nodes.pop()] = d
                    i = _expect(toks, i, ")")
                else:
                    open_nodes[-1][4].append(d)
                    d = None
    except _Fail as e:
        raise _locate(src, *e.args) from None


def _recomputed(d: Derivation) -> bool:
    """Whether d's constructor, over d's premises with d's parameters,
    concludes exactly d's conclusion: the same context in the same order,
    an equal subject and an equal goal."""
    return (len(d.premises) == ARITY.get(d.rule) and params_error(d) is None
            and rebuild_error(d, ordered=True) is None)


def print_derivation(d: Derivation) -> str:
    """The version 2 text of d: every node with its stored parameters, and
    with its judgement at the root and wherever `_recomputed` fails.  A node
    that is a premise more than once is written once, as `(def dK NODE)` at
    its first occurrence in pre-order and `(ref dK)` at every later one, K
    counting first occurrences from 0; a derivation that shares no node is
    written as a tree, with no def or ref."""
    printed: dict = {}  # id(type or term) -> text; d keeps every key alive
    seen: set = set()  # id(node) of each premise met
    shared: set = set()  # id(node) of each premise met twice
    todo = [d]  # one walk over the distinct nodes
    while todo:
        for p in todo.pop().premises:
            if id(p) in seen:
                shared.add(id(p))
            else:
                seen.add(id(p))
                todo.append(p)
    names: dict = {}  # id(shared node) -> its name, from its def on

    def text(x, printer):
        s = printed.get(id(x))
        if s is None:
            s = printed[id(x)] = printer(x)
        return s

    def head(d, root):
        out = ["(rule ", d.rule]
        for p in d.params:
            out.append(" " + p if p.__class__ is str else ' "%s"' % text(p, print_type))
        if root or not _recomputed(d):
            j = d.conclusion
            ctx = " ".join('(%s "%s")' % (n, text(a, print_type)) for n, a in j.context)
            out.append(' (seq (%s) "%s" "%s")' % (
                ctx, text(j.subject, print_term), text(j.goal, print_type)))
        return "".join(out)

    def parts(d, above):
        # a node opens a scope over its premises, so `above` has an entry
        # for each node above d
        depth = len(above)
        start = "\n" + "  " * depth if depth else ""
        end = ")"
        if id(d) in shared:
            name = names.get(id(d))
            if name is not None:
                return "%s(ref %s)" % (start, name)
            name = names[id(d)] = "d%d" % len(names)
            start, end = "%s(def %s " % (start, name), "))"
        return (start + head(d, not depth), ("",), *d.premises, None, end)

    return "(lamd 2 %s)" % _print(d, parts)


def derivations_equal(d1: Derivation, d2: Derivation) -> bool:
    """Whether d1 and d2 have the same rules and judgements, node for node:
    one walk with its own stack, in which a pair of nodes is visited once
    and a pair of subjects or goals is compared once, so two DAGs cost the
    node pairs they reach, not their tree sizes.

    The walk compares every pair's rules and premise counts, and pushes
    every premise pair that is not one object and was not pushed before:
    the answer is the conjunction over the pairs reached, so a pair is
    answered once however many paths reach it.  It does not compare the
    conclusions of a pair of derived nodes (see `derivation`) with equal
    parameters: their rule's constructor is pure and respects `==`, so over
    premises with equal conclusions their conclusions are equal, and the
    walk checks every premise pair before it answers True.  This is the
    argument by which `rebuild_error` trusts one derived node.  Any other
    pair, such as a parsed root, a node built with `Derivation(...)`, or two
    forallR nodes that differ only in the print hint `alpha`, has its
    conclusions compared."""
    same: set = set()  # (id, id) of subject and goal pairs found equal

    def equal(a, b):
        if a is not b and (id(a), id(b)) not in same:
            if a != b:
                return False
            same.add((id(a), id(b)))
        return True

    pushed = {(id(d1), id(d2))}  # node pairs already on the stack once
    stack = [(d1, d2)] if d1 is not d2 else []
    while stack:
        d1, d2 = stack.pop()
        if d1.rule != d2.rule or len(d1.premises) != len(d2.premises):
            return False
        if not (d1._derived and d2._derived and d1.params == d2.params):
            j1, j2 = d1.conclusion, d2.conclusion
            if not (j1.context == j2.context
                    and equal(j1.subject, j2.subject)
                    and equal(j1.goal, j2.goal)):
                return False
        for a, b in zip(d1.premises, d2.premises):
            if a is not b and (id(a), id(b)) not in pushed:
                pushed.add((id(a), id(b)))
                stack.append((a, b))
    return True


def load_term(path: str) -> Term:
    """The term in the UTF-8 file at path; a leading byte-order mark is
    dropped, as in `load_derivation`."""
    with open(path, encoding="utf-8-sig") as f:
        return parse_term(f.read())


def load_derivation(path: str) -> Derivation:
    """The derivation in the UTF-8 file at path, less a leading byte-order
    mark."""
    with open(path, encoding="utf-8-sig") as f:
        return parse_derivation(f.read())

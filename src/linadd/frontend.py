"""Concrete syntax.

Terms:   x | \\x. M | M N | <M, N> | p1(M) | p2(M)
         | copy[V] M as x,y in <P, Q>
         | I | M * N | let M be I in N | let M be x * y in N   (macros)

Types:   a | A -o B | A & B | forall a. A | 1 | A * B          (macros)

`-o` is right-associative; `&` and `*` bind tighter and associate left;
application is left-associative.  Macros are expanded while parsing and are
never represented in the AST; the printers emit the expanded form.

Derivations are s-expressions

    (rule NAME (seq ((x "TYPE") ...) "TERM" "TYPE") PREMISE ...)

with terms and types embedded as double-quoted strings in the syntax above.
`;` starts a line comment in every format.

Every judgement restates its whole context, and many rules keep the subject
of their premise, so one file names the same type and term many times.
`parse_derivation` therefore parses each distinct type or term text once per
call, and equal texts share one object (safe, since both are immutable and
compare structurally).  `print_derivation` likewise prints each Type object
once per call.  Neither memo outlives the call.

Each binder the parsers read closes its name in its body (see `nameless`).
The printers choose the names of binders: each keeps its hint unless the
hint would capture.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, partial
from itertools import takewhile
from typing import NamedTuple

from .nameless import references
from .terms import (
    Abs, App, Bound, Copy, Pair, Proj, Term, Var,
    identity_term, let_tensor, let_unit, tensor_term,
)
from .typesys import (
    Forall, Lolli, TBound, TVar, Type, With, tensor_type, unit_type,
)
from .derivation import Derivation, Judgement

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


class Token(NamedTuple):
    kind: str  # ident, keyword, punct, number, string, eof
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


# Layout and comments, then one token: a group per token class.  A comment
# runs to the end of its line, so that backtracking cannot end it early and
# read a token inside it; every layout character has one reading, so a
# failed match backtracks in linear time.  A word is a maximal run of
# identifier characters (str.isalnum, `_`, `'`), which `\w` matches exactly.
# Whether it is an identifier, a number or an error depends on its first
# character under str.isalpha/str.isdigit, which no regex class expresses,
# so the loop decides that.
_LAYOUT = r"[ \t\r\n]*(?:;[^\n]*(?![^\n])[ \t\r\n]*)*"
_SKIP = re.compile(_LAYOUT)
_TOKEN = re.compile(_LAYOUT + r"""(?:
    (?P<string>"[^"]*")
  | (?P<word>\w[\w']*)
  | (?P<punct>-o|[()<>,.\\\[\]&*])
  | (?P<eof>\Z))""", re.VERBOSE)


def tokenize(src: str) -> list:
    toks = []
    append = toks.append
    match = _TOKEN.match
    i = 0
    while True:
        m = match(src, i)
        if m is None:
            i = _SKIP.match(src, i).end()
            if src[i] == '"':
                raise ParseError("unterminated string", SourceSpan(i, len(src)))
            raise ParseError("unexpected character %r" % src[i], SourceSpan(i, i + 1))
        kind = m.lastgroup
        text = m.group(kind)
        i, j = m.span(kind)
        if kind == "word":
            c = text[0]
            if c.isalpha() or c == "_":
                kind = "keyword" if text in KEYWORDS else "ident"
            elif c.isdigit():
                # a number stops at the first non-digit; the rest of the
                # word is scanned again
                text = "".join(takewhile(str.isdigit, text))
                kind, j = "number", i + len(text)
            else:
                raise ParseError("unexpected character %r" % c, SourceSpan(i, i + 1))
        elif kind == "string":
            text = text[1:-1]
        append(Token(kind, text, i, j))
        if kind == "eof":
            return toks
        i = j


class _Cursor:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "string":
            raise ParseError("unexpected %r" % (t.text or "end of input"),
                             t.span, expected=[repr(text)])
        return self.next()

    def ident(self, what="identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError("unexpected %r" % (t.text or "end of input"),
                             t.span, expected=[what])
        return self.next()


def _parse_all(parse, src: str):
    """Run `parse` over the whole of `src`.  Binder prefixes, `-o` chains and
    s-expressions parse in loops; bracketed forms recurse, and running out of
    stack there is reported as a ParseError."""
    c = _Cursor(tokenize(src))
    try:
        out = parse(c)
    except RecursionError:
        raise ParseError("nesting too deep", c.peek().span) from None
    if c.peek().kind != "eof":
        raise ParseError("trailing input", c.peek().span)
    return out


# -- types --------------------------------------------------------------------

def _parse_type(c: _Cursor) -> Type:
    # `forall a.` prefixes and the right-nested `-o` chain, innermost last
    wrap = []
    while True:
        if c.peek().text == "forall":
            c.next()
            v = c.ident("type variable").text
            c.expect(".")
            wrap.append(partial(Forall, v))
            continue
        out = _parse_type_tensor(c)
        if c.peek().text != "-o":
            break
        c.next()
        wrap.append(partial(Lolli, out))
    for w in reversed(wrap):
        out = w(out)
    return out


def _parse_type_tensor(c: _Cursor) -> Type:
    out = _parse_type_atom(c)
    while c.peek().text in ("&", "*") and c.peek().kind == "punct":
        op = c.next().text
        rhs = _parse_type_atom(c)
        out = With(out, rhs) if op == "&" else tensor_type(out, rhs)
    return out


def _parse_type_atom(c: _Cursor) -> Type:
    t = c.peek()
    if t.text == "(":
        c.next()
        a = _parse_type(c)
        c.expect(")")
        return a
    if t.kind == "number" and t.text == "1":
        c.next()
        return unit_type()
    if t.text == "forall":
        return _parse_type(c)
    if t.kind == "ident":
        return TVar(c.next().text)
    raise ParseError("unexpected %r" % (t.text or "end of input"), t.span,
                     expected=["type"])


def parse_type(src: str) -> Type:
    return _parse_all(_parse_type, src)


def _binder_name(hint: str, scope, names: list) -> str:
    """The name to print for a binder over `scope`, appended to `names`
    (the enclosing binders', outermost first): its hint, unless that would
    capture a free name of the scope or the innermost enclosing binder so
    named that the scope refers to; then the first of base0, base1, ... that
    does neither, base being the hint without its trailing digits."""
    base = hint.rstrip("0123456789")
    v, i = hint, 0
    while v in scope._fv or (
            v in names and references(scope, names[::-1].index(v) + 1)):
        v, i = "%s%d" % (base, i), i + 1
    names.append(v)
    return v


def print_type(a: Type) -> str:
    names: list = []  # the printed names of the enclosing binders

    def atom(t):
        return "(%s)" % go(t) if isinstance(t, (Lolli, Forall, With)) else go(t)

    def go(t):
        # `forall a.` prefixes and the right-nested `-o` chain are printed
        # in a loop, as the parser reads them
        parts = []
        outer = len(names)
        while True:
            if isinstance(t, Forall):
                parts.append("forall %s. " % _binder_name(t.var, t.body, names))
                t = t.body
            elif isinstance(t, Lolli):
                parts.append("%s -o " % atom(t.dom))
                t = t.cod
            elif isinstance(t, TVar):
                parts.append(t.name)
                break
            elif isinstance(t, TBound):
                parts.append(names[-1 - t.index])
                break
            elif isinstance(t, With):
                parts.append("%s & %s" % (atom(t.left), atom(t.right)))
                break
            else:
                raise TypeError(t)
        del names[outer:]
        return "".join(parts)

    return go(a)


# -- terms --------------------------------------------------------------------

def _parse_term(c: _Cursor) -> Term:
    # `\x.` and `let ... in` prefixes, innermost last
    wrap = []
    while True:
        t = c.peek()
        if t.text == "\\":
            c.next()
            v = c.ident("variable").text
            c.expect(".")
            wrap.append(partial(Abs, v))
        elif t.text == "let":
            c.next()
            m = _parse_term_tensor(c)
            c.expect("be")
            if c.peek().text == "I":
                c.next()
                c.expect("in")
                wrap.append(partial(let_unit, m))
                continue
            x = c.ident("variable").text
            c.expect("*")
            y = c.ident("variable").text
            c.expect("in")
            wrap.append(partial(let_tensor, m, x, y))
        else:
            break
    out = _parse_term_tensor(c)
    for w in reversed(wrap):
        out = w(out)
    return out


def _parse_term_tensor(c: _Cursor) -> Term:
    out = _parse_term_app(c)
    while c.peek().kind == "punct" and c.peek().text == "*":
        c.next()
        out = tensor_term(out, _parse_term_app(c))
    return out


_ATOM_STARTS = {"(", "<", "\\"}


def _starts_atom(t: Token) -> bool:
    if t.kind == "ident":
        return True
    if t.kind == "keyword" and t.text in ("p1", "p2", "copy", "I", "let"):
        return True
    return t.kind == "punct" and t.text in _ATOM_STARTS


def _parse_term_app(c: _Cursor) -> Term:
    out = _parse_term_atom(c)
    while _starts_atom(c.peek()):
        out = App(out, _parse_term_atom(c))
    return out


def _parse_term_atom(c: _Cursor) -> Term:
    t = c.peek()
    if t.text == "(":
        c.next()
        m = _parse_term(c)
        c.expect(")")
        return m
    if t.text == "<":
        c.next()
        l = _parse_term(c)
        c.expect(",")
        r = _parse_term(c)
        c.expect(">")
        return Pair(l, r)
    if t.text in ("p1", "p2"):
        c.next()
        c.expect("(")
        m = _parse_term(c)
        c.expect(")")
        return Proj(1 if t.text == "p1" else 2, m)
    if t.text == "copy":
        c.next()
        c.expect("[")
        guard = _parse_term(c)
        c.expect("]")
        scrut = _parse_term_app(c)
        c.expect("as")
        x = c.ident("variable").text
        c.expect(",")
        y = c.ident("variable").text
        c.expect("in")
        c.expect("<")
        l = _parse_term(c)
        c.expect(",")
        r = _parse_term(c)
        c.expect(">")
        return Copy(guard, scrut, x, y, l, r)
    if t.text == "I":
        c.next()
        return identity_term()
    if t.text in ("\\", "let"):
        return _parse_term(c)
    if t.kind == "ident":
        return Var(c.next().text)
    raise ParseError("unexpected %r" % (t.text or "end of input"), t.span,
                     expected=["term"])


def parse_term(src: str) -> Term:
    return _parse_all(_parse_term, src)


def print_term(m: Term) -> str:
    names: list = []  # the printed names of the enclosing binders

    def atom(t):
        return go(t) if isinstance(t, (Var, Bound, Pair, Proj)) else "(%s)" % go(t)

    def go(t):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Bound):
            return names[-1 - t.index]
        if isinstance(t, Abs):
            # a `\x.` prefix is printed in a loop, as the parser reads it
            outer = len(names)
            binders = []
            while isinstance(t, Abs):
                binders.append("\\%s. " % _binder_name(t.var, t.body, names))
                t = t.body
            binders.append(go(t))
            del names[outer:]
            return "".join(binders)
        if isinstance(t, App):
            # so is an application spine
            parts = []
            while isinstance(t, App):
                parts.append(atom(t.arg))
                t = t.fun
            parts.append(atom(t))
            return " ".join(reversed(parts))
        if isinstance(t, Pair):
            return "<%s, %s>" % (go(t.left), go(t.right))
        if isinstance(t, Proj):
            return "p%d(%s)" % (t.index, go(t.body))
        if isinstance(t, Copy):
            guard = atom(t.guard) if isinstance(t.guard, App) else go(t.guard)
            x = _binder_name(t.left_var, t.left_branch, names)
            left = go(t.left_branch)
            names.pop()
            y = _binder_name(t.right_var, t.right_branch, names)
            right = go(t.right_branch)
            names.pop()
            return "copy[%s] %s as %s,%s in <%s, %s>" % (
                guard, atom(t.scrutinee), x, y, left, right)
        raise TypeError(t)

    return go(m)


# -- derivations --------------------------------------------------------------

class _List(list):
    """An s-expression list; `start` is the offset of its parenthesis."""

    __slots__ = ("start",)


def _parse_sexp(c: _Cursor):
    """Lists are `_List`s; atoms and strings are ("atom" | "str", text,
    offset of the token)."""
    open_lists = []  # (opening token, items so far) of each unclosed list
    while True:
        t = c.next()
        kind = t.kind
        if kind == "punct" and t.text == "(":
            items = _List()
            items.start = t.start
            open_lists.append((t, items))
            continue
        if kind == "string":
            item = ("str", t.text, t.start)
        elif kind in ("ident", "keyword", "number"):
            item = ("atom", t.text, t.start)
        elif kind == "punct" and t.text == ")" and open_lists:
            item = open_lists.pop()[1]
        elif kind == "eof" and open_lists:
            raise ParseError("unclosed parenthesis", open_lists[-1][0].span)
        else:
            raise ParseError("unexpected %r" % (t.text or "end of input"), t.span,
                             expected=["s-expression"])
        if not open_lists:
            return item
        open_lists[-1][1].append(item)


def _in_string(parse, item):
    """parse(text) of a ("str", text, start) item, with the span of a
    ParseError moved from the start of the text to the start of the file."""
    try:
        return parse(item[1])
    except ParseError as e:
        at = item[2] + 1  # past the opening quote
        raise ParseError(e.message, SourceSpan(e.span.start + at, e.span.end + at),
                         e.expected) from None


def _sexp_to_derivation(s, type_of, term_of) -> Derivation:
    def fail(msg, item):
        # the first character of the offending item
        at = item.start if isinstance(item, _List) else item[2]
        raise ParseError(msg, SourceSpan(at, at + 1))

    if not (isinstance(s, list) and len(s) >= 3 and s[0][:2] == ("atom", "rule")):
        fail("derivation must be (rule NAME (seq ...) PREMISE...)", s)
    name = s[1]
    if not (isinstance(name, tuple) and name[0] == "atom"):
        fail("rule name must be an atom", name)
    seq = s[2]
    if not (isinstance(seq, list) and len(seq) == 4 and seq[0][:2] == ("atom", "seq")):
        fail("judgement must be (seq ((x \"A\") ...) \"TERM\" \"TYPE\")", seq)
    ctx_s, term_s, type_s = seq[1], seq[2], seq[3]
    if not isinstance(ctx_s, list):
        fail("context must be a list of bindings", ctx_s)
    ctx = []
    for b in ctx_s:
        if not (isinstance(b, list) and len(b) == 2
                and isinstance(b[0], tuple) and b[0][0] == "atom"
                and isinstance(b[1], tuple) and b[1][0] == "str"):
            fail("binding must be (name \"TYPE\")", b)
        ctx.append((b[0][1], _in_string(type_of, b[1])))
    for item in (term_s, type_s):
        if not (isinstance(item, tuple) and item[0] == "str"):
            fail("subject and goal must be quoted strings", item)
    j = Judgement(tuple(ctx), _in_string(term_of, term_s),
                  _in_string(type_of, type_s))
    prems = []
    for p in s[3:]:  # a loop, not a generator: one frame per level
        prems.append(_sexp_to_derivation(p, type_of, term_of))
    return Derivation(name[1], j, tuple(prems))


def parse_derivation(src: str) -> Derivation:
    """Parse a derivation file.  Equal type or term texts within the file
    are parsed once and share one object."""
    s = _parse_all(_parse_sexp, src)
    try:
        return _sexp_to_derivation(s, cache(parse_type), cache(parse_term))
    except RecursionError:
        raise ParseError("nesting too deep", SourceSpan(0, 0)) from None


def print_derivation(d: Derivation) -> str:
    printed: dict = {}  # id(type) -> text; d keeps every key's type alive
    out: list = []

    def ty(a):
        s = printed.get(id(a))
        if s is None:
            s = printed[id(a)] = print_type(a)
        return s

    def go(d, indent):
        j = d.conclusion
        ctx = " ".join('(%s "%s")' % (n, ty(a)) for n, a in j.context)
        out.append('%s(rule %s (seq (%s) "%s" "%s")' % (
            "  " * indent, d.rule, ctx, print_term(j.subject), ty(j.goal)))
        for p in d.premises:
            out.append("\n")
            go(p, indent + 1)
        out.append(")")

    go(d, 0)
    return "".join(out)


def derivations_equal(d1: Derivation, d2: Derivation) -> bool:
    j1, j2 = d1.conclusion, d2.conclusion
    return (
        d1.rule == d2.rule
        and j1.context == j2.context
        and j1.subject == j2.subject
        and j1.goal == j2.goal
        and len(d1.premises) == len(d2.premises)
        and all(derivations_equal(p, q) for p, q in zip(d1.premises, d2.premises))
    )


def load_term(path: str) -> Term:
    with open(path) as f:
        return parse_term(f.read())


def load_derivation(path: str) -> Derivation:
    with open(path) as f:
        return parse_derivation(f.read())

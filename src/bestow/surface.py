"""Surface language: parser, desugarer and pretty-printer.

The surface syntax adds the conveniences the core calculus lacks —
``val`` bindings, ``;`` sequencing, blocks, and the ``atomic`` batching
form — and elaborates everything into core expressions:

* ``val x = e; rest``  becomes  ``(\\x:T. rest) e``  (T inferred);
* ``e; rest``          becomes  ``(\\_:T. rest) e``;
* ``t ! m`` with a literal message stays a send; any other message is
  eta-expanded to ``t ! (\\z:p. m z)``;
* ``atomic x <- t { x ! m1; ...; x ! mk }`` becomes a single send
  ``t ! (\\x:p. m1 x; ...; mk x)`` so the whole batch is delivered and run
  as one message on the target's owner.

Elaboration never rejects a program for type reasons — that is the
typechecker's job — but the ``atomic`` form has shape requirements
(non-nested, target bound to an active value, at most 64 statements, the
alias used only as a send target) enforced here via :class:`DesugarError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .syntax import (
    ActorType,
    App,
    Arrow,
    Bestow,
    Bestowed,
    Expr,
    Lambda,
    Mutate,
    NewActor,
    NewPassive,
    Passive,
    Send,
    Type,
    UnitType,
    UnitVal,
    Var,
    free_vars,
    fresh_name,
    is_active,
    render_type,
)
from .typecheck import TypeCheckError, TypeEnv, check

MAX_BATCH = 64
# Input nested deeper than this is rejected by the parser.  Every later stage
# takes a bounded number of Python frames per level of nesting, so this
# bound keeps all of them well inside the interpreter's default recursion
# limit.  Long programs are not nested: statements are parsed, desugared
# and checked in loops.
MAX_NESTING = 50

Pos = tuple[int, int]


class ParseError(Exception):
    def __init__(self, message: str, pos: Pos) -> None:
        self.pos = pos
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")


class DesugarError(Exception):
    """A malformed use of surface-only forms (currently: atomic blocks)."""

    def __init__(self, code: str, message: str, pos: Pos | None = None) -> None:
        self.code = code
        self.pos = pos
        where = f"{pos[0]}:{pos[1]}: " if pos else ""
        super().__init__(f"{where}{message} [{code}]")


# --------------------------------------------------------------------------
# Tokens
# --------------------------------------------------------------------------

_KEYWORDS = {"val", "new", "bestow", "atomic", "mutate", "p", "c", "B", "Unit"}
_PUNCT = ["<-", "->", "\\", ":", ".", ";", "!", "=", "(", ")", "{", "}"]
# Each keyword and punctuation mark is its own token kind; any other word is
# an "ident".
_KIND = {k: k for k in [*_KEYWORDS, *_PUNCT]}
# One match per token: blanks, comments and newlines, then the token.  The
# group ``nl`` ends at the last newline skipped, where the token's line
# starts.  At the end of the input, or before a character no token starts
# with, ``tok`` is unmatched.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r]+|#[^\n]*|(?P<nl>\n))*"
    r"(?P<tok>[A-Za-z_][A-Za-z0-9_']*|" + "|".join(re.escape(p) for p in _PUNCT) + r")?"
)


class Token(NamedTuple):
    kind: str  # "ident", "eof", or the punct/keyword text itself
    text: str
    pos: Pos


def tokenize(src: str) -> list[Token]:
    """The tokens of ``src``, ending in one ``eof`` token.  A position is
    (line, column), both counted from 1."""
    out: list[Token] = []
    match = _TOKEN_RE.match
    line, line_start, i = 1, 0, 0
    while True:
        m = match(src, i)
        nl = m.end("nl")
        if nl != -1:
            line += src.count("\n", i, nl)
            line_start = nl
        i = m.end()
        text = m["tok"]
        if text is None:
            break
        out.append(Token(_KIND.get(text, "ident"), text, (line, m.start("tok") - line_start + 1)))
    if i < len(src):
        raise ParseError(f"unexpected character {src[i]!r}", (line, i - line_start + 1))
    out.append(Token("eof", "", (line, i - line_start + 1)))
    return out


# --------------------------------------------------------------------------
# Surface AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SNode:
    pos: Pos | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class SVar(SNode):
    name: str


@dataclass(frozen=True)
class SUnit(SNode):
    pass


@dataclass(frozen=True)
class SNew(SNode):
    active: bool


@dataclass(frozen=True)
class SLambda(SNode):
    param: str
    param_type: Type
    body: SNode


@dataclass(frozen=True)
class SApp(SNode):
    fun: SNode
    arg: SNode


@dataclass(frozen=True)
class SSend(SNode):
    target: SNode
    msg: SNode


@dataclass(frozen=True)
class SMutate(SNode):
    target: SNode


@dataclass(frozen=True)
class SBestow(SNode):
    inner: SNode


@dataclass(frozen=True)
class SBind(SNode):
    """A ``val`` statement; only meaningful inside a block."""

    name: str
    expr: SNode


@dataclass(frozen=True)
class SBlock(SNode):
    stmts: tuple[SNode, ...]


@dataclass(frozen=True)
class SAtomic(SNode):
    alias: str
    target: SNode
    stmts: tuple[SNode, ...]


# --------------------------------------------------------------------------
# Parser (recursive descent)
# --------------------------------------------------------------------------

_ATOM_START = {"ident", "(", "{", "new"}


def _nested(parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Count each call of ``parse`` as one level of nesting."""

    def counted(self: _Parser) -> Any:
        self.deeper()
        node = parse(self)
        self.depth -= 1
        return node

    return counted


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"input is nested more than {MAX_NESTING} levels deep", self.peek().pos
            )

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            shown = t.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", t.pos)
        return self.next()

    # -- types ------------------------------------------------------------

    @_nested
    def parse_type(self) -> Type:
        left = self.parse_atom_type()
        if self.peek().kind == "->":
            self.next()
            return Arrow(left, self.parse_type())
        return left

    def parse_atom_type(self) -> Type:
        t = self.peek()
        match t.kind:
            case "p":
                self.next()
                return Passive()
            case "c":
                self.next()
                return ActorType()
            case "Unit":
                self.next()
                return UnitType()
            case "B":
                self.next()
                self.expect("(")
                self.expect("p")
                self.expect(")")
                return Bestowed()
            case "(":
                self.next()
                inner = self.parse_type()
                self.expect(")")
                return inner
        raise ParseError(f"expected a type, found {t.text!r}", t.pos)

    # -- expressions ------------------------------------------------------

    @_nested
    def parse_expr(self) -> SNode:
        t = self.peek()
        if t.kind == "\\":
            self.next()
            name = self.expect("ident").text
            self.expect(":")
            ty = self.parse_type()
            self.expect(".")
            body = self.parse_expr()
            return SLambda(name, ty, body, pos=t.pos)
        if t.kind == "atomic":
            return self.parse_atomic()
        return self.parse_send()

    def parse_atomic(self) -> SNode:
        t = self.expect("atomic")
        alias = self.expect("ident").text
        self.expect("<-")
        # Postfix level: a `{` after the target always opens the batch body,
        # never a block-argument application.
        target = self.parse_postfix()
        self.expect("{")
        stmts = self.parse_stmts(end="}")
        self.expect("}")
        return SAtomic(alias, target, tuple(stmts), pos=t.pos)

    def parse_send(self) -> SNode:
        lhs = self.parse_prefix()
        if self.peek().kind == "!":
            bang = self.next()
            rhs = self.parse_expr()
            return SSend(lhs, rhs, pos=bang.pos)
        return lhs

    def parse_prefix(self) -> SNode:
        t = self.peek()
        if t.kind == "bestow":
            self.next()
            self.deeper()
            inner = self.parse_prefix()
            self.depth -= 1
            return SBestow(inner, pos=t.pos)
        return self.parse_app()

    # Each application or mutate in a chain wraps the chain so far one level
    # deeper.

    def parse_app(self) -> SNode:
        depth = self.depth
        e = self.parse_postfix()
        while self.peek().kind in _ATOM_START:
            self.deeper()
            arg = self.parse_postfix()
            e = SApp(e, arg, pos=arg.pos or e.pos)
        self.depth = depth
        return e

    def parse_postfix(self) -> SNode:
        depth = self.depth
        e = self.parse_atom()
        while self.peek().kind == ".":
            self.deeper()
            dot = self.next()
            self.expect("mutate")
            self.expect("(")
            self.expect(")")
            e = SMutate(e, pos=dot.pos)
        self.depth = depth
        return e

    def parse_atom(self) -> SNode:
        t = self.peek()
        match t.kind:
            case "ident":
                self.next()
                return SVar(t.text, pos=t.pos)
            case "(":
                self.next()
                if self.peek().kind == ")":
                    self.next()
                    return SUnit(pos=t.pos)
                inner = self.parse_expr()
                self.expect(")")
                return inner
            case "{":
                self.next()
                stmts = self.parse_stmts(end="}")
                self.expect("}")
                return SBlock(tuple(stmts), pos=t.pos)
            case "new":
                self.next()
                k = self.peek()
                if k.kind == "p":
                    self.next()
                    return SNew(False, pos=t.pos)
                if k.kind == "c":
                    self.next()
                    return SNew(True, pos=t.pos)
                raise ParseError("expected 'p' or 'c' after 'new'", k.pos)
        shown = t.text or "end of input"
        raise ParseError(f"expected an expression, found {shown!r}", t.pos)

    # -- statements -------------------------------------------------------

    def parse_stmt(self) -> SNode:
        t = self.peek()
        if t.kind == "val":
            self.next()
            name = self.expect("ident").text
            self.expect("=")
            e = self.parse_expr()
            return SBind(name, e, pos=t.pos)
        return self.parse_expr()

    def parse_stmts(self, end: str) -> list[SNode]:
        stmts: list[SNode] = []
        while self.peek().kind != end:
            stmts.append(self.parse_stmt())
            if self.peek().kind == ";":
                self.next()
            else:
                break
        return stmts


def parse_program(src: str) -> SBlock:
    p = _Parser(tokenize(src))
    stmts = p.parse_stmts(end="eof")
    p.expect("eof")
    return SBlock(tuple(stmts))


# --------------------------------------------------------------------------
# Elaboration to the core calculus
# --------------------------------------------------------------------------


def _try_type(e: Expr, env: TypeEnv) -> Type:
    """Best-effort type for binder annotations; the final check is elsewhere.

    If the bound expression does not typecheck, fall back to Unit — the
    whole program will then fail the real typecheck with an error placed at
    the offending expression, which beats failing here with less context.
    """
    try:
        return check(env, e)
    except TypeCheckError:
        return UnitType()


def desugar(node: SNode) -> Expr:
    return _elab(node, TypeEnv(), in_atomic=False)


def compile_program(src: str) -> Expr:
    return desugar(parse_program(src))


def _elab(node: SNode, env: TypeEnv, in_atomic: bool) -> Expr:
    match node:
        case SVar(name):
            return Var(name)
        case SUnit():
            return UnitVal()
        case SNew(active):
            return NewActor() if active else NewPassive()
        case SLambda(param, param_type, body):
            core = _elab(body, env.extend(param, param_type), in_atomic)
            return Lambda(param, param_type, core)
        case SApp(fun, arg):
            return App(_elab(fun, env, in_atomic), _elab(arg, env, in_atomic))
        case SMutate(target):
            return Mutate(_elab(target, env, in_atomic))
        case SBestow(inner):
            return Bestow(_elab(inner, env, in_atomic))
        case SSend():
            return _elab_send(node, env, in_atomic)
        case SBlock(stmts):
            return _elab_block(list(stmts), env, in_atomic)
        case SBind(_, expr):
            # A trailing `val` has nothing to bind; its value stands alone.
            return _elab(expr, env, in_atomic)
        case SAtomic():
            return _elab_atomic(node, env, in_atomic)
    raise TypeError(f"not a surface node: {node!r}")


def _elab_send(node: SSend, env: TypeEnv, in_atomic: bool) -> Expr:
    target = _elab(node.target, env, in_atomic)
    msg = _elab(node.msg, env, in_atomic)
    if isinstance(msg, Lambda):
        return Send(target, msg)
    # The core only sends literal functions; wrap anything else so the
    # function position is evaluated on the receiver.
    z = fresh_name("z", free_vars(msg))
    return Send(target, Lambda(z, Passive(), App(msg, Var(z))))


def _elab_block(stmts: list[SNode], env: TypeEnv, in_atomic: bool) -> Expr:
    if not stmts:
        return UnitVal()
    links: list[tuple[str | None, Expr, Type]] = []
    for s in stmts[:-1]:
        bound = _elab(s, env, in_atomic)
        t = _try_type(bound, env)
        name = s.name if isinstance(s, SBind) else None
        links.append((name, bound, t))
        if name is not None:
            env = env.extend(name, t)
    return _sequence(links, _elab(stmts[-1], env, in_atomic))


def _sequence(links: list[tuple[str | None, Expr, Type]], last: Expr) -> Expr:
    """Chain statements ahead of ``last``: each ``(x, e, T)`` link becomes
    ``(\\x:T. rest) e``.  A link without a name is a plain statement; its
    binder is ``_seq``, renamed if ``rest`` uses that name.  The free
    variables of ``rest`` are kept up to date as the chain grows from the
    back, so no statement rescans the rest of the program."""
    body = last
    body_free = set(free_vars(last))
    for name, bound, t in reversed(links):
        if name is None:
            name = fresh_name("_seq", body_free)
        body = App(Lambda(name, t, body), bound)
        body_free.discard(name)
        body_free |= free_vars(bound)
    return body


def _elab_atomic(node: SAtomic, env: TypeEnv, in_atomic: bool) -> Expr:
    if in_atomic:
        raise DesugarError(
            "nested-atomic", "atomic blocks cannot be nested", node.pos
        )
    if not isinstance(node.target, SVar):
        raise DesugarError(
            "non-active-target",
            "atomic target must be a bound name",
            node.pos,
        )
    t = env.lookup(node.target.name)
    if t is None or not is_active(t):
        found = render_type(t) if t is not None else "nothing"
        raise DesugarError(
            "non-active-target",
            f"atomic target {node.target.name!r} must name an actor or "
            f"bestowed reference (found {found})",
            node.pos,
        )
    if len(node.stmts) > MAX_BATCH:
        raise DesugarError(
            "batch-too-large",
            f"atomic block has {len(node.stmts)} statements; the cap is {MAX_BATCH}",
            node.pos,
        )

    alias = node.alias
    parts: list[Expr] = []
    body_env = env.restrict_active().extend(alias, Passive())
    for s in node.stmts:
        # Elaboration keeps free variables, so the alias checks read the
        # core term: of the message for a send to the alias, else of the
        # whole statement.
        is_send = isinstance(s, SSend) and s.target == SVar(alias)
        checked = s.msg if is_send else s
        core = _elab(checked, body_env, in_atomic=True)
        if alias in free_vars(core):
            raise DesugarError(
                "alias-misuse",
                f"inside an atomic block, {alias!r} may only be used as "
                "the target of a send",
                checked.pos or node.pos,
            )
        if not is_send:
            raise DesugarError(
                "batch-shape",
                f"every statement in an atomic block must send to {alias!r}",
                s.pos or node.pos,
            )
        # Each `alias ! m` runs m directly on the underlying object.
        parts.append(App(core, Var(alias)))

    body: Expr = UnitVal()
    if parts:
        links = [(None, part, _try_type(part, body_env)) for part in parts[:-1]]
        body = _sequence(links, parts[-1])
    return Send(Var(node.target.name), Lambda(alias, Passive(), body))


# --------------------------------------------------------------------------
# Pretty-printing core expressions back to surface syntax
# --------------------------------------------------------------------------

_LEVEL_EXPR = 0
_LEVEL_SEND = 1
_LEVEL_PREFIX = 2
_LEVEL_APP = 3
_LEVEL_POSTFIX = 4


def format_core(e: Expr) -> str:
    """Valid surface syntax for a core expression; ``compile_program`` reads
    it back as ``e``.

    Only source forms are printable; runtime values (locations, actor ids,
    bestowed references) raise ``ValueError``, and so does an expression
    whose text would be nested more than ``MAX_NESTING`` levels deep.
    """
    return _fmt(e, _LEVEL_EXPR, _deeper(0))


def _deeper(depth: int) -> int:
    """One level below ``depth``, or ``ValueError`` past ``MAX_NESTING``."""
    if depth >= MAX_NESTING:
        raise ValueError(f"expression is nested more than {MAX_NESTING} levels deep")
    return depth + 1


def _fmt(e: Expr, level: int, depth: int) -> str:
    """``e`` printed where the parser reads precedence ``level`` at nesting
    ``depth``.

    Each level the parser counts is counted here, at the same point, so the
    text reads back exactly when no count passes ``MAX_NESTING``; that also
    bounds the recursion.  Application and mutate chains are walked in
    loops, as the parser reads them.
    """
    match e:
        case Var(name):
            return name
        case UnitVal():
            return "()"
        case NewPassive():
            return "new p"
        case NewActor():
            return "new c"
        case Lambda(param, param_type, body) if level <= _LEVEL_EXPR:
            ty = _fmt_type(param_type, _deeper(depth))
            return f"\\{param}:{ty}. {_fmt(body, _LEVEL_EXPR, _deeper(depth))}"
        case Send(target, msg) if level <= _LEVEL_SEND:
            rhs = _fmt(msg, _LEVEL_EXPR, _deeper(depth))
            return f"{_fmt(target, _LEVEL_PREFIX, depth)} ! {rhs}"
        case Bestow(inner) if level <= _LEVEL_PREFIX:
            return f"bestow {_fmt(inner, _LEVEL_PREFIX, _deeper(depth))}"
        case App() if level <= _LEVEL_APP:
            args = []
            while type(e) is App:
                args.append(e.arg)
                e = e.fun
            args.reverse()
            _deeper(depth + len(args) - 1)  # the i-th argument reads i levels deeper
            tail = (_fmt(arg, _LEVEL_POSTFIX, depth + i) for i, arg in enumerate(args, 1))
            return " ".join([_fmt(e, _LEVEL_APP, depth), *tail])
        case Mutate(target):
            n = 1
            while type(target) is Mutate:
                target, n = target.target, n + 1
            _deeper(depth + n - 1)  # the i-th `.mutate()` reads i levels deeper
            return _fmt(target, _LEVEL_POSTFIX, depth) + ".mutate()" * n
        case Lambda() | Send() | Bestow() | App():
            return f"({_fmt(e, _LEVEL_EXPR, _deeper(depth))})"
    raise ValueError(f"expression has no surface form: {e}")


def _fmt_type(t: Type, depth: int) -> str:
    """``t`` printed where the parser reads a type at nesting ``depth``."""
    match t:
        case Passive():
            return "p"
        case ActorType():
            return "c"
        case Bestowed():
            return "B(p)"
        case UnitType():
            return "Unit"
        case Arrow(Arrow() as dom, cod):
            left = _fmt_type(dom, _deeper(depth))
            return f"({left}) -> {_fmt_type(cod, _deeper(depth))}"
        case Arrow(dom, cod):
            return f"{_fmt_type(dom, depth)} -> {_fmt_type(cod, _deeper(depth))}"
    raise TypeError(f"not a type: {t!r}")

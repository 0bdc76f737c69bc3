"""Abstract syntax of the actor calculus.

Expressions, values, types, actors and heaps, together with the structural
helpers (free variables, substitution, location scanning) shared by the
typechecker, the evaluator and the well-formedness checker.

Every node renders to a one-line s-expression via ``str()``; the exact
grammar is documented in the README and is stable, so renderings can be
used as golden values and as heap canonicalization keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterator, TypeVar


# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------


class Type:
    """Base class for calculus types."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_type(self)


@dataclass(frozen=True)
class Passive(Type):
    """The (single) type of passive heap objects."""


@dataclass(frozen=True)
class ActorType(Type):
    """The (single) type of actors."""


@dataclass(frozen=True)
class Bestowed(Type):
    """The type of a bestowed passive object; always wraps the passive type."""


@dataclass(frozen=True)
class Arrow(Type):
    dom: Type
    cod: Type


@dataclass(frozen=True)
class UnitType(Type):
    pass


def is_active(t: Type) -> bool:
    """Active types are exactly the actor type and the bestowed type."""
    return isinstance(t, (ActorType, Bestowed))


# --------------------------------------------------------------------------
# Expressions and values
# --------------------------------------------------------------------------


class Expr:
    """Base class for expressions."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_expr(self)


class Value:
    """Base class for values.

    ``Lambda`` and ``UnitVal`` may appear in source programs; ``ActorId``,
    ``Loc`` and ``BestowedLoc`` arise only at run time.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return render_expr(self)


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class App(Expr):
    fun: Expr
    arg: Expr


@dataclass(frozen=True)
class Send(Expr):
    """A message send.  The message position holds a syntactic value."""

    target: Expr
    msg: Value


@dataclass(frozen=True)
class Mutate(Expr):
    target: Expr


@dataclass(frozen=True)
class NewPassive(Expr):
    pass


@dataclass(frozen=True)
class NewActor(Expr):
    pass


@dataclass(frozen=True)
class Bestow(Expr):
    inner: Expr


@dataclass(frozen=True)
class Val(Expr):
    value: Value


@dataclass(frozen=True)
class Lambda(Value):
    param: str
    param_type: Type
    body: Expr


@dataclass(frozen=True)
class UnitVal(Value):
    pass


@dataclass(frozen=True)
class ActorId(Value):
    ident: int


@dataclass(frozen=True)
class Loc(Value):
    loc: int


@dataclass(frozen=True)
class BestowedLoc(Value):
    loc: int
    owner: int


def is_value(e: Expr) -> bool:
    return isinstance(e, Val)


# --------------------------------------------------------------------------
# Traversal
# --------------------------------------------------------------------------

# The children of each compound node, left to right.  This table is the one
# description of term shape: ``walk``, ``fold`` and ``rebuild`` read it, and
# every traversal below goes through them.  Any other node is a leaf.  Both
# engines keep an explicit stack, so no term is too deep to traverse.
_CHILDREN: dict[type, tuple[str, ...]] = {
    App: ("fun", "arg"),
    Send: ("target", "msg"),
    Mutate: ("target",),
    Bestow: ("inner",),
    Val: ("value",),
    Lambda: ("body",),
}
# Children right to left, as a stack takes them: a one-child getter returns
# the child itself, a two-child getter a pair.
_PUSH = {t: attrgetter(*reversed(f)) for t, f in _CHILDREN.items()}

Term = TypeVar("Term", Expr, Value)


def walk(term: Expr | Value) -> Iterator[Expr | Value]:
    """Every node of ``term`` in preorder, left to right, descending into
    lambda bodies and messages."""
    stack = [term]
    pop, push, extend = stack.pop, stack.append, stack.extend
    children = _PUSH.get
    while stack:
        n = pop()
        yield n
        get = children(type(n))
        if get is not None:
            kids = get(n)
            if type(kids) is tuple:
                extend(kids)
            else:
                push(kids)


def fold(
    term: Expr | Value,
    leaf: Callable[[Any], Any],
    post: Callable[..., Any],
    skip: Callable[[Any], Any] | None = None,
) -> Any:
    """Fold ``term`` bottom-up.

    ``leaf(n)`` gives a leaf's result.  A compound node's children are folded
    left to right and ``post(n, a)`` or ``post(n, a, b)`` combines their
    results.  ``skip(n)``, if given, runs as each compound node is entered,
    in preorder: a result other than None stands for the node's whole
    subtree, which is then not entered.
    """
    stack: list[Any] = [term]
    out: list[Any] = []
    pop, push, extend = stack.pop, stack.append, stack.extend
    children = _PUSH.get
    while stack:
        n = pop()
        if type(n) is int:  # the children of the node below are done
            if n == 2:
                b = out.pop()
                out[-1] = post(pop(), out[-1], b)
            else:
                out[-1] = post(pop(), out[-1])
            continue
        get = children(type(n))
        if get is None:
            out.append(leaf(n))
            continue
        if skip is not None:
            r = skip(n)
            if r is not None:
                out.append(r)
                continue
        kids = get(n)
        push(n)
        if type(kids) is tuple:
            push(2)
            extend(kids)
        else:
            push(1)
            push(kids)
    return out[0]


def rebuild(n: Term, a: Any, b: Any = None) -> Term:
    """``n`` with children ``a`` (and ``b``); ``n`` itself when they are
    its own children, so unchanged subtrees stay shared.  Every compound
    node but ``Lambda`` is constructed from its children alone."""
    old = _PUSH[type(n)](n)
    if b is None:
        if a is old:
            return n
        if type(n) is Lambda:
            return Lambda(n.param, n.param_type, a)
        return type(n)(a)
    if a is old[1] and b is old[0]:
        return n
    return type(n)(a, b)


# --------------------------------------------------------------------------
# Free variables and substitution
# --------------------------------------------------------------------------

_NO_VARS: frozenset[str] = frozenset()


def _free_leaf(n: Expr | Value) -> frozenset[str]:
    return frozenset((n.name,)) if type(n) is Var else _NO_VARS


def _free_post(
    n: Expr | Value, a: frozenset[str], b: frozenset[str] = _NO_VARS
) -> frozenset[str]:
    if type(n) is Lambda:
        return a - {n.param}
    return a | b if b else a


def free_vars(term: Expr | Value) -> frozenset[str]:
    return fold(term, _free_leaf, _free_post)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A name not in ``avoid``, derived from ``base``."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def subst(term: Term, name: str, v: Value | Var) -> Term:
    """Capture-avoiding substitution of ``v`` for the free ``name`` in ``term``.

    ``v`` is a value, or a variable when a binder is renamed.  Values flowing
    through the evaluator are closed, so the capture case is unreachable in
    practice; it is handled anyway by renaming the binder.
    """
    new = v if isinstance(v, Var) else Val(v)
    new_free = free_vars(new)

    def leaf(n: Expr | Value) -> Expr | Value:
        return new if type(n) is Var and n.name == name else n

    def skip(n: Expr | Value) -> Expr | Value | None:
        if type(n) is not Lambda:
            return None
        if n.param == name:
            return n
        if n.param in new_free and name in free_vars(n.body):
            avoid = free_vars(n.body) | new_free | {name}
            q = fresh_name(n.param, avoid)
            body = subst(n.body, n.param, Var(q))
            return Lambda(q, n.param_type, subst(body, name, v))
        return None

    return fold(term, leaf, rebuild, skip)


# --------------------------------------------------------------------------
# Scanning for embedded dynamic values
# --------------------------------------------------------------------------


def contains_loc(e: Expr) -> bool:
    """True iff a bare location occurs anywhere in ``e``.

    Bestowed locations do not count: only plain ``Loc`` values betray a
    passive object.
    """
    return any(type(n) is Loc for n in walk(e))


# --------------------------------------------------------------------------
# Actors and heaps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Actor:
    """An actor quadruple: its own location, local heap, queue and expression.

    The queue holds lambda values in arrival order; delivery order is chosen
    by the evaluator (FIFO by default, LIFO under the literal-prepend mode).
    """

    this_loc: int
    local_heap: frozenset[int]
    queue: tuple[Lambda, ...]
    current: Expr


@dataclass(frozen=True)
class Heap:
    """Maps actor identifiers to actors, plus monotone fresh-name counters.

    Treated as an immutable value: all update helpers return a new heap and
    never alias mutable state, so heaps can be copied freely between a
    deterministic scheduler and the explorer.
    """

    actors: dict[int, Actor]
    next_loc: int = 0
    next_id: int = 0


# --------------------------------------------------------------------------
# Rendering (one-line s-expressions)
# --------------------------------------------------------------------------


def render_type(t: Type) -> str:
    match t:
        case Passive():
            return "p"
        case ActorType():
            return "c"
        case Bestowed():
            return "(B p)"
        case Arrow(dom, cod):
            return f"(-> {render_type(dom)} {render_type(cod)})"
        case UnitType():
            return "Unit"
    raise TypeError(f"not a type: {t!r}")


def _render_leaf(n: Expr | Value) -> str:
    t = type(n)
    if t is Var:
        return n.name
    if t is UnitVal:
        return "unit"
    if t is Loc:
        return f"(loc {n.loc})"
    if t is ActorId:
        return f"(id {n.ident})"
    if t is BestowedLoc:
        return f"(bloc {n.loc} {n.owner})"
    if t is NewPassive:
        return "(new p)"
    if t is NewActor:
        return "(new c)"
    raise TypeError(f"not a term: {n!r}")


def _render_post(n: Expr | Value, a: str, b: str = "") -> str:
    t = type(n)
    if t is Val:
        return a
    if t is App:
        return f"(app {a} {b})"
    if t is Lambda:
        return f"(fn ({n.param} : {render_type(n.param_type)}) {a})"
    if t is Send:
        return f"(send {a} {b})"
    if t is Mutate:
        return f"(mutate {a})"
    return f"(bestow {a})"


def render_expr(term: Expr | Value) -> str:
    """The one-line s-expression of an expression or a value."""
    return fold(term, _render_leaf, _render_post)


_NAME_TEMPLATE = {Loc: "(loc %d)", ActorId: "(id %d)", BestowedLoc: "(bloc %d %d)"}


def render_template(term: Expr | Value) -> tuple[str, list[Value]]:
    """``term``'s rendering split at its runtime names: a template in which
    each number of a ``Loc``, ``ActorId`` or ``BestowedLoc`` is ``%d`` (and
    any other ``%`` is doubled), and those names in preorder.  Filled with
    the names' numbers, the template gives ``render_expr(term)``; filled
    with other numbers, it renders ``term`` renamed."""
    names: list[Value] = []

    def leaf(n: Expr | Value) -> str:
        t = type(n)
        if t in _NAME_TEMPLATE:
            names.append(n)
            return _NAME_TEMPLATE[t]
        return n.name.replace("%", "%%") if t is Var else _render_leaf(n)

    def post(n: Expr | Value, a: str, b: str = "") -> str:
        if type(n) is Lambda and "%" in n.param:
            n = Lambda(n.param.replace("%", "%%"), n.param_type, n.body)
        return _render_post(n, a, b)

    return fold(term, leaf, post), names


def render_heap(h: Heap, include_counters: bool = False) -> str:
    actors = " ".join(
        f"(actor {i} {a.this_loc} (lh {' '.join(map(str, sorted(a.local_heap)))}) "
        f"(q {' '.join(map(render_expr, a.queue))}) {render_expr(a.current)})"
        for i, a in sorted(h.actors.items())
    )
    if include_counters:
        return f"(heap [{h.next_loc} {h.next_id}] {actors})"
    return f"(heap {actors})"


"""Abstract syntax of the actor calculus.

Expressions, values, types, actors and heaps, together with the structural
helpers (free variables, substitution, location scanning, the per-object
memo) shared by the typechecker, the evaluator and the well-formedness
checker.

A value (a function, unit, a location, an actor id, a bestowed reference)
is an expression: ``Value`` subclasses ``Expr``, and a value stands in any
expression position as itself.

Every node renders to a one-line s-expression via ``str()``; the exact
grammar is documented in the README and is stable, so renderings can be
used as golden values and as heap canonicalization keys.

Substituting a closed value stops at each lambda whose body holds the
name and leaves that body *pending*: the lambda keeps the old body and the
map of names to values, and ``Lambda.body`` substitutes them on its first
read and keeps the result.  Every reader goes through that attribute
(matches, ``walk`` and ``fold``, equality), so a pending lambda looks and
compares exactly like the substituted one.  A later substitution into a
lambda still pending merges its map into the kept one.  A step of a ``val``
chain thus rebuilds the few nodes above the next binder, however far away
the bound name is next used, and a run is linear in the program's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
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


class Value(Expr):
    """Base class for values, the expressions that do not reduce.

    ``Lambda`` and ``UnitVal`` may appear in source programs; ``ActorId``,
    ``Loc`` and ``BestowedLoc`` arise only at run time.
    """

    __slots__ = ()


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
    Lambda: ("body",),
}
# Children right to left, as a stack takes them: a one-child getter returns
# the child itself, a two-child getter a pair.
_PUSH = {t: attrgetter(*reversed(f)) for t, f in _CHILDREN.items()}


def walk(term: Expr) -> Iterator[Expr]:
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
    term: Expr,
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


def rebuild(n: Expr, a: Any, b: Any = None) -> Expr:
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
# Facts kept on nodes
# --------------------------------------------------------------------------

T = TypeVar("T")


def memo(obj: Any, name: str, make: Callable[[Any], T]) -> T:
    """``make(obj)``, worked out once and kept on ``obj`` as attribute ``name``.

    ``obj`` is a frozen dataclass instance, whose equality, hash and repr
    read only its fields, so the value changes none of them and goes when
    ``obj`` goes.  ``make`` is handed ``obj`` and must not keep it: a value
    that pointed back at ``obj`` would form a reference cycle, which only
    the cyclic garbage collector frees.
    """
    d = obj.__dict__
    if name not in d:
        d[name] = make(obj)
    return d[name]


# --------------------------------------------------------------------------
# Free variables and substitution
# --------------------------------------------------------------------------

# A set of variable names is an int: each name owns one bit, taken from one
# process-wide index the first time a mask mentions the name.  ``next`` on
# a count is atomic, so no two names ever share a bit; when two threads
# allocate for one name at once, ``setdefault`` keeps one of the two bits.
_BIT: dict[str, int] = {}
_NAME: dict[int, str] = {}  # bit position -> name
_positions = count()


def _bit(name: str) -> int:
    b = _BIT.get(name)
    if b is None:
        i = next(_positions)
        _NAME[i] = name
        b = _BIT.setdefault(name, 1 << i)
    return b


def _names(mask: int) -> frozenset[str]:
    out = []
    while mask:
        low = mask & -mask
        out.append(_NAME[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


# Each compound node keeps the mask of its free names in its ``__dict__``
# under this key, as ``memo`` keeps its values.  A node gets its mask only
# after its compound children have theirs, so every node below a node with
# a mask has one too.
_FREE = "_free"


def _mask_leaf(n: Expr) -> int:
    return _bit(n.name) if type(n) is Var else 0


def _mask_post(n: Expr, a: int, b: int = 0) -> int:
    m = a & ~_bit(n.param) if type(n) is Lambda else a | b
    n.__dict__[_FREE] = m
    return m


def _kept_mask(n: Expr) -> int | None:
    return n.__dict__.get(_FREE)


def _free_mask(term: Expr) -> int:
    """The mask of ``term``'s free names; each compound node is folded once,
    however many terms share it."""
    m = _kept_mask(term)
    return fold(term, _mask_leaf, _mask_post, _kept_mask) if m is None else m


def free_vars(term: Expr) -> frozenset[str]:
    return _names(_free_mask(term))


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A name not in ``avoid``, derived from ``base``."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def subst(term: Expr, name: str, v: Value | Var) -> Expr:
    """Capture-avoiding substitution of ``v`` for the free ``name`` in ``term``.

    ``v`` is a value, or a variable when a binder is renamed.  Values flowing
    through the evaluator are closed, so the capture case is unreachable in
    practice; it is handled anyway by renaming the binder.

    A subtree whose mask lacks ``name`` comes back as it is.  A closed ``v``
    stops at each lambda whose body holds ``name`` and leaves that body
    pending, to be substituted when it is first read; the work is the path
    down to the nearest such lambdas, not to every occurrence.  An open
    ``v`` goes down to every occurrence at once.
    """
    add = _bit(v.name) if type(v) is Var else _free_mask(v) if type(v) is Lambda else 0
    return _subst(term, {name: v}, _bit(name), add)


def _subst(term: Expr, sub: dict[str, Expr], dom: int, add: int) -> Expr:
    """``term`` with each free name in ``sub`` replaced by its term, all at
    once.  ``dom`` is the mask of ``sub``'s names and ``add`` that of the free
    names of its terms.

    When ``add`` is 0 the terms are closed, and each lambda whose body holds
    a name in ``sub`` comes back as a *pending* lambda (``_pend``): its body
    is the old one under ``sub``, to be substituted when it is first read.
    Otherwise ``sub`` has one entry, and a binder that would capture one of
    its term's names is renamed first.  Each node rebuilt gets its mask at
    once: the old one without ``dom``, plus ``add``.
    """
    if not _free_mask(term) & dom:
        return term
    keep = ~dom

    def leaf(n: Expr) -> Expr:
        return sub.get(n.name, n) if type(n) is Var else n

    def skip(n: Expr) -> Expr | None:
        m = n.__dict__[_FREE]
        if not m & dom:
            return n
        if type(n) is not Lambda:
            return None
        if not add:
            return _pend(n, sub, dom, m)
        p = n.param
        if not _bit(p) & add:
            return None
        q = fresh_name(p, _names(m | add))
        body = _subst(n.body, {p: Var(q)}, _bit(p), _bit(q))
        out = Lambda(q, n.param_type, _subst(body, sub, dom, add))
        out.__dict__[_FREE] = m & keep | add
        return out

    def post(n: Expr, a: Any, b: Any = None) -> Expr:
        out = rebuild(n, a, b)
        out.__dict__[_FREE] = n.__dict__[_FREE] & keep | add
        return out

    return fold(term, leaf, post, skip)


# A pending lambda keeps, under this key, a record ``(body, sub, dom)``: its
# body is ``_subst(body, sub, dom, 0)``.  ``sub`` holds closed terms and only
# names free in ``body``.  A lambda without the record keeps its body as a
# plain attribute; every lambda keeps its mask.
_PENDING = "_pending"


def _pend(n: Lambda, sub: dict[str, Expr], dom: int, m: int) -> Lambda:
    """``n``, whose mask is ``m``, under the closed substitution ``sub``,
    with its body left pending.  Substituting into a lambda that is pending
    already merges the two maps: the old one's terms are closed, so the new
    one cannot reach into them."""
    live = dom & m  # n.param is not in m
    if live != dom:
        sub = {k: t for k, t in sub.items() if _BIT[k] & live}
    pending = n.__dict__.get(_PENDING)
    if pending is None:
        pending = (n.body, sub, live)
    else:
        body, old, old_dom = pending
        pending = (body, {**sub, **old}, live | old_dom)
    out = object.__new__(Lambda)
    d = out.__dict__
    d["param"], d["param_type"] = n.param, n.param_type
    d[_PENDING], d[_FREE] = pending, m & ~dom
    return out


class _Body:
    """``Lambda.body``.  A plain lambda's body is its own attribute, which
    Python reads before this class attribute; a pending lambda's body is
    substituted here on its first read and then kept.  The body is stored
    before the record is dropped, so a racing reader finds one or the other,
    and ``setdefault`` hands every reader the same body."""

    def __get__(self, lam: Lambda | None, owner: type | None = None) -> Any:
        if lam is None:
            return self
        d = lam.__dict__
        pending = d.get(_PENDING)
        if pending is None:
            return d["body"]
        body = d.setdefault("body", _subst(*pending, 0))
        d.pop(_PENDING, None)
        return body


# Set after the dataclass is made, so that it is not taken for a default.
Lambda.body = _Body()  # type: ignore[assignment]


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


def _render_leaf(n: Expr) -> str:
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


def _render_post(n: Expr, a: str, b: str = "") -> str:
    t = type(n)
    if t is App:
        return f"(app {a} {b})"
    if t is Lambda:
        return f"(fn ({n.param} : {render_type(n.param_type)}) {a})"
    if t is Send:
        return f"(send {a} {b})"
    if t is Mutate:
        return f"(mutate {a})"
    return f"(bestow {a})"


def render_expr(term: Expr) -> str:
    """The one-line s-expression of an expression or a value."""
    return fold(term, _render_leaf, _render_post)


_NAME_TEMPLATE = {Loc: "(loc %d)", ActorId: "(id %d)", BestowedLoc: "(bloc %d %d)"}


def render_template(term: Expr) -> tuple[str, list[Value]]:
    """``term``'s rendering split at its runtime names: a template in which
    each number of a ``Loc``, ``ActorId`` or ``BestowedLoc`` is ``%d`` (and
    any other ``%`` is doubled), and those names in preorder.  Filled with
    the names' numbers, the template gives ``render_expr(term)``; filled
    with other numbers, it renders ``term`` renamed."""
    names: list[Value] = []

    def leaf(n: Expr) -> str:
        t = type(n)
        if t in _NAME_TEMPLATE:
            names.append(n)
            return _NAME_TEMPLATE[t]
        return n.name.replace("%", "%%") if t is Var else _render_leaf(n)

    def post(n: Expr, a: str, b: str = "") -> str:
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


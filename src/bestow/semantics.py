"""Small-step operational semantics.

An actor system steps by picking an actor, the scheduler choice: an idle
actor pops the next message off its queue, a busy actor reduces its current
expression by one step.  Expression reduction uses a unique evaluation
context (leftmost-innermost), so each actor's next step is deterministic;
all nondeterminism lives in the choice of actor, and a schedule is a
sequence of actor ids.  One walk down that context (``_focus``) finds the
node where an actor moves; ``step_expr`` reduces it and ``poised`` reports
what it enables, each with one match of that node against the redex shapes.

The rule that fires makes the step's one :class:`TraceEvent`, naming that
rule and, for heap-touching rules, the location involved.

Actors are isolated, so a step reads only the stepping actor (and the
fresh-name counters).  ``actor_step`` computes it as an :class:`Effect`,
which carries the event, and ``apply_effect`` applies that to a heap;
``step_system`` composes the two, and the explorer memoizes the first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .syntax import (
    Actor,
    ActorId,
    App,
    Bestow,
    BestowedLoc,
    Expr,
    Heap,
    Lambda,
    Loc,
    Mutate,
    NewActor,
    NewPassive,
    Passive,
    Send,
    UnitVal,
    Val,
    Var,
    free_vars,
    fresh_name,
    is_value,
    memo,
    rebuild,
    render_expr,
    subst,
)

DEFAULT_FUEL = 100_000


@dataclass(frozen=True)
class TraceEvent:
    """One step of the system; its index is its position in the trace.

    ``rule`` is one of: actor-msg, send-actor, send-bestowed, apply, mutate,
    bestow, new-passive, new-actor.  ``touched_loc`` is set for the three
    rules that read or create a specific location (mutate, bestow,
    new-passive) and is ``None`` otherwise.
    """

    actor: int
    rule: str
    touched_loc: int | None = None

    @property
    def kind(self) -> str:
        """How the actor moved: only ``actor-msg`` pops, every other rule steps."""
        return "pop" if self.rule == "actor-msg" else "step"


class StuckError(Exception):
    """The selected actor's expression has no redex and is not a value."""

    def __init__(self, actor: int, expr: Expr, message: str) -> None:
        self.actor = actor
        self.expr = expr
        super().__init__(f"actor {actor} stuck: {message} (in {render_expr(expr)})")


class SendToNonActiveError(StuckError):
    """A send whose target evaluated to something that has no queue."""


class ScheduleError(Exception):
    """A scripted schedule asked for an actor that cannot move."""


class FuelExhaustedError(Exception):
    """Ran out of fuel; carries the partial heap and trace."""

    def __init__(self, heap: Heap, trace: list[TraceEvent]) -> None:
        self.heap = heap
        self.trace = trace
        super().__init__(f"fuel exhausted after {len(trace)} steps")


# --------------------------------------------------------------------------
# Evaluation contexts
# --------------------------------------------------------------------------


def _focus(e: Expr) -> tuple[list[Expr], Expr]:
    """Follow the evaluation context down from ``e``.

    Contexts descend into the function position of an application first,
    then the argument; into send targets, mutate targets and bestow
    arguments.  Message positions are values and are never reduced.  The
    descent stops at the first node whose hole is a value or that has no
    hole: the redex, since every redex has only values in its holes, or
    the node where the actor is stuck.  Returns the context's nodes,
    outermost first, and that node.
    """
    path: list[Expr] = []
    while True:
        t = type(e)
        if t is App:
            hole = e.fun if type(e.fun) is not Val else e.arg
        elif t is Send or t is Mutate:
            hole = e.target
        elif t is Bestow:
            hole = e.inner
        else:
            return path, e
        if type(hole) is Val:
            return path, e
        path.append(e)
        e = hole


def _plug(path: list[Expr], x: Expr) -> Expr:
    """Fill the context ``path`` (from ``_focus``) with ``x``."""
    for n in reversed(path):
        if type(n) is App:
            x = rebuild(n, n.fun, x) if type(n.fun) is Val else rebuild(n, x, n.arg)
        elif type(n) is Send:
            x = rebuild(n, x, n.msg)
        else:
            x = rebuild(n, x)
    return x


def _stuck_reason(actor: int, e: Expr) -> StuckError:
    """Best-effort diagnosis of why the focused node ``e`` matches no rule."""
    match e:
        case Var(name):
            return StuckError(actor, e, f"free variable {name}")
        case App():
            return StuckError(actor, e, "application of a non-function value")
        case Send(target):
            if not isinstance(target.value, (ActorId, BestowedLoc)):
                return SendToNonActiveError(
                    actor, e, "send target is not an actor or bestowed reference"
                )
            return StuckError(actor, e, "message is not a function value")
        case Mutate():
            return StuckError(actor, e, "mutate target is not a heap location")
        case Bestow():
            return StuckError(actor, e, "bestow argument is not a heap location")
    return StuckError(actor, e, "no applicable rule")


# --------------------------------------------------------------------------
# Single-actor step
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Effect:
    """What one actor's step does to the system.

    ``actor`` is the stepping actor's new state; ``event`` is the step's
    trace event.  ``post`` is a message, as ``(target, msg)``, appended
    to the target's queue; ``spawned`` is a new actor, which takes the next
    actor id and the next location (``new-passive`` takes the next location
    too).  Nothing else changes: a step reads only its own actor.
    """

    actor: Actor
    event: TraceEvent
    post: tuple[int, Lambda] | None = None
    spawned: Actor | None = None


def step_expr(ident: int, a: Actor, next_loc: int, next_id: int) -> Effect:
    """One reduction of actor ``a``'s expression, running as ``ident``, when
    the next fresh location and actor id are ``next_loc`` and ``next_id``.

    Raises :class:`StuckError` when the focused node matches no rule (a
    value matches none).
    """
    path, node = _focus(a.current)

    def to(e: Expr) -> Actor:
        return Actor(a.this_loc, a.local_heap, a.queue, _plug(path, e))

    unit = Val(UnitVal())
    match node:
        case App(Val(Lambda(param, _, body)), Val(arg)):
            return Effect(to(subst(body, param, arg)), TraceEvent(ident, "apply"))

        case Send(Val(ActorId(target)), Lambda() as msg):
            return Effect(to(unit), TraceEvent(ident, "send-actor"), (target, msg))

        case Send(Val(BestowedLoc(loc, owner)), Lambda() as msg):
            # Forward to the owner: wrap the message so that, once delivered,
            # it applies the original function to the underlying object.
            y = fresh_name("y", free_vars(msg))
            wrapper = Lambda(y, Passive(), App(Val(msg), Val(Loc(loc))))
            return Effect(to(unit), TraceEvent(ident, "send-bestowed"), (owner, wrapper))

        case Mutate(Val(Loc(loc))):
            # Mutation of the object at `loc` is abstract: the heap is not
            # changed, but the event records which location was written.
            return Effect(to(unit), TraceEvent(ident, "mutate", loc))

        case Bestow(Val(Loc(loc))):
            return Effect(to(Val(BestowedLoc(loc, ident))), TraceEvent(ident, "bestow", loc))

        case NewPassive():
            current = _plug(path, Val(Loc(next_loc)))
            me = Actor(a.this_loc, a.local_heap | {next_loc}, a.queue, current)
            return Effect(me, TraceEvent(ident, "new-passive", next_loc))

        case NewActor():
            spawned = Actor(next_loc, frozenset({next_loc}), (), unit)
            event = TraceEvent(ident, "new-actor")
            return Effect(to(Val(ActorId(next_id))), event, spawned=spawned)

    raise _stuck_reason(ident, node)


def actor_step(
    ident: int, a: Actor, next_loc: int, next_id: int, *, lifo: bool = False
) -> Effect:
    """The effect of moving actor ``a``, running as ``ident``: a busy actor
    steps, an idle one pops.

    A pure function of its arguments, so callers may memoize it.  Raises
    :class:`ScheduleError` for an idle actor with an empty queue.
    """
    if not is_value(a.current):
        return step_expr(ident, a, next_loc, next_id)
    if not a.queue:
        raise ScheduleError(f"actor {ident} has an empty queue")
    msg, rest = (a.queue[-1], a.queue[:-1]) if lifo else (a.queue[0], a.queue[1:])
    me = Actor(a.this_loc, a.local_heap, rest, App(Val(msg), Val(Loc(a.this_loc))))
    return Effect(me, TraceEvent(ident, "actor-msg"))


def enqueue(recv: Actor, msg: Lambda) -> Actor:
    """``recv`` with ``msg`` appended to its queue."""
    return Actor(recv.this_loc, recv.local_heap, recv.queue + (msg,), recv.current)


def apply_effect(
    heap: Heap,
    ident: int,
    eff: Effect,
    enqueue: Callable[[Actor, Lambda], Actor] = enqueue,
) -> Heap:
    """``heap`` after actor ``ident`` stepped with effect ``eff``; a posted
    message reaches its target through ``enqueue``."""
    actors = {**heap.actors, ident: eff.actor}
    if eff.post is not None:
        target, msg = eff.post
        actors[target] = enqueue(actors[target], msg)
    next_loc, next_id = heap.next_loc, heap.next_id
    if eff.event.rule == "new-passive":
        next_loc += 1
    elif eff.spawned is not None:
        actors[next_id] = eff.spawned
        next_loc, next_id = next_loc + 1, next_id + 1
    return Heap(actors, next_loc, next_id)


# --------------------------------------------------------------------------
# System step and scheduling
# --------------------------------------------------------------------------


def poised(a: Actor) -> tuple[str | None, int | None]:
    """How ``a`` can move (``"pop"``, ``"step"`` or None) and the
    location that step would read or write (None for rules that touch no
    existing location).  It matches the node ``step_expr`` would reduce
    against the same redex shapes; a stuck actor enables nothing.  Worked
    out once per actor object.
    """
    return memo(a, "_poised", _poised)


def _poised(a: Actor) -> tuple[str | None, int | None]:
    if is_value(a.current):
        return ("pop" if a.queue else None), None
    match _focus(a.current)[1]:
        case Mutate(Val(Loc(loc))) | Bestow(Val(Loc(loc))):
            return "step", loc
        case (
            App(Val(Lambda()), Val())
            | Send(Val(ActorId() | BestowedLoc()), Lambda())
            | NewPassive()
            | NewActor()
        ):
            return "step", None
    return None, None


def _enabled(heap: Heap) -> Iterator[int]:
    """``enabled_choices``, lazily."""
    actors = heap.actors
    return (i for i in sorted(actors) if poised(actors[i])[0] is not None)


def enabled_choices(heap: Heap) -> list[int]:
    """The ids of the actors that can move in ``heap`` (a stuck one cannot), ascending."""
    return list(_enabled(heap))


def step_system(heap: Heap, ident: int, *, lifo: bool = False) -> tuple[Heap, TraceEvent]:
    """Move actor ``ident`` one step.  Raises :class:`ScheduleError` for an
    unknown id or an idle actor with an empty queue, and :class:`StuckError`
    for a stuck one."""
    if ident not in heap.actors:
        raise ScheduleError(f"no such actor: {ident}")
    eff = actor_step(ident, heap.actors[ident], heap.next_loc, heap.next_id, lifo=lifo)
    return apply_effect(heap, ident, eff), eff.event


def initial_heap(e: Expr) -> Heap:
    """A fresh system: one root actor (id 0) running ``e``."""
    root = Actor(this_loc=0, local_heap=frozenset({0}), queue=(), current=e)
    return Heap({0: root}, next_loc=1, next_id=1)


def run_to_quiescence(
    heap: Heap,
    schedule: Sequence[int] | None = None,
    *,
    seed: int | None = None,
    fuel: int = DEFAULT_FUEL,
    lifo: bool = False,
) -> tuple[Heap, list[TraceEvent]]:
    """Run until no choice is enabled.

    Scheduling policy: consume ``schedule``, a sequence of actor ids, first
    (raising :class:`ScheduleError` if an entry cannot move), then pick
    uniformly at random when ``seed`` is given, else always take the first
    enabled choice.  Raises :class:`FuelExhaustedError` (with partial results
    attached) after ``fuel`` steps.
    """
    rng = random.Random(seed) if seed is not None else None
    scripted = list(schedule) if schedule is not None else []
    trace: list[TraceEvent] = []

    for _ in range(fuel):
        # The default policy takes the first choice, so it asks for no more:
        # in a long program most actors spawned so far sit idle, and listing
        # every choice would visit each of them on every step.
        if scripted or rng is not None:
            enabled = enabled_choices(heap)
        else:
            enabled = list(islice(_enabled(heap), 1))
        if not enabled:
            return heap, trace
        if scripted:
            ident = scripted.pop(0)
            if ident not in enabled:
                raise ScheduleError(f"actor {ident} cannot move (enabled: {enabled})")
        elif rng is not None:
            ident = rng.choice(enabled)
        else:
            ident = enabled[0]
        heap, event = step_system(heap, ident, lifo=lifo)
        trace.append(event)

    if enabled_choices(heap):
        raise FuelExhaustedError(heap, trace)
    return heap, trace


def run_program(
    e: Expr,
    *,
    seed: int | None = None,
    fuel: int = DEFAULT_FUEL,
    lifo: bool = False,
) -> tuple[Heap, list[TraceEvent]]:
    """Convenience wrapper: run ``e`` from a fresh root actor to quiescence."""
    return run_to_quiescence(initial_heap(e), seed=seed, fuel=fuel, lifo=lifo)


def events_to_jsonl(trace: Iterable[TraceEvent]) -> str:
    """Render a trace as JSON lines (one event per line)."""
    import json

    return "".join(
        json.dumps({"step": i, "actor": ev.actor, "rule": ev.rule, "loc": ev.touched_loc})
        + "\n"
        for i, ev in enumerate(trace)
    )

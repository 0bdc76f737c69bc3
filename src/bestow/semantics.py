"""Small-step operational semantics.

An actor system steps by picking an actor, the scheduler choice: an idle
actor pops the next message off its queue, a busy actor reduces its current
expression by one step.  Expression reduction uses a unique evaluation
context (leftmost-innermost), so each actor's next step is deterministic;
all nondeterminism lives in the choice of actor, and a schedule is a
sequence of actor ids.  Each move fires exactly one of the eight rules.
One walk down that context (``_focus``) finds the node where an actor
moves, and ``poised`` names the rule by the one match of that node against
the redex shapes (``actor-msg`` for an idle actor's pop).  A value is an
expression, so the shapes name the values in their holes directly:
``App(Lambda(), Value())``, ``Mutate(Loc())``, ``Bestow(Loc())``,
``Send(ActorId(), Lambda())``, ``Send(BestowedLoc(), Lambda())``,
``NewPassive()`` and ``NewActor()``.  ``actor_step`` fires the rule
``poised`` names, making the move's one :class:`TraceEvent`: the rule and,
for heap-touching rules, the location involved.

Actors are isolated, so a step reads only the stepping actor (and the
fresh-name counters).  ``actor_step`` computes it as an :class:`Effect`,
which carries the event, and ``_apply`` applies that to an actor table in
place; ``step_system`` applies it to a copy of a heap's table, and the
explorer memoizes the first.  A step changes at most three actors: the
stepper, the target of the message it posts and the actor it spawns.
``run_to_quiescence`` therefore keeps one actor table and applies each
effect to it, and keeps the set of enabled actors, updated from those
three after each step.  So no step of a run visits an actor it did not
change, except that the seeded policy sorts the enabled ids to pick among
them.  A run that stops with fuel left while an actor is still busy is
stuck, and raises that actor's :class:`StuckError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Sequence

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
    Value,
    Var,
    free_vars,
    fresh_name,
    memo,
    rebuild,
    render_expr,
    subst,
)

DEFAULT_FUEL = 100_000


@dataclass(frozen=True, slots=True)
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
            hole = e.arg if isinstance(e.fun, Value) else e.fun
        elif t is Send or t is Mutate:
            hole = e.target
        elif t is Bestow:
            hole = e.inner
        else:
            return path, e
        if isinstance(hole, Value):
            return path, e
        path.append(e)
        e = hole


def _plug(path: list[Expr], x: Expr) -> Expr:
    """Fill the context ``path`` (from ``_focus``) with ``x``."""
    for n in reversed(path):
        if type(n) is App:
            x = rebuild(n, n.fun, x) if isinstance(n.fun, Value) else rebuild(n, x, n.arg)
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
            if not isinstance(target, (ActorId, BestowedLoc)):
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


@dataclass(frozen=True, slots=True)
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


def actor_step(
    ident: int, a: Actor, next_loc: int, next_id: int, *, lifo: bool = False
) -> Effect:
    """The effect of moving actor ``a``, running as ``ident``, when the next
    fresh location and actor id are ``next_loc`` and ``next_id``: it fires
    the rule ``poised(a)`` names.

    A pure function of its arguments, so callers may memoize it.  Raises
    :class:`ScheduleError` for an idle actor with an empty queue and
    :class:`StuckError` for a busy one whose focused node matches no rule.
    """
    rule, loc = poised(a)
    if rule is None:
        if isinstance(a.current, Value):
            raise ScheduleError(f"actor {ident} has an empty queue")
        raise _stuck_reason(ident, _focus(a.current)[1])
    if rule == "new-passive":
        loc = next_loc
    event = TraceEvent(ident, rule, loc)
    if rule == "actor-msg":
        msg, rest = (a.queue[-1], a.queue[:-1]) if lifo else (a.queue[0], a.queue[1:])
        me = Actor(a.this_loc, a.local_heap, rest, App(msg, Loc(a.this_loc)))
        return Effect(me, event)

    # The rule fixes the focused node's shape, so its fields are read as is.
    path, node = _focus(a.current)
    local_heap, post, spawned = a.local_heap, None, None
    match rule:
        case "apply":
            fun = node.fun
            e = subst(fun.body, fun.param, node.arg)
        case "send-actor":
            e, post = UnitVal(), (node.target.ident, node.msg)
        case "send-bestowed":
            # Forward to the owner: wrap the message so that, once delivered,
            # it applies the original function to the underlying object.
            target, msg = node.target, node.msg
            y = fresh_name("y", free_vars(msg))
            wrapper = Lambda(y, Passive(), App(msg, Loc(target.loc)))
            e, post = UnitVal(), (target.owner, wrapper)
        case "mutate":
            # Mutation of the object at `loc` is abstract: the heap is not
            # changed, but the event records which location was written.
            e = UnitVal()
        case "bestow":
            e = BestowedLoc(loc, ident)
        case "new-passive":
            e, local_heap = Loc(next_loc), local_heap | {next_loc}
        case "new-actor":
            e = ActorId(next_id)
            spawned = Actor(next_loc, frozenset({next_loc}), (), UnitVal())
    me = Actor(a.this_loc, local_heap, a.queue, _plug(path, e))
    return Effect(me, event, post, spawned)


def enqueue(recv: Actor, msg: Lambda) -> Actor:
    """``recv`` with ``msg`` appended to its queue."""
    return Actor(recv.this_loc, recv.local_heap, recv.queue + (msg,), recv.current)


def _apply(
    actors: dict[int, Actor],
    next_loc: int,
    next_id: int,
    ident: int,
    eff: Effect,
    enqueue: Callable[[Actor, Lambda], Actor],
) -> tuple[int, int]:
    """Apply ``eff`` to ``actors`` in place and return the next fresh
    location and actor id.  Only the stepper, the post's target and the
    spawned actor (id ``next_id``) change."""
    actors[ident] = eff.actor
    if eff.post is not None:
        target, msg = eff.post
        actors[target] = enqueue(actors[target], msg)
    if eff.event.rule == "new-passive":
        return next_loc + 1, next_id
    if eff.spawned is not None:
        actors[next_id] = eff.spawned
        return next_loc + 1, next_id + 1
    return next_loc, next_id


# --------------------------------------------------------------------------
# System step and scheduling
# --------------------------------------------------------------------------


def poised(a: Actor) -> tuple[str | None, int | None]:
    """The rule ``a``'s move fires (``actor-msg`` for a pop, one of the seven
    step rules, or None if it cannot move) and the location that move would
    read or write (set for ``mutate`` and ``bestow``, else None).  The one
    match of the node ``_focus`` finds against the redex shapes; a stuck
    actor fires nothing.  Worked out once per actor object.
    """
    return memo(a, "_poised", _poised)


def _poised(a: Actor) -> tuple[str | None, int | None]:
    if isinstance(a.current, Value):
        return ("actor-msg" if a.queue else None), None
    match _focus(a.current)[1]:
        case Mutate(Loc(loc)):
            return "mutate", loc
        case Bestow(Loc(loc)):
            return "bestow", loc
        case App(Lambda(), Value()):
            return "apply", None
        case Send(ActorId(), Lambda()):
            return "send-actor", None
        case Send(BestowedLoc(), Lambda()):
            return "send-bestowed", None
        case NewPassive():
            return "new-passive", None
        case NewActor():
            return "new-actor", None
    return None, None


def enabled_choices(heap: Heap) -> list[int]:
    """The ids of the actors that can move in ``heap`` (a stuck one cannot), ascending."""
    actors = heap.actors
    return [i for i in sorted(actors) if poised(actors[i])[0] is not None]


def step_system(heap: Heap, ident: int, *, lifo: bool = False) -> tuple[Heap, TraceEvent]:
    """The heap after actor ``ident`` moves one step, which leaves ``heap``
    as it is, and the step's event.  Raises :class:`ScheduleError` for an
    unknown id or an idle actor with an empty queue, and :class:`StuckError`
    for a stuck one."""
    if ident not in heap.actors:
        raise ScheduleError(f"no such actor: {ident}")
    eff = actor_step(ident, heap.actors[ident], heap.next_loc, heap.next_id, lifo=lifo)
    actors = dict(heap.actors)
    counters = _apply(actors, heap.next_loc, heap.next_id, ident, eff, enqueue)
    return Heap(actors, *counters), eff.event


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
    attached) after ``fuel`` steps, and :class:`StuckError` for the lowest
    busy actor when no actor can move but some actor's expression is not
    a value.

    The run applies each effect in place to its own copy of the actor table
    and builds a heap only when it stops.  It keeps the set of enabled ids,
    updated after each step from the actors that step changed, and a
    min-heap over it for the default policy, whose entries for ids that
    have since left the set are dropped when they reach the top.
    """
    rng = random.Random(seed) if seed is not None else None
    scripted = schedule or ()
    trace: list[TraceEvent] = []
    actors = dict(heap.actors)
    next_loc, next_id = heap.next_loc, heap.next_id
    ready = {i for i, a in actors.items() if poised(a)[0] is not None}
    lowest = sorted(ready)  # a sorted list is a min-heap

    for step in range(fuel):
        if not ready:
            break
        if step < len(scripted):
            ident = scripted[step]
            if ident not in ready:
                raise ScheduleError(f"actor {ident} cannot move (enabled: {sorted(ready)})")
        elif rng is not None:
            ident = rng.choice(sorted(ready))
        else:
            while lowest[0] not in ready:
                heappop(lowest)
            ident = lowest[0]
        eff = actor_step(ident, actors[ident], next_loc, next_id, lifo=lifo)
        changed = [ident] if eff.post is None else [ident, eff.post[0]]
        if eff.spawned is not None:
            changed.append(next_id)
        next_loc, next_id = _apply(actors, next_loc, next_id, ident, eff, enqueue)
        trace.append(eff.event)
        for i in changed:
            if poised(actors[i])[0] is None:
                ready.discard(i)
            elif i not in ready:
                ready.add(i)
                heappush(lowest, i)

    if ready:  # only when the fuel ran out
        raise FuelExhaustedError(Heap(actors, next_loc, next_id), trace)
    busy = [i for i, a in actors.items() if not isinstance(a.current, Value)]
    if busy:  # none of them can move: each is stuck
        i = min(busy)
        raise _stuck_reason(i, _focus(actors[i].current)[1])
    return Heap(actors, next_loc, next_id), trace


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

"""Small-step operational semantics.

An actor system steps by picking a scheduler choice: either an idle actor
pops the next message off its queue, or a busy actor reduces its current
expression by one step.  Expression reduction uses a unique evaluation
context (leftmost-innermost), so each actor's next step is deterministic;
all nondeterminism lives in the choice of actor.

Every step yields a :class:`TraceEvent` naming the rule that fired and, for
heap-touching rules, the location involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
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
    Val,
    Var,
    free_vars,
    fresh_name,
    is_value,
    rebuild,
    render_expr,
    subst,
)

DEFAULT_FUEL = 100_000


@dataclass(frozen=True, order=True)
class SchedulerChoice:
    """One schedulable unit of work: ``kind`` is ``"pop"`` or ``"step"``.

    Ordering is (actor, kind); ``"pop"`` sorts before ``"step"``, which fixes
    the deterministic scheduling policy and the explorer's edge order.
    """

    actor: int
    kind: str


@dataclass(frozen=True)
class TraceEvent:
    """One step of the system.

    ``rule`` is one of: actor-msg, send-actor, send-bestowed, apply, mutate,
    bestow, new-passive, new-actor.  ``touched_loc`` is set for the three
    rules that read or create a specific location (mutate, bestow,
    new-passive) and is ``None`` otherwise.
    """

    step_index: int
    actor: int
    rule: str
    touched_loc: int | None = None


class StuckError(Exception):
    """The selected actor's expression has no redex and is not a value."""

    def __init__(self, actor: int, expr: Expr, message: str) -> None:
        self.actor = actor
        self.expr = expr
        super().__init__(f"actor {actor} stuck: {message} (in {render_expr(expr)})")


class SendToNonActiveError(StuckError):
    """A send whose target evaluated to something that has no queue."""


class ScheduleError(Exception):
    """A scripted schedule asked for a choice that is not enabled."""


class FuelExhaustedError(Exception):
    """Ran out of fuel; carries the partial heap and trace."""

    def __init__(self, heap: Heap, trace: list[TraceEvent]) -> None:
        self.heap = heap
        self.trace = trace
        super().__init__(f"fuel exhausted after {len(trace)} steps")


# --------------------------------------------------------------------------
# Evaluation contexts
# --------------------------------------------------------------------------


def is_redex(e: Expr) -> bool:
    match e:
        case App(Val(Lambda()), Val()):
            return True
        case Send(Val(ActorId() | BestowedLoc()), msg):
            return isinstance(msg, Lambda)
        case Mutate(Val(Loc())):
            return True
        case Bestow(Val(Loc())):
            return True
        case NewPassive() | NewActor():
            return True
    return False


def _focus(e: Expr) -> tuple[list[Expr], Expr]:
    """Follow the evaluation context down from ``e``.

    Contexts descend into the function position of an application first,
    then the argument; into send targets, mutate targets and bestow
    arguments.  Message positions are values and are never reduced.  Returns
    the context's nodes, outermost first, and the subexpression where the
    descent stops: the redex, or the node that has none.
    """
    path: list[Expr] = []
    while not is_redex(e):
        t = type(e)
        if t is App:
            hole = e.fun if type(e.fun) is not Val else e.arg
        elif t is Send or t is Mutate:
            hole = e.target
        elif t is Bestow:
            hole = e.inner
        else:
            break
        if type(hole) is Val:
            break
        path.append(e)
        e = hole
    return path, e


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


def decompose(e: Expr) -> tuple[Expr, Callable[[Expr], Expr]] | None:
    """Split ``e`` into its unique redex and context, or None.

    The context is returned as a plug function; ``plug(redex)`` rebuilds
    ``e``.
    """
    path, focus = _focus(e)
    if not is_redex(focus):
        return None
    return focus, partial(_plug, path)


def _stuck_reason(actor: int, e: Expr) -> StuckError:
    """Best-effort diagnosis of why a non-value expression has no redex."""
    _, e = _focus(e)
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
# Single-actor expression step
# --------------------------------------------------------------------------


def step_expr(heap: Heap, actor_id: int, e: Expr) -> tuple[Heap, Expr, str, int | None]:
    """One reduction of ``e`` running on ``actor_id``.

    Returns the new heap, the reduced expression, the rule name and the
    touched location (if any).  Raises :class:`StuckError` when ``e`` is
    neither a value nor decomposable.
    """
    d = decompose(e)
    if d is None:
        raise _stuck_reason(actor_id, e)
    redex, plug = d

    match redex:
        case App(Val(Lambda(param, _, body)), Val(arg)):
            return heap, plug(subst(body, param, arg)), "apply", None

        case Send(Val(ActorId(target)), msg):
            assert isinstance(msg, Lambda)
            recv = heap.actors[target]
            recv = Actor(recv.this_loc, recv.local_heap, recv.queue + (msg,), recv.current)
            return heap.with_actor(target, recv), plug(Val(UnitVal())), "send-actor", None

        case Send(Val(BestowedLoc(loc, owner)), msg):
            assert isinstance(msg, Lambda)
            # Forward to the owner: wrap the message so that, once delivered,
            # it applies the original function to the underlying object.
            y = fresh_name("y", free_vars(msg))
            wrapper = Lambda(y, Passive(), App(Val(msg), Val(Loc(loc))))
            recv = heap.actors[owner]
            recv = Actor(
                recv.this_loc, recv.local_heap, recv.queue + (wrapper,), recv.current
            )
            return heap.with_actor(owner, recv), plug(Val(UnitVal())), "send-bestowed", None

        case Mutate(Val(Loc(loc))):
            # Mutation of the object at `loc` is abstract: the heap is not
            # changed, but the event records which location was written.
            return heap, plug(Val(UnitVal())), "mutate", loc

        case Bestow(Val(Loc(loc))):
            return heap, plug(Val(BestowedLoc(loc, actor_id))), "bestow", loc

        case NewPassive():
            heap2, loc = heap.alloc_loc()
            me = heap2.actors[actor_id]
            me = Actor(me.this_loc, me.local_heap | {loc}, me.queue, me.current)
            return heap2.with_actor(actor_id, me), plug(Val(Loc(loc))), "new-passive", loc

        case NewActor():
            heap2, ident = heap.alloc_id()
            heap3, loc = heap2.alloc_loc()
            spawned = Actor(loc, frozenset({loc}), (), Val(UnitVal()))
            heap4 = heap3.with_actor(ident, spawned)
            return heap4, plug(Val(ActorId(ident))), "new-actor", None

    raise AssertionError(f"unreachable redex {redex!r}")


# --------------------------------------------------------------------------
# System step and scheduling
# --------------------------------------------------------------------------


def enabled_choices(heap: Heap) -> list[SchedulerChoice]:
    """All choices that can fire in ``heap``, in deterministic order.

    Never raises: actors whose expression is stuck simply contribute no
    ``step`` choice.
    """
    out: list[SchedulerChoice] = []
    for ident in sorted(heap.actors):
        a = heap.actors[ident]
        if is_value(a.current) and a.queue:
            out.append(SchedulerChoice(ident, "pop"))
        if not is_value(a.current) and decompose(a.current) is not None:
            out.append(SchedulerChoice(ident, "step"))
    return sorted(out)


def quiescent(heap: Heap) -> bool:
    return not enabled_choices(heap)


def step_system(
    heap: Heap,
    choice: SchedulerChoice,
    *,
    step_index: int = 0,
    lifo: bool = False,
) -> tuple[Heap, TraceEvent]:
    """Perform one scheduler choice.  Raises if the choice is not enabled."""
    ident = choice.actor
    if ident not in heap.actors:
        raise ScheduleError(f"no such actor: {ident}")
    a = heap.actors[ident]

    if choice.kind == "pop":
        if not is_value(a.current):
            raise ScheduleError(f"actor {ident} is still busy; cannot pop")
        if not a.queue:
            raise ScheduleError(f"actor {ident} has an empty queue")
        if lifo:
            msg, rest = a.queue[-1], a.queue[:-1]
        else:
            msg, rest = a.queue[0], a.queue[1:]
        current = App(Val(msg), Val(Loc(a.this_loc)))
        heap2 = heap.with_actor(ident, Actor(a.this_loc, a.local_heap, rest, current))
        return heap2, TraceEvent(step_index, ident, "actor-msg", None)

    if choice.kind == "step":
        if is_value(a.current):
            raise ScheduleError(f"actor {ident} has nothing to step")
        heap2, e2, rule, touched = step_expr(heap, ident, a.current)
        a2 = heap2.actors[ident]
        heap3 = heap2.with_actor(ident, Actor(a2.this_loc, a2.local_heap, a2.queue, e2))
        return heap3, TraceEvent(step_index, ident, rule, touched)

    raise ScheduleError(f"unknown choice kind: {choice.kind!r}")


def initial_heap(e: Expr) -> Heap:
    """A fresh system: one root actor (id 0) running ``e``."""
    root = Actor(this_loc=0, local_heap=frozenset({0}), queue=(), current=e)
    return Heap({0: root}, next_loc=1, next_id=1)


def run_to_quiescence(
    heap: Heap,
    schedule: Sequence[SchedulerChoice] | None = None,
    *,
    seed: int | None = None,
    fuel: int = DEFAULT_FUEL,
    lifo: bool = False,
) -> tuple[Heap, list[TraceEvent]]:
    """Run until no choice is enabled.

    Scheduling policy: consume ``schedule`` first (raising
    :class:`ScheduleError` if an entry is not enabled), then pick uniformly
    at random when ``seed`` is given, else always take the first enabled
    choice.  Raises :class:`FuelExhaustedError` (with partial results
    attached) after ``fuel`` steps.
    """
    rng = random.Random(seed) if seed is not None else None
    scripted = list(schedule) if schedule is not None else []
    trace: list[TraceEvent] = []

    for i in range(fuel):
        enabled = enabled_choices(heap)
        if not enabled:
            return heap, trace
        if scripted:
            choice = scripted.pop(0)
            if choice not in enabled:
                raise ScheduleError(
                    f"scheduled choice {choice} not enabled (enabled: {enabled})"
                )
        elif rng is not None:
            choice = rng.choice(enabled)
        else:
            choice = enabled[0]
        heap, event = step_system(heap, choice, step_index=i, lifo=lifo)
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


def step_footprint(heap: Heap, choice: SchedulerChoice) -> frozenset[int]:
    """Locations the choice would touch if fired (empty for non-heap rules).

    Used by the race checker: two distinct actors with overlapping
    footprints in the same state constitute a potential data race.
    """
    if choice.kind != "step":
        return frozenset()
    a = heap.actors.get(choice.actor)
    if a is None or is_value(a.current):
        return frozenset()
    d = decompose(a.current)
    if d is None:
        return frozenset()
    redex, _ = d
    match redex:
        case Mutate(Val(Loc(loc))):
            return frozenset({loc})
        case Bestow(Val(Loc(loc))):
            return frozenset({loc})
    return frozenset()


def events_to_jsonl(trace: Iterable[TraceEvent]) -> str:
    """Render a trace as JSON lines (one event per line)."""
    import json

    lines = []
    for ev in trace:
        lines.append(
            json.dumps(
                {
                    "step": ev.step_index,
                    "actor": ev.actor,
                    "rule": ev.rule,
                    "loc": ev.touched_loc,
                },
                separators=(", ", ": "),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")

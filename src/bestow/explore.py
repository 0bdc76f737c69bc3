"""Bounded exploration of the interleaving space, plus machine checks.

``explore`` runs a breadth-first search over every scheduler choice from an
initial heap, deduplicating states by a key that is canonical up to the
renaming of actor ids and heap locations.  Each state is stored as the heap
its shortest trace reaches, so every trace replays from the initial heap.
On the resulting state graph, three checks replay the soundness story:

* ``check_progress`` — in every reachable state each busy actor can step
  (so a state is properly terminal, all actors idle and all queues empty,
  or has an enabled choice);
* ``check_preservation`` — every reachable state is well-formed;
* ``check_race_freedom`` — no reachable state lets two distinct actors
  touch the same location with their next steps.

Each check returns ``None`` on success or a counterexample carrying the
offending state and a shortest trace to it, printed as its schedule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

from .syntax import Actor, Expr, Heap, Lambda, Value, is_value
from .semantics import (
    Effect,
    SchedulerChoice,
    TraceEvent,
    actor_step,
    apply_effect,
    enqueue,
    poised,
)
from .wellformed import TermFacts, WfReport, assert_wf, wf_heap

DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_DEPTH = 64


# --------------------------------------------------------------------------
# Canonical renaming
# --------------------------------------------------------------------------


class ActorFacts:
    """What one actor state contributes to keys, choices and the race check.

    ``terms`` are the facts of its current expression and then of its
    queued messages; ``slots`` lists its own location and then those terms'
    slot codes, in the order ``_renaming`` scans them; ``lh`` is its local
    heap, sorted.  ``text`` is its key fragment after the actor id, as it
    is (not renamed).  ``kind`` is the choice it enables, if any, and
    ``touches`` the location that step would touch (see ``poised``).
    """

    def __init__(self, a: Actor, facts: FactTable) -> None:
        self.actor = a
        self.terms = (facts(a.current), *map(facts, a.queue))
        self.slots = (a.this_loc, *chain.from_iterable(f.slots for f in self.terms))
        self.lh = tuple(sorted(a.local_heap))
        current, *queue = self.terms
        lh = " ".join(map(str, self.lh))
        q = " ".join(f.text for f in queue)
        self.text = f"{a.this_loc} (lh {lh}) (q {q}) {current.text})"
        self.kind, self.touches = poised(a)


class FactTable:
    """Each distinct term's and actor state's facts, worked out once; call
    it on a term, or ``actor`` on an actor.

    Keyed by object identity; each entry holds its object, so no id is
    reused while the entry lives.  A successor shares most actors and terms
    with its parent, so keys, choices and checks pay only for what a step
    changed.
    """

    def __init__(self) -> None:
        self.terms: dict[int, TermFacts] = {}
        self.actors: dict[int, ActorFacts] = {}

    def __call__(self, term: Expr | Value) -> TermFacts:
        f = self.terms.get(id(term))
        if f is None:
            f = self.terms[id(term)] = TermFacts(term)
        return f

    def actor(self, a: Actor) -> ActorFacts:
        f = self.actors.get(id(a))
        if f is None:
            f = self.actors[id(a)] = ActorFacts(a, self)
        return f

    def choices(self, heap: Heap) -> list[SchedulerChoice]:
        """``enabled_choices(heap)``, read from the actors' records."""
        out: list[SchedulerChoice] = []
        for ident in sorted(heap.actors):
            kind = self.actor(heap.actors[ident]).kind
            if kind is not None:
                out.append(SchedulerChoice(ident, kind))
        return out


def _renaming(actors: dict[int, ActorFacts]) -> dict[int, int] | None:
    """The canonical renaming of a heap given its actors' records (None if
    it changes no number), from slot codes (see ``TermFacts``) to new
    numbers.

    The walk starts at the root (the lowest surviving actor id) and visits
    actors breadth-first, scanning each one's slots (see ``ActorFacts``).
    Actors unreachable from the root do arise (once the root has sent to
    two spawned actors, it holds neither id); each starts a new walk, in
    original-id order, so two heaps that differ only in such ids get
    different keys.
    """
    new: dict[int, int] = {}
    order: list[int] = []
    locs = 0
    for root in sorted(actors):
        if ~root in new:
            continue
        pos = new[~root] = len(order)
        order.append(root)
        while pos < len(order):
            slots = actors[order[pos]].slots
            pos += 1
            for k in slots:
                if k not in new:
                    if k >= 0:
                        new[k] = locs
                        locs += 1
                    else:
                        new[k] = len(order)
                        order.append(~k)
    # Locations owned but never mentioned are interchangeable; give them
    # trailing numbers, actor by actor in canonical order.
    for ident in order:
        for loc in actors[ident].lh:
            if loc not in new:
                new[loc] = locs
                locs += 1
    same = all(v == (k if k >= 0 else ~k) for k, v in new.items())
    return None if same else new


def state_key(heap: Heap, canonical: bool = True, facts: FactTable | None = None) -> str:
    """A hashable identity for a heap, joined from its actors' fragments.

    Canonical keys render ``heap`` renamed by ``_renaming``: they quotient
    out the numbering of ids/locations and the fresh-name counters.  Exact
    keys are ``render_heap(heap, include_counters=True)``: they include
    everything, which keeps actor ids stable along a path (useful when a
    test needs to follow one actor across states).  When no number changes,
    the key joins the cached fragments as they are.
    """
    facts = FactTable() if facts is None else facts
    actors = {i: facts.actor(a) for i, a in heap.actors.items()}
    new = _renaming(actors) if canonical else None
    if new is None:
        parts = [f"(actor {i} {actors[i].text}" for i in sorted(actors)]
    else:
        number = new.__getitem__

        def text(f: TermFacts) -> str:
            return f.template % tuple(map(number, f.slots))

        parts = []
        for ident in sorted(actors, key=lambda i: new[~i]):
            r = actors[ident]
            current, *queue = r.terms
            lh = " ".join(map(str, sorted(map(number, r.lh))))
            q = " ".join(map(text, queue))
            parts.append(
                f"(actor {new[~ident]} {new[r.actor.this_loc]} (lh {lh}) (q {q}) "
                f"{text(current)})"
            )
    head = "(heap " if canonical else f"(heap [{heap.next_loc} {heap.next_id}] "
    return head + " ".join(parts) + ")"


# --------------------------------------------------------------------------
# State space
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    src: str
    choice: SchedulerChoice
    event: TraceEvent
    dst: str


@dataclass
class StateSpace:
    initial: str
    states: dict[str, Heap]
    edges: list[Edge]
    parents: dict[str, Edge]
    depth: dict[str, int]
    truncated: bool
    canonical: bool
    lifo: bool
    # Each state's enabled choices, computed once by ``explore``.
    choices: dict[str, list[SchedulerChoice]]
    # The per-term and per-actor facts of every state, shared by keys,
    # choices and checks.
    facts: FactTable
    _out: dict[str, list[Edge]] = field(default_factory=dict, repr=False)

    def successors(self, key: str) -> list[Edge]:
        if not self._out:
            for e in self.edges:
                self._out.setdefault(e.src, []).append(e)
        return self._out.get(key, [])

    def trace_to(self, key: str) -> list[Edge]:
        """A shortest edge path from the initial state to ``key``."""
        path: list[Edge] = []
        while key != self.initial:
            edge = self.parents[key]
            path.append(edge)
            key = edge.src
        path.reverse()
        return path

    def terminal_states(self) -> list[str]:
        return [k for k in self.states if not self.choices[k]]

    def __len__(self) -> int:
        return len(self.states)


def explore(
    heap: Heap,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    lifo: bool = False,
    canonical: bool = True,
    require_wf: bool = True,
) -> StateSpace:
    """Breadth-first exploration of every scheduler interleaving.

    Stops expanding once ``max_states`` states have been collected or a
    state sits at ``max_depth`` steps from the start; ``truncated`` reports
    whether any frontier was cut off.  The initial heap must be well-formed
    (disable with ``require_wf`` for deliberately broken inputs).
    """
    if require_wf:
        assert_wf(heap)

    facts = FactTable()
    # Memoized transitions, keyed by object identity; each entry holds the
    # objects its key names, so no id is reused while it lives.  A step is
    # a pure function of the actor and its id (``bestow`` names the
    # stepper), the choice kind and the fresh-name counters, the queue
    # order being fixed per space; a post is one of the receiver and the
    # message.  Interleavings that reach one actor state thus share its
    # object, and its step, record and key fragment are worked out once.
    steps: dict[tuple[int, int, str, int, int], tuple[Actor, Effect]] = {}
    posts: dict[tuple[int, int], tuple[Actor, Lambda, Actor]] = {}

    def post(recv: Actor, msg: Lambda) -> Actor:
        k = (id(recv), id(msg))
        hit = posts.get(k)
        if hit is None:
            hit = posts[k] = (recv, msg, enqueue(recv, msg))
        return hit[2]

    init_key = state_key(heap, canonical, facts)
    states = {init_key: heap}
    choices_of: dict[str, list[SchedulerChoice]] = {}
    edges: list[Edge] = []
    parents: dict[str, Edge] = {}
    depth: dict[str, int] = {init_key: 0}
    truncated = False

    frontier: deque[str] = deque([init_key])
    while frontier:
        key = frontier.popleft()
        rep = states[key]
        d = depth[key]
        choices = choices_of[key] = facts.choices(rep)
        if not choices:
            continue
        if d >= max_depth:
            truncated = True
            continue
        counters = rep.next_loc, rep.next_id
        for choice in choices:
            ident, kind = choice.actor, choice.kind
            a = rep.actors[ident]
            k = (ident, id(a), kind, *counters)
            hit = steps.get(k)
            if hit is None:
                hit = steps[k] = (a, actor_step(ident, a, kind, *counters, lifo=lifo))
            eff = hit[1]
            nxt = apply_effect(rep, ident, eff, post)
            event = TraceEvent(d, ident, eff.rule, eff.loc)
            nxt_key = state_key(nxt, canonical, facts)
            if nxt_key not in states:
                if len(states) >= max_states:
                    truncated = True
                    continue
                states[nxt_key] = nxt
                depth[nxt_key] = d + 1
                edge = Edge(key, choice, event, nxt_key)
                parents[nxt_key] = edge
                edges.append(edge)
                frontier.append(nxt_key)
            else:
                edges.append(Edge(key, choice, event, nxt_key))

    return StateSpace(
        initial=init_key,
        states=states,
        edges=edges,
        parents=parents,
        depth=depth,
        truncated=truncated,
        canonical=canonical,
        lifo=lifo,
        choices=choices_of,
        facts=facts,
    )


# --------------------------------------------------------------------------
# Machine checks
# --------------------------------------------------------------------------


def properly_terminal(heap: Heap) -> bool:
    """All actors idle on a value with nothing queued anywhere."""
    return all(
        is_value(a.current) and not a.queue for a in heap.actors.values()
    )


def _after(trace: tuple[Edge, ...]) -> str:
    """The trace's length and its schedule, one ``actor:kind`` per step."""
    steps = "".join(f" {e.choice.actor}:{e.choice.kind}" for e in trace)
    return f"after {len(trace)} steps (schedule:{steps})"


@dataclass(frozen=True)
class ProgressFailure:
    """A reachable state that is neither terminal nor able to step."""

    state: str
    heap: Heap
    trace: tuple[Edge, ...]

    def __str__(self) -> str:
        return f"stuck non-terminal state {_after(self.trace)}: {self.state}"


@dataclass(frozen=True)
class PreservationFailure:
    """A reachable state that lost well-formedness."""

    state: str
    heap: Heap
    report: WfReport
    trace: tuple[Edge, ...]

    def __str__(self) -> str:
        return f"ill-formed state {_after(self.trace)}: {self.report}"


@dataclass(frozen=True)
class RaceWitness:
    """Two actors poised to touch the same location in one state."""

    state: str
    heap: Heap
    actors: tuple[int, int]
    loc: int
    trace: tuple[Edge, ...]

    def __str__(self) -> str:
        a, b = self.actors
        return (
            f"actors {a} and {b} can both touch location {self.loc} "
            f"{_after(self.trace)}"
        )


def check_progress(space: StateSpace) -> ProgressFailure | None:
    """First state with a busy actor that cannot step, or None.

    A stuck actor fails the state even while others can move; a state that
    is not properly terminal has a busy actor, or an idle one that can pop.
    Every state's choices are stored, so truncation cannot produce a false
    positive: an unexpanded frontier state still has them.
    """
    for key, rep in space.states.items():
        stepping = {c.actor for c in space.choices[key] if c.kind == "step"}
        if any(
            not is_value(a.current) and ident not in stepping
            for ident, a in rep.actors.items()
        ):
            return ProgressFailure(key, rep, tuple(space.trace_to(key)))
    return None


def check_preservation(space: StateSpace) -> PreservationFailure | None:
    """First reachable ill-formed state, or None."""
    for key, rep in space.states.items():
        report = wf_heap(rep, space.facts)
        if not report.ok:
            return PreservationFailure(key, rep, report, tuple(space.trace_to(key)))
    return None


def check_race_freedom(space: StateSpace) -> RaceWitness | None:
    """First state where two actors' next steps touch the same location."""
    for key, rep in space.states.items():
        touching = [
            (c.actor, loc)
            for c in space.choices[key]
            if (loc := space.facts.actor(rep.actors[c.actor]).touches) is not None
        ]
        for i, (a, loc) in enumerate(touching):
            for b, other in touching[i + 1 :]:
                if loc == other:
                    return RaceWitness(key, rep, (a, b), loc, tuple(space.trace_to(key)))
    return None


def find_race(heap: Heap) -> RaceWitness | None:
    """Race check on a single heap as-is (no exploration, wf not required)."""
    return check_race_freedom(
        explore(heap, max_depth=0, canonical=False, require_wf=False)
    )


def check_all(space: StateSpace) -> dict[str, object | None]:
    """Run the three checks; values are None on success."""
    return {
        "progress": check_progress(space),
        "preservation": check_preservation(space),
        "race-freedom": check_race_freedom(space),
    }


# --------------------------------------------------------------------------
# Path enumeration
# --------------------------------------------------------------------------


def maximal_paths(
    space: StateSpace, *, limit: int | None = None
) -> Iterator[list[Edge]]:
    """All edge paths from the initial state to states with no successors.

    Requires an acyclic graph (guaranteed for terminating programs explored
    with ``canonical=False``); raises ``ValueError`` on a cycle.
    """
    count = 0

    def walk(key: str, on_path: set[str], acc: list[Edge]) -> Iterator[list[Edge]]:
        nonlocal count
        succs = space.successors(key)
        if not succs:
            count += 1
            yield list(acc)
            return
        for edge in succs:
            if edge.dst in on_path:
                raise ValueError("state graph has a cycle; cannot enumerate paths")
            if limit is not None and count >= limit:
                return
            on_path.add(edge.dst)
            acc.append(edge)
            yield from walk(edge.dst, on_path, acc)
            acc.pop()
            on_path.remove(edge.dst)

    yield from walk(space.initial, {space.initial}, [])

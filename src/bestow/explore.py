"""Bounded exploration of the interleaving space, plus machine checks.

``explore`` runs a breadth-first search over every scheduler choice (the
id of an actor that can move) from an initial heap, deduplicating states by
a key that is canonical up to the renaming of actor ids and heap locations.
Each state is stored as the heap its shortest trace reaches, so every trace
replays from the initial heap.
On the resulting state graph, three checks replay the soundness story:

* ``check_progress`` — in every reachable state each busy actor can step
  (so a state is properly terminal, all actors idle and all queues empty,
  or has an enabled choice);
* ``check_preservation`` — every reachable state is well-formed;
* ``check_race_freedom`` — no reachable state lets two distinct actors
  touch the same location with their next steps.

Keys and all three checks read the records each actor and term keeps on
itself (see ``wellformed.facts``); choices read the one ``semantics.poised``
value each actor keeps.  The explorer interns every
actor it makes: each actor state has one object, rendered and judged once,
and a successor is looked up by its actor objects before it is keyed.  The
space stores no copy of a state's choices or depth.  Each edge holds the
event its step made, one object per memoized step.  Each check, and
``batch_adjacency`` (which counts in one pass the maximal paths that split
a batch), gives a failure as one ``Counterexample``: the check's name, the
failing state and heap, a ``detail`` saying what fails there, and a trace
to it, printed as ``<detail> after N steps (schedule: ...)``, one event's
actor and ``kind`` per step.  ``None`` stands for success.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

from .syntax import Actor, Heap, Lambda, is_value
from .semantics import (
    Effect,
    TraceEvent,
    actor_step,
    apply_effect,
    enabled_choices,
    enqueue,
    poised,
)
from .wellformed import ActorFacts, facts, wf_heap

DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_DEPTH = 64


# --------------------------------------------------------------------------
# Canonical renaming
# --------------------------------------------------------------------------


def _renaming(actors: dict[int, ActorFacts]) -> dict[int, int] | None:
    """The canonical renaming of a heap given its actors' records (None if
    it changes no number), from slot codes (see ``wellformed.TermFacts``)
    to new numbers.

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


def state_key(heap: Heap, canonical: bool = True) -> str:
    """A hashable identity for a heap, joined from its actors' fragments.

    Canonical keys render ``heap`` renamed by ``_renaming``: they quotient
    out the numbering of ids/locations and the fresh-name counters.  Exact
    keys are ``render_heap(heap, include_counters=True)``: they include
    everything, which keeps actor ids stable along a path (useful when a
    test needs to follow one actor across states).  When no number changes,
    the key joins the cached fragments as they are.
    """
    actors = {i: facts(a) for i, a in heap.actors.items()}
    new = _renaming(actors) if canonical else None
    if new is None:
        parts = [f"(actor {i} {actors[i].text}" for i in sorted(actors)]
    else:
        parts = [
            f"(actor {new[~i]} {actors[i].render(new)}"
            for i in sorted(actors, key=lambda i: new[~i])
        ]
    head = "(heap " if canonical else f"(heap [{heap.next_loc} {heap.next_id}] "
    return head + " ".join(parts) + ")"


# --------------------------------------------------------------------------
# State space
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    src: str
    event: TraceEvent
    dst: str


@dataclass
class StateSpace:
    initial: str
    states: dict[str, Heap]
    edges: list[Edge]
    parents: dict[str, Edge]
    truncated: bool
    canonical: bool
    lifo: bool
    _out: dict[str, list[Edge]] = field(default_factory=dict, repr=False)

    def successors(self, key: str) -> list[Edge]:
        if not self._out:
            for e in self.edges:
                self._out.setdefault(e.src, []).append(e)
        return self._out.get(key, [])

    def trace_to(self, key: str) -> tuple[Edge, ...]:
        """A shortest edge path from the initial state to ``key``."""
        path: list[Edge] = []
        while key != self.initial:
            edge = self.parents[key]
            path.append(edge)
            key = edge.src
        return tuple(reversed(path))

    def terminal_states(self) -> list[str]:
        return [k for k, rep in self.states.items() if not enabled_choices(rep)]

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
    if require_wf and not (report := wf_heap(heap)).ok:
        raise ValueError(f"heap is not well-formed:\n{report}")
    # Memoized transitions, keyed by object identity.  A step is a pure
    # function of the actor and its id (``bestow`` names the stepper) and
    # the fresh-name counters, the queue order being fixed per space; the
    # actor alone decides whether it pops or steps.  A post is one of the
    # receiver and the message.  Every actor a miss makes is interned:
    # ``firsts`` maps each actor state's key fragment to the first object
    # with it, so each actor state has one object however it was reached,
    # and its step, record and key fragment are worked out once.  No id in
    # a memo key or ``seen`` tuple is reused while the space is built: each
    # actor it names is interned in ``firsts``, and each message sits in an
    # ``Effect`` that ``steps`` holds.
    steps: dict[tuple[int, int, int, int], Effect] = {}
    posts: dict[tuple[int, int], Actor] = {}
    firsts: dict[str, Actor] = {}

    def intern(a: Actor) -> Actor:
        return firsts.setdefault(facts(a).text, a)

    def post(recv: Actor, msg: Lambda) -> Actor:
        k = (id(recv), id(msg))
        if (out := posts.get(k)) is None:
            out = posts[k] = intern(enqueue(recv, msg))
        return out

    for a in heap.actors.values():
        intern(a)
    init_key = state_key(heap, canonical)
    # Successors by counters, actor ids and actor objects, to their keys;
    # equal tuples name one heap.
    seen: dict[tuple[int, ...], str] = {}
    states = {init_key: heap}
    edges: list[Edge] = []
    parents: dict[str, Edge] = {}
    truncated = False

    # Each state with its distance from the start.
    frontier: deque[tuple[str, int]] = deque([(init_key, 0)])
    while frontier:
        key, d = frontier.popleft()
        rep = states[key]
        enabled = enabled_choices(rep)
        if not enabled:
            continue
        if d >= max_depth:
            truncated = True
            continue
        counters = rep.next_loc, rep.next_id
        for ident in enabled:
            a = rep.actors[ident]
            k = (ident, id(a), *counters)
            if (eff := steps.get(k)) is None:
                e = actor_step(ident, a, *counters, lifo=lifo)
                spawned = e.spawned and intern(e.spawned)
                eff = steps[k] = Effect(intern(e.actor), e.event, e.post, spawned)
            nxt = apply_effect(rep, ident, eff, post)
            shape = (nxt.next_loc, nxt.next_id, *nxt.actors, *map(id, nxt.actors.values()))
            nxt_key = seen.get(shape)
            if nxt_key is None:
                nxt_key = seen[shape] = state_key(nxt, canonical)
            edge = Edge(key, eff.event, nxt_key)
            if nxt_key not in states:
                if len(states) >= max_states:
                    truncated = True
                    continue
                states[nxt_key] = nxt
                parents[nxt_key] = edge
                frontier.append((nxt_key, d + 1))
            edges.append(edge)

    return StateSpace(
        initial=init_key,
        states=states,
        edges=edges,
        parents=parents,
        truncated=truncated,
        canonical=canonical,
        lifo=lifo,
    )


# --------------------------------------------------------------------------
# Machine checks
# --------------------------------------------------------------------------


def _after(trace: tuple[Edge, ...]) -> str:
    """The trace's length and its schedule, one ``actor:kind`` per step."""
    steps = "".join(f" {e.event.actor}:{e.event.kind}" for e in trace)
    return f"after {len(trace)} steps (schedule:{steps})"


@dataclass(frozen=True)
class Counterexample:
    """A state that fails ``check`` (named as in ``check_all``, or
    "batch-adjacency"), what fails there, and a trace to it.  ``heap`` is
    the heap stored for the key ``state``, which the trace's schedule
    replays to; a batch's split path may be longer than the shortest trace,
    and replays to it up to renaming on a canonical space."""

    check: str
    state: str
    heap: Heap
    detail: str
    trace: tuple[Edge, ...]

    def __str__(self) -> str:
        return f"{self.detail} {_after(self.trace)}"


def _first(
    space: StateSpace, check: str, judge: Callable[[Heap], str | None]
) -> Counterexample | None:
    """The first state that ``judge`` fails (it says what fails), or None."""
    for key, rep in space.states.items():
        if (detail := judge(rep)) is not None:
            return Counterexample(check, key, rep, detail, space.trace_to(key))
    return None


def check_progress(space: StateSpace) -> Counterexample | None:
    """First state with a busy actor that cannot step, or None.

    A stuck actor fails the state even while others can move; a state that
    is not properly terminal has a busy actor, or an idle one that can pop.
    ``poised`` names the rule each actor fires from the actor alone (None
    for a stuck one), so truncation cannot produce a false positive: an
    unexpanded frontier state's actors are judged too.
    """

    def stuck(rep: Heap) -> str | None:
        for i, a in rep.actors.items():
            if not is_value(a.current) and poised(a)[0] is None:
                return f"actor {i} is stuck"
        return None

    return _first(space, "progress", stuck)


def check_preservation(space: StateSpace) -> Counterexample | None:
    """First reachable ill-formed state, or None."""

    def ill_formed(rep: Heap) -> str | None:
        report = wf_heap(rep)
        return None if report.ok else f"ill-formed state: {report}"

    return _first(space, "preservation", ill_formed)


def check_race_freedom(space: StateSpace) -> Counterexample | None:
    """First state where two actors' next steps touch the same location."""

    def race(rep: Heap) -> str | None:
        touching = [
            (i, loc)
            for i in sorted(rep.actors)
            if (loc := poised(rep.actors[i])[1]) is not None
        ]
        for i, (a, loc) in enumerate(touching):
            for b, other in touching[i + 1 :]:
                if loc == other:
                    return f"actors {a} and {b} can both touch location {loc}"
        return None

    return _first(space, "race-freedom", race)


@dataclass(frozen=True)
class BatchAdjacency:
    """Maximal paths that keep the owner's batch together or split it, and a split one."""

    adjacent: int
    violated: int
    witness: Counterexample | None

    def __str__(self) -> str:
        s = f"{self.adjacent} adjacent, {self.violated} violated"
        return s if self.witness is None else f"{s}; {self.witness}"


def batch_adjacency(
    space: StateSpace, owner: int, is_batch_op: Callable[[TraceEvent], bool]
) -> BatchAdjacency:
    """Count the maximal paths on which ``owner``'s batch ops run contiguously,
    in one topological pass that carries path counts per (state, monitor)
    pair; the monitor reads the owner's events that touch a location.
    Raises ``ValueError`` on a truncated space, whose cut-off states are not
    path ends, and on a cycle (none arises for a terminating program
    explored with ``canonical=False``)."""
    if space.truncated:
        raise ValueError("state space is truncated; cannot count maximal paths")
    BEFORE, INSIDE, AFTER, VIOLATED = range(4)
    # The monitor's move on a batch op and on another op, by the state it leaves.
    moves = {True: (INSIDE, INSIDE, VIOLATED, VIOLATED), False: (BEFORE, AFTER, AFTER, VIOLATED)}
    indeg = Counter(e.dst for e in space.edges)
    ready = [k for k in space.states if not indeg[k]]
    paths = defaultdict(Counter, {space.initial: Counter({BEFORE: 1})})
    first = {(space.initial, BEFORE): ()}  # the first path found to each node
    while ready:
        key = ready.pop()
        for e in space.successors(key):
            move = range(4)
            if e.event.actor == owner and e.event.touched_loc is not None:
                move = moves[is_batch_op(e.event)]
            for m, n in paths[key].items():
                if (e.dst, move[m]) not in first:
                    first[e.dst, move[m]] = (*first[key, m], e)
                paths[e.dst][move[m]] += n
            indeg[e.dst] -= 1
            if not indeg[e.dst]:
                ready.append(e.dst)
    if any(indeg.values()):
        raise ValueError("state graph has a cycle; cannot count paths")
    ends = [k for k in space.states if not space.successors(k)]
    split = [k for k in ends if paths[k][VIOLATED]]
    kept = sum(paths[k].total() - paths[k][VIOLATED] for k in ends)
    witness = None
    if split:
        end = split[0]
        witness = Counterexample(
            "batch-adjacency", end, space.states[end], "a batch is split", first[end, VIOLATED]
        )
    return BatchAdjacency(kept, sum(paths[k][VIOLATED] for k in split), witness)


def check_all(space: StateSpace) -> dict[str, Counterexample | None]:
    """Run the three checks; values are None on success."""
    return {
        "progress": check_progress(space),
        "preservation": check_preservation(space),
        "race-freedom": check_race_freedom(space),
    }

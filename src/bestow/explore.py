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

Keys and all three checks read the records each actor and term keeps on
itself (see ``wellformed.facts``); choices read the one ``semantics.poised``
value each actor keeps.  The explorer interns every
actor it makes: each actor state has one object, rendered and judged once,
and a successor is looked up by its actor objects before it is keyed.  The
space stores no copy of a state's choices or depth.  Each check returns
``None`` on success or a counterexample carrying the offending state and a
shortest trace to it, printed as its schedule.
``batch_adjacency`` checks contiguous batches on the same graph in one pass:
it counts the maximal paths that split a batch and gives one as a schedule.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

from .syntax import Actor, Heap, Lambda, is_value
from .semantics import (
    Effect,
    SchedulerChoice,
    TraceEvent,
    actor_step,
    apply_effect,
    enabled_choices,
    enqueue,
    poised,
)
from .wellformed import ActorFacts, TermFacts, WfReport, facts, wf_heap

DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_DEPTH = 64


# --------------------------------------------------------------------------
# Canonical renaming
# --------------------------------------------------------------------------


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
                f"(actor {new[~ident]} {new[heap.actors[ident].this_loc]} (lh {lh}) (q {q}) "
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
    truncated: bool
    canonical: bool
    lifo: bool
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
    # Memoized transitions, keyed by object identity; each entry holds the
    # objects its key names, so no id is reused while it lives.  A step is
    # a pure function of the actor and its id (``bestow`` names the
    # stepper), the choice kind and the fresh-name counters, the queue
    # order being fixed per space; a post is one of the receiver and the
    # message.  Every actor a miss makes is interned: ``firsts`` maps each
    # actor state's key fragment to the first object with it, so each actor
    # state has one object however it was reached, and its step, record
    # and key fragment are worked out once.
    steps: dict[tuple[int, int, str, int, int], tuple[Actor, Effect]] = {}
    posts: dict[tuple[int, int], tuple[Actor, Lambda, Actor]] = {}
    firsts: dict[str, Actor] = {}

    def intern(a: Actor) -> Actor:
        return firsts.setdefault(facts(a).text, a)

    def post(recv: Actor, msg: Lambda) -> Actor:
        k = (id(recv), id(msg))
        hit = posts.get(k)
        if hit is None:
            hit = posts[k] = (recv, msg, intern(enqueue(recv, msg)))
        return hit[2]

    for a in heap.actors.values():
        intern(a)
    init_key = state_key(heap, canonical)
    # Successors by counters, actor ids and actor objects, to their keys.
    # ``firsts`` holds every interned actor, so no id in a tuple is reused
    # and equal tuples name one heap.
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
        for choice in enabled:
            ident, kind = choice.actor, choice.kind
            a = rep.actors[ident]
            k = (ident, id(a), kind, *counters)
            hit = steps.get(k)
            if hit is None:
                e = actor_step(ident, a, kind, *counters, lifo=lifo)
                spawned = e.spawned and intern(e.spawned)
                hit = steps[k] = (a, Effect(intern(e.actor), e.rule, e.loc, e.post, spawned))
            eff = hit[1]
            nxt = apply_effect(rep, ident, eff, post)
            event = TraceEvent(d, ident, eff.rule, eff.loc)
            shape = (nxt.next_loc, nxt.next_id, *nxt.actors, *map(id, nxt.actors.values()))
            nxt_key = seen.get(shape)
            if nxt_key is None:
                nxt_key = seen[shape] = state_key(nxt, canonical)
            if nxt_key not in states:
                if len(states) >= max_states:
                    truncated = True
                    continue
                states[nxt_key] = nxt
                edge = Edge(key, choice, event, nxt_key)
                parents[nxt_key] = edge
                edges.append(edge)
                frontier.append((nxt_key, d + 1))
            else:
                edges.append(Edge(key, choice, event, nxt_key))

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
    ``poised`` gives each actor's choice from the actor alone, so truncation
    cannot produce a false positive: an unexpanded frontier state's actors
    are judged too.
    """
    for key, rep in space.states.items():
        if any(
            not is_value(a.current) and poised(a)[0] != "step"
            for a in rep.actors.values()
        ):
            return ProgressFailure(key, rep, tuple(space.trace_to(key)))
    return None


def check_preservation(space: StateSpace) -> PreservationFailure | None:
    """First reachable ill-formed state, or None."""
    for key, rep in space.states.items():
        report = wf_heap(rep)
        if not report.ok:
            return PreservationFailure(key, rep, report, tuple(space.trace_to(key)))
    return None


def check_race_freedom(space: StateSpace) -> RaceWitness | None:
    """First state where two actors' next steps touch the same location."""
    for key, rep in space.states.items():
        touching = [
            (i, loc)
            for i in sorted(rep.actors)
            if (loc := poised(rep.actors[i])[1]) is not None
        ]
        for i, (a, loc) in enumerate(touching):
            for b, other in touching[i + 1 :]:
                if loc == other:
                    return RaceWitness(key, rep, (a, b), loc, tuple(space.trace_to(key)))
    return None


@dataclass(frozen=True)
class BatchAdjacency:
    """Maximal paths that keep the owner's batch together or split it, and a split one."""

    adjacent: int
    violated: int
    witness: tuple[Edge, ...] | None

    def __str__(self) -> str:
        s = f"{self.adjacent} adjacent, {self.violated} violated"
        return s if self.witness is None else f"{s}; a batch is split {_after(self.witness)}"


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
    witness = first[split[0], VIOLATED] if split else None
    return BatchAdjacency(kept, sum(paths[k][VIOLATED] for k in split), witness)


def check_all(space: StateSpace) -> dict[str, object | None]:
    """Run the three checks; values are None on success."""
    return {
        "progress": check_progress(space),
        "preservation": check_preservation(space),
        "race-freedom": check_race_freedom(space),
    }

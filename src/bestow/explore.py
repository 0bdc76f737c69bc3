"""Bounded exploration of the interleaving space, plus machine checks.

``explore`` runs a breadth-first search over every scheduler choice (the
id of an actor that can move) from an initial heap, deduplicating states by
a key that is canonical up to the renaming of actor ids and heap locations.
Each state is stored as the heap its shortest trace reaches, so every trace
replays from the initial heap.
Each stored state is judged for three checks as it is expanded, in the
order states were stored, and each check's first failure is recorded in
the space's ``verdicts``, which ``check_all`` copies:

* ``progress`` — in every reachable state each busy actor can step (so a
  state is properly terminal, all actors idle and all queues empty, or has
  an enabled choice);
* ``preservation`` — every reachable state is well-formed;
* ``race-freedom`` — no reachable state lets two distinct actors touch the
  same location with their next steps.

Keys and all three checks read the facts each actor and term keeps on
itself as plain attributes (``Actor.facts`` and ``Actor.wf_clauses``, see
``wellformed``); choices read the one ``Actor.poised`` each actor keeps
(see ``semantics``), in the same pass over a state's actors as the
checks.  The explorer interns every actor it makes: each actor state has
one object, rendered and judged once, and a successor is looked up by its
actor objects before it is keyed or built as a ``Heap``.  The canonical
renaming reads only the actor ids and each actor's slots and local heap, so
each ``explore`` call keeps one renaming per such numbering signature and
walks each signature once, however many states share it.  The space stores
no copy of a state's choices or depth.  Each edge is a plain tuple
(``Edge``, a ``NamedTuple``) holding the event its step made, one object
per memoized step.  Each check, and ``batch_adjacency`` (which counts in
one pass the maximal paths that split a batch), gives a
failure as one ``Counterexample``: the check's name, the failing state and
heap, a ``detail`` saying what fails there, and a trace to it, printed as
``<detail> after N steps (schedule: ...)``, one event's actor and ``kind``
per step.  ``None`` stands for success.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .syntax import Actor, Heap, Lambda, Value
from .semantics import (
    Effect,
    TraceEvent,
    _apply,
    actor_step,
    enabled_choices,
    enqueue,
)
from .wellformed import ActorFacts, WfReport, wf_heap

DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_DEPTH = 64


# --------------------------------------------------------------------------
# Canonical renaming
# --------------------------------------------------------------------------


def _renaming(
    ids: list[int], actors: dict[int, ActorFacts]
) -> tuple[dict[int, int], list[int]] | None:
    """The canonical renaming of a heap given its actor ids, ascending, and
    their records (None if it changes no number): a map from slot codes (see
    ``wellformed.TermFacts``) to new numbers, and the ids in their new order.

    The walk starts at the root (the lowest surviving actor id) and visits
    actors breadth-first, scanning each one's slots (see ``ActorFacts``),
    and notes on the way whether every number stays as it is.
    Actors unreachable from the root do arise (once the root has sent to
    two spawned actors, it holds neither id); each starts a new walk, in
    original-id order, so two heaps that differ only in such ids get
    different keys.  It reads only ``ids`` and each record's ``slots`` and
    ``lh`` (its ``numbering``), which is what lets ``state_key`` keep it.
    """
    new: dict[int, int] = {}
    order: list[int] = []
    locs = 0
    same = True
    for root in ids:
        if ~root in new:
            continue
        pos = new[~root] = len(order)
        same &= pos == root
        order.append(root)
        while pos < len(order):
            slots = actors[order[pos]].slots
            pos += 1
            for k in slots:
                if k not in new:
                    if k >= 0:
                        new[k] = locs
                        same &= locs == k
                        locs += 1
                    else:
                        new[k] = len(order)
                        same &= len(order) == ~k
                        order.append(~k)
    # Locations owned but never mentioned are interchangeable; give them
    # trailing numbers, actor by actor in canonical order.
    for ident in order:
        for loc in actors[ident].lh:
            if loc not in new:
                new[loc] = locs
                same &= locs == loc
                locs += 1
    return None if same else (new, order)


def state_key(heap: Heap, canonical: bool = True, renamings: dict | None = None) -> str:
    """A hashable identity for a heap, joined from its actors' fragments.

    Canonical keys render ``heap`` renamed by ``_renaming``: they quotient
    out the numbering of ids/locations and the fresh-name counters.  Exact
    keys are ``render_heap(heap, include_counters=True)``: they include
    everything, which keeps actor ids stable along a path (useful when a
    test needs to follow one actor across states).  When no number changes,
    the key joins the cached fragments as they are.  ``renamings``, if
    given, keeps each renaming by its numbering signature (the ids and each
    record's ``numbering``), so heaps that share one walk it once.
    """
    actors = {i: a.facts for i, a in heap.actors.items()}
    ids = sorted(actors)
    renamed = None
    if canonical:
        renamings = {} if renamings is None else renamings
        sig = (*ids, *[actors[i].numbering for i in ids])
        renamed = renamings.get(sig, False)
        if renamed is False:
            renamed = renamings[sig] = _renaming(ids, actors)
    if renamed is None:
        parts = [f"(actor {i} {actors[i].text}" for i in ids]
    else:
        new, order = renamed
        parts = [f"(actor {n} {actors[i].render(new)}" for n, i in enumerate(order)]
    head = "(heap " if canonical else f"(heap [{heap.next_loc} {heap.next_id}] "
    return head + " ".join(parts) + ")"


# --------------------------------------------------------------------------
# State space
# --------------------------------------------------------------------------


class Edge(NamedTuple):
    src: str
    event: TraceEvent
    dst: str


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


_CHECKS = ("progress", "preservation", "race-freedom")


@dataclass
class StateSpace:
    """The states ``explore`` stored, the edges between them, and each
    check's verdict.

    ``verdicts`` maps each check's name (``progress``, ``preservation``,
    ``race-freedom``; see ``_judge_state``) to its first failing state, in
    discovery order, as a ``Counterexample``, or to None if no stored state
    fails it.  ``check_all`` returns a copy.
    """

    initial: str
    states: dict[str, Heap]
    edges: list[Edge]
    parents: dict[str, Edge]
    truncated: bool
    canonical: bool
    lifo: bool
    verdicts: dict[str, Counterexample | None] = field(
        default_factory=lambda: dict.fromkeys(_CHECKS)
    )
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


def _race(touching: list[tuple[int, int]]) -> str | None:
    """The first two actors, by id, whose next steps touch one location;
    ``touching`` pairs each actor whose next step touches a location with
    that location, ascending by id."""
    for n, (a, loc) in enumerate(touching):
        for b, other in touching[n + 1 :]:
            if loc == other:
                return f"actors {a} and {b} can both touch location {loc}"
    return None


def _judge_state(space: StateSpace, key: str, rep: Heap, report: WfReport | None) -> list[int]:
    """The ids of the actors that can move in ``rep``, ascending, read in one
    pass that also judges the state stored at ``key``: each check that has
    not yet failed records its ``Counterexample`` here if ``rep`` fails it.
    ``report`` is ``rep``'s wf report if already made.

    * progress: a busy actor that cannot step (``poised`` names no rule)
      fails the state, even while others can move; the first in the heap's
      order is named.  ``poised`` reads the actor alone, so truncation
      cannot produce a false positive: an unexpanded frontier state's
      actors are judged too;
    * preservation: ``rep`` is ill-formed;
    * race-freedom: two actors' next steps touch the same location.
    """
    enabled: list[int] = []
    touching: list[tuple[int, int]] = []
    stuck = None
    for i, a in rep.actors.items():
        rule, loc = a.poised
        if rule is not None:
            enabled.append(i)
            if loc is not None:
                touching.append((i, loc))
        elif stuck is None and not isinstance(a.current, Value):
            stuck = f"actor {i} is stuck"
    enabled.sort()
    touching.sort()
    verdicts = space.verdicts
    ill = None
    if verdicts["preservation"] is None:
        if report is None:
            report = wf_heap(rep)
        ill = None if report.ok else f"ill-formed state: {report}"
    for check, detail in zip(_CHECKS, (stuck, ill, _race(touching))):
        if detail is not None and verdicts[check] is None:
            verdicts[check] = Counterexample(check, key, rep, detail, space.trace_to(key))
    return enabled


def explore(
    heap: Heap,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    lifo: bool = False,
    canonical: bool = True,
    require_wf: bool = True,
) -> StateSpace:
    """Breadth-first exploration of every scheduler interleaving, judging
    each stored state for the three checks as it is expanded.

    Stops expanding once ``max_states`` states have been collected or a
    state sits at ``max_depth`` steps from the start; ``truncated`` reports
    whether any frontier was cut off.  Every stored state is judged, those
    at ``max_depth`` too.  The initial heap must be well-formed (disable
    with ``require_wf`` for deliberately broken inputs).
    """
    report: WfReport | None = wf_heap(heap)
    if require_wf and not report.ok:
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
        return firsts.setdefault(a.facts.text, a)

    def post(recv: Actor, msg: Lambda) -> Actor:
        k = (id(recv), id(msg))
        if (out := posts.get(k)) is None:
            out = posts[k] = intern(enqueue(recv, msg))
        return out

    for a in heap.actors.values():
        intern(a)
    # Renamings by numbering signature, for ``state_key``.
    renamings: dict[tuple, tuple[dict[int, int], list[int]] | None] = {}
    init_key = state_key(heap, canonical, renamings)
    # Successors by counters, actor ids and actor objects, to their keys;
    # equal tuples name one heap, which is built only the first time.
    seen: dict[tuple[int, ...], str] = {}
    space = StateSpace(init_key, {init_key: heap}, [], {}, False, canonical, lifo)
    states, edges, parents = space.states, space.edges, space.parents

    # Each state with its distance from the start, popped in the order it
    # was stored, so each check records its first failure in that order.
    frontier: deque[tuple[str, int]] = deque([(init_key, 0)])
    while frontier:
        key, d = frontier.popleft()
        rep = states[key]
        enabled = _judge_state(space, key, rep, report)
        report = None
        if not enabled:
            continue
        if d >= max_depth:
            space.truncated = True
            continue
        counters = rep.next_loc, rep.next_id
        for ident in enabled:
            a = rep.actors[ident]
            k = (ident, id(a), *counters)
            if (eff := steps.get(k)) is None:
                e = actor_step(ident, a, *counters, lifo=lifo)
                spawned = e.spawned and intern(e.spawned)
                eff = steps[k] = Effect(intern(e.actor), e.event, e.post, spawned)
            actors = dict(rep.actors)
            nxt_counters = _apply(actors, *counters, ident, eff, post)
            shape = (*nxt_counters, *actors, *map(id, actors.values()))
            if (nxt_key := seen.get(shape)) is None:
                nxt = Heap(actors, *nxt_counters)
                nxt_key = seen[shape] = state_key(nxt, canonical, renamings)
            edge = Edge(key, eff.event, nxt_key)
            if nxt_key not in states:
                # Only a new shape gets here with room to store: a seen
                # shape's key was stored, or cut off once the space was
                # full, which it stays.
                if len(states) >= max_states:
                    space.truncated = True
                    continue
                states[nxt_key] = nxt
                parents[nxt_key] = edge
                frontier.append((nxt_key, d + 1))
            edges.append(edge)
    return space


# --------------------------------------------------------------------------
# Machine checks
# --------------------------------------------------------------------------


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
    """The three checks' verdicts (see ``StateSpace``); values are None on success."""
    return dict(space.verdicts)

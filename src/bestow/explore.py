"""Bounded exploration of the interleaving space, plus machine checks.

``explore`` runs a breadth-first search over every scheduler choice from an
initial heap, deduplicating states up to a canonical renaming of actor ids
and heap locations.  On the resulting state graph, three checks replay the
soundness story:

* ``check_progress`` — every reachable state either is properly terminal
  (all actors idle, all queues empty) or has an enabled choice;
* ``check_preservation`` — every reachable state is well-formed;
* ``check_race_freedom`` — no reachable state lets two distinct actors
  touch the same location with their next steps.

Each check returns ``None`` on success or a counterexample carrying the
offending state and a shortest trace to it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .syntax import (
    Actor,
    ActorId,
    BestowedLoc,
    Heap,
    Loc,
    Value,
    is_value,
    map_values,
    render_heap,
    walk,
)
from .semantics import (
    SchedulerChoice,
    TraceEvent,
    enabled_choices,
    step_footprint,
    step_system,
)
from .wellformed import WfReport, assert_wf, wf_heap

DEFAULT_MAX_STATES = 50_000
DEFAULT_MAX_DEPTH = 64


# --------------------------------------------------------------------------
# Canonical renaming
# --------------------------------------------------------------------------


def canonicalize(heap: Heap) -> Heap:
    """Rename actor ids and locations into first-encounter order.

    The walk starts at the root (the lowest surviving actor id) and visits
    actors breadth-first, scanning each actor deterministically (its own
    location, then its current expression in preorder, then its queue).
    Two heaps that differ only in the numbering of ids and locations map to
    the same canonical heap; fresh-name counters are normalized away.

    Actors unreachable from the root are appended in original-id order; such
    actors cannot arise from executing a single program (spawning hands the
    new id to the spawner), so this tie-break is a don't-care.
    """
    id_map: dict[int, int] = {}
    loc_map: dict[int, int] = {}

    def visit_actor(ident: int, pending: deque[int]) -> None:
        a = heap.actors[ident]
        if a.this_loc not in loc_map:
            loc_map[a.this_loc] = len(loc_map)
        for term in (a.current, *a.queue):
            for v in walk(term):
                t = type(v)
                if t is Loc or t is BestowedLoc:
                    if v.loc not in loc_map:
                        loc_map[v.loc] = len(loc_map)
                if t is ActorId or t is BestowedLoc:
                    owner = v.ident if t is ActorId else v.owner
                    if owner not in id_map:
                        id_map[owner] = len(id_map)
                        pending.append(owner)

    pending: deque[int] = deque()
    roots = sorted(heap.actors)
    if roots:
        id_map[roots[0]] = 0
        pending.append(roots[0])
    while pending:
        visit_actor(pending.popleft(), pending)
        if not pending:
            for ident in roots:
                if ident not in id_map:
                    id_map[ident] = len(id_map)
                    pending.append(ident)
                    break

    # Locations owned but never mentioned are interchangeable; give them
    # trailing numbers, actor by actor in canonical order.
    for ident in sorted(id_map, key=id_map.get):
        for loc in sorted(heap.actors[ident].local_heap):
            if loc not in loc_map:
                loc_map[loc] = len(loc_map)

    # Values whose numbers do not change are kept, so the canonical heap
    # shares every unchanged subterm with ``heap``.
    def rewrite(v: Value) -> Value:
        t = type(v)
        if t is Loc:
            loc = loc_map[v.loc]
            return v if loc == v.loc else Loc(loc)
        if t is ActorId:
            ident = id_map[v.ident]
            return v if ident == v.ident else ActorId(ident)
        if t is BestowedLoc:
            loc, owner = loc_map[v.loc], id_map[v.owner]
            if loc == v.loc and owner == v.owner:
                return v
            return BestowedLoc(loc, owner)
        return v

    actors: dict[int, Actor] = {}
    for ident, a in heap.actors.items():
        actors[id_map[ident]] = Actor(
            this_loc=loc_map[a.this_loc],
            local_heap=frozenset(loc_map[loc] for loc in a.local_heap),
            queue=tuple(map_values(m, rewrite) for m in a.queue),
            current=map_values(a.current, rewrite),
        )
    return Heap(actors, next_loc=len(loc_map), next_id=len(id_map))


def _represent(heap: Heap, canonical: bool) -> tuple[str, Heap]:
    """The key of ``heap`` and the heap stored under it, canonicalized once."""
    if canonical:
        rep = canonicalize(heap)
        return render_heap(rep), rep
    return render_heap(heap, include_counters=True), heap


def state_key(heap: Heap, canonical: bool = True) -> str:
    """A hashable identity for a heap.

    Canonical keys quotient out the numbering of ids/locations and the
    fresh-name counters; exact keys include everything, which keeps actor
    ids stable along a path (useful when a test needs to follow one actor
    across states).
    """
    return _represent(heap, canonical)[0]


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
    _out: dict[str, list[Edge]] = field(default_factory=dict, repr=False)

    @staticmethod
    def singleton(heap: Heap, *, canonical: bool = True) -> StateSpace:
        """A one-state space (no exploration, no well-formedness demand)."""
        key, rep = _represent(heap, canonical)
        return StateSpace(
            initial=key,
            states={key: rep},
            edges=[],
            parents={},
            depth={key: 0},
            truncated=False,
            canonical=canonical,
            lifo=False,
        )

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
        return [k for k in self.states if not enabled_choices(self.states[k])]

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

    init_key, init_rep = _represent(heap, canonical)
    states: dict[str, Heap] = {init_key: init_rep}
    edges: list[Edge] = []
    parents: dict[str, Edge] = {}
    depth: dict[str, int] = {init_key: 0}
    truncated = False

    frontier: deque[str] = deque([init_key])
    while frontier:
        key = frontier.popleft()
        rep = states[key]
        d = depth[key]
        choices = enabled_choices(rep)
        if not choices:
            continue
        if d >= max_depth:
            truncated = True
            continue
        for choice in choices:
            nxt, event = step_system(rep, choice, step_index=d, lifo=lifo)
            nxt_key, nxt_rep = _represent(nxt, canonical)
            if nxt_key not in states:
                if len(states) >= max_states:
                    truncated = True
                    continue
                states[nxt_key] = nxt_rep
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
    )


# --------------------------------------------------------------------------
# Machine checks
# --------------------------------------------------------------------------


def properly_terminal(heap: Heap) -> bool:
    """All actors idle on a value with nothing queued anywhere."""
    return all(
        is_value(a.current) and not a.queue for a in heap.actors.values()
    )


@dataclass(frozen=True)
class ProgressFailure:
    """A reachable state that is neither terminal nor able to step."""

    state: str
    heap: Heap
    trace: tuple[Edge, ...]

    def __str__(self) -> str:
        return f"stuck non-terminal state after {len(self.trace)} steps: {self.state}"


@dataclass(frozen=True)
class PreservationFailure:
    """A reachable state that lost well-formedness."""

    state: str
    heap: Heap
    report: WfReport
    trace: tuple[Edge, ...]

    def __str__(self) -> str:
        return (
            f"ill-formed state after {len(self.trace)} steps: {self.report}"
        )


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
            f"after {len(self.trace)} steps"
        )


def check_progress(space: StateSpace) -> ProgressFailure | None:
    """First stuck non-terminal state, or None.

    Enabled choices are recomputed per state, so truncation cannot produce
    a false positive: an unexpanded frontier state still reports its
    choices.
    """
    for key in space.states:
        rep = space.states[key]
        if enabled_choices(rep):
            continue
        if properly_terminal(rep):
            continue
        return ProgressFailure(key, rep, tuple(space.trace_to(key)))
    return None


def check_preservation(space: StateSpace) -> PreservationFailure | None:
    """First reachable ill-formed state, or None."""
    for key in space.states:
        rep = space.states[key]
        report = wf_heap(rep)
        if not report.ok:
            return PreservationFailure(key, rep, report, tuple(space.trace_to(key)))
    return None


def check_race_freedom(space: StateSpace) -> RaceWitness | None:
    """First state where two actors' next steps overlap on a location."""
    for key in space.states:
        rep = space.states[key]
        footprints = [
            (c.actor, step_footprint(rep, c))
            for c in enabled_choices(rep)
            if c.kind == "step"
        ]
        for i in range(len(footprints)):
            for j in range(i + 1, len(footprints)):
                a, fa = footprints[i]
                b, fb = footprints[j]
                if a == b:
                    continue
                shared = fa & fb
                if shared:
                    return RaceWitness(
                        key, rep, (a, b), min(shared), tuple(space.trace_to(key))
                    )
    return None


def find_race(heap: Heap) -> RaceWitness | None:
    """Race check on a single heap as-is (no exploration, wf not required)."""
    return check_race_freedom(StateSpace.singleton(heap, canonical=False))


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

"""State-space exploration, canonical identity, and the three checks."""

from __future__ import annotations

import gc
import re
import runpy
from collections import deque
from pathlib import Path

import pytest

from bestow.explore import (
    BatchAdjacency,
    Counterexample,
    StateSpace,
    batch_adjacency,
    check_all,
    explore,
    state_key,
)
from bestow.semantics import TraceEvent, initial_heap, step_system
from bestow.surface import compile_program
from bestow.syntax import (
    Actor,
    ActorId,
    App,
    Bestow,
    Heap,
    Lambda,
    Loc,
    Mutate,
    NewPassive,
    Passive,
    Send,
    UnitType,
    UnitVal,
    Var,
)
from bestow.wellformed import wf_heap

P = Passive()
UNIT = UnitVal()
# The batching script holds an unbatched program whose batch can split.
BATCHING = runpy.run_path(str(Path(__file__).parent.parent / "scripts/batching_adjacency.py"))


def space_of(src: str, **kw) -> StateSpace:
    return explore(initial_heap(compile_program(src)), **kw)


def race_in(heap: Heap) -> Counterexample | None:
    """The race check on ``heap`` alone: no step taken, wf not required."""
    space = explore(heap, max_depth=0, canonical=False, require_wf=False)
    return space.verdicts["race-freedom"]


# --- canonicalization -----------------------------------------------------


def test_canonicalize_renames_to_encounter_order():
    msg = Lambda("x", P, UNIT)
    h = Heap(
        {
            7: Actor(30, frozenset({30}), (), Send(ActorId(9), msg)),
            9: Actor(41, frozenset({41}), (), UNIT),
        },
        next_loc=99,
        next_id=99,
    )
    assert state_key(h) == (
        "(heap (actor 0 0 (lh 0) (q ) (send (id 1) (fn (x : p) unit))) "
        "(actor 1 1 (lh 1) (q ) unit))"
    )


def test_canonicalize_is_invariant_under_renaming():
    msg = Lambda("x", P, UNIT)

    def build(root_id, other_id, root_loc, other_loc, extra):
        return Heap(
            {
                root_id: Actor(
                    root_loc,
                    frozenset({root_loc, extra}),
                    (msg,),
                    Send(ActorId(other_id), msg),
                ),
                other_id: Actor(other_loc, frozenset({other_loc}), (), UNIT),
            },
            next_loc=max(root_loc, other_loc, extra) + 1,
            next_id=max(root_id, other_id) + 1,
        )

    a = build(0, 1, 0, 1, 2)
    b = build(3, 8, 17, 4, 11)
    assert state_key(a) == state_key(b)


def test_a_shared_renaming_memo_tells_id_sets_apart():
    """Two heaps whose actors have the same slots and local heaps but other
    ids share no renaming: one keeps its numbering, the other is renamed."""
    first, second = Actor(0, frozenset({0}), (), UNIT), Actor(1, frozenset({1}), (), UNIT)
    heaps = [Heap({0: first, 1: second}, 2, 2), Heap({0: first, 2: second}, 2, 3)]
    renamings: dict = {}
    keys = [state_key(h, True, renamings) for h in heaps]
    assert keys == [state_key(h) for h in heaps]
    assert keys[0] == keys[1] == "(heap (actor 0 0 (lh 0) (q ) unit) (actor 1 1 (lh 1) (q ) unit))"
    assert len(renamings) == 2


def test_exact_keys_distinguish_counters():
    h1 = Heap({0: Actor(0, frozenset({0}), (), UNIT)}, 1, 1)
    h2 = Heap({0: Actor(0, frozenset({0}), (), UNIT)}, 5, 1)
    assert state_key(h1, canonical=False) != state_key(h2, canonical=False)
    assert state_key(h1, canonical=True) == state_key(h2, canonical=True)


def test_canonical_merges_symmetric_interleavings():
    # two independent spawns commute; canonical identity merges the results
    src = "val a = new c; val b = new c; a ! \\x:p. new p; b ! \\x:p. new p"
    canon = space_of(src)
    exact = space_of(src, canonical=False)
    assert len(canon.states) <= len(exact.states)


# --- exploration ----------------------------------------------------------


def test_terminal_program_has_one_state():
    space = space_of("()")
    assert len(space.states) == 1
    assert space.terminal_states() == [space.initial]
    assert not space.truncated


def test_sequential_program_is_a_chain():
    space = space_of("new p")
    assert len(space.states) == 2
    assert len(space.edges) == 1


def test_explore_deterministic():
    src = "val a = new c; a ! \\x:p. x.mutate(); new p"
    s1, s2 = space_of(src), space_of(src)
    assert s1.states.keys() == s2.states.keys()
    assert s1.edges == s2.edges


def distances(space: StateSpace) -> dict[str, int]:
    """Each state's distance from the initial state, by a breadth-first
    search over ``space.edges``."""
    out = {space.initial: 0}
    frontier = deque([space.initial])
    while frontier:
        key = frontier.popleft()
        for edge in space.successors(key):
            if edge.dst not in out:
                out[edge.dst] = out[key] + 1
                frontier.append(edge.dst)
    return out


def test_depth_and_parents_consistent():
    for src in [
        "val a = new c; a ! \\x:p. x.mutate()",
        "val a = new c; val b = new c; a ! \\x:p. new p; b ! \\x:p. new p",
    ]:
        space = space_of(src)
        dist = distances(space)
        assert dist.keys() == space.states.keys()
        for key in space.states:
            path = space.trace_to(key)
            assert len(path) == dist[key]
            at = space.initial
            for edge in path:
                assert edge.src == at
                at = edge.dst
            assert at == key


def test_truncation_by_states():
    space = space_of(
        "val a = new c; val b = new c; a ! \\x:p. new p; b ! \\x:p. new p",
        max_states=3,
    )
    assert space.truncated
    assert len(space.states) == 3


def test_truncation_by_depth():
    space = space_of("val a = new c; a ! \\x:p. x.mutate()", max_depth=2)
    assert space.truncated
    # progress must not mistake an unexpanded frontier for a stuck state
    assert space.verdicts["progress"] is None


def test_explore_requires_wf_by_default():
    bad = Heap({0: Actor(0, frozenset({0}), (), Mutate(Loc(9)))}, 10, 1)
    with pytest.raises(ValueError):
        explore(bad)
    space = explore(bad, require_wf=False)
    assert len(space.states) >= 1


def test_lifo_explore_changes_reachable_outcomes():
    # Under FIFO the mutate message is always delivered last, so every
    # terminal current is unit.  Under LIFO the allocation can be delivered
    # last, leaving its location as an extra observable outcome.
    src = "val a = new c; a ! \\x:p. new p; a ! \\x:p. x.mutate()"
    fifo = space_of(src)
    lifo = space_of(src, lifo=True)
    assert fifo.lifo is False and lifo.lifo is True
    assert set(fifo.terminal_states()) < set(lifo.terminal_states())
    assert check_all(lifo) == {
        "progress": None,
        "preservation": None,
        "race-freedom": None,
    }


# --- the three checks -----------------------------------------------------


def test_checks_pass_on_good_programs():
    for src in [
        "()",
        "new p",
        "val a = new c; a ! \\x:p. x.mutate()",
        "val obj = new p; val b = bestow obj; b ! \\y:p. y.mutate()",
        "val a = new c; val b = new c; a ! \\x:p. new p; b ! \\x:p. bestow new p; ()",
    ]:
        space = space_of(src)
        assert not space.truncated
        assert check_all(space) == {
            "progress": None,
            "preservation": None,
            "race-freedom": None,
        }


def test_properly_terminal():
    # terminal: every actor idle with nothing queued, so no choice is enabled
    space = explore(initial_heap(UNIT))
    assert space.terminal_states() == [space.initial]
    for heap in [
        initial_heap(Mutate(Loc(0))),
        Heap({0: Actor(0, frozenset({0}), (Lambda("x", P, UNIT),), UNIT)}, 1, 1),
    ]:
        assert explore(heap, max_depth=0).terminal_states() == []


# Negative controls: heaps built directly, past the wf gate, that fail a check.


def _stuck_alone() -> Heap:
    """A send to a plain location, well typed nowhere: no actor can move."""
    return Heap(
        {0: Actor(0, frozenset({0}), (), Send(Loc(0), Lambda("x", P, UNIT)))},
        1,
        1,
    )


def _stuck_beside_busy() -> Heap:
    """Actor 0 can never step; actor 1 still has two applications to run."""
    inner = App(Lambda("y", UnitType(), UNIT), UNIT)
    busy = App(Lambda("x", UnitType(), inner), UNIT)
    return Heap(
        {
            0: Actor(0, frozenset({0}), (), Mutate(UNIT)),
            1: Actor(1, frozenset({1}), (), busy),
        },
        2,
        2,
    )


def _stuck_listed_high_first() -> Heap:
    """Two stuck actors, the higher id first in the heap's order."""
    return Heap(
        {
            3: Actor(3, frozenset({3}), (), Mutate(UNIT)),
            1: Actor(1, frozenset({1}), (), Mutate(UNIT)),
        },
        4,
        4,
    )


def _ill_formed() -> Heap:
    """Actor 0 mutates location 9, outside its local heap."""
    return Heap({0: Actor(0, frozenset({0}), (), Mutate(Loc(9)))}, 10, 1)


def _shared_location() -> Heap:
    """Actors 0 and 1 both mutate location 5 next."""
    return Heap(
        {
            0: Actor(0, frozenset({0, 5}), (), Mutate(Loc(5))),
            1: Actor(1, frozenset({1}), (), Mutate(Loc(5))),
        },
        10,
        10,
    )


def test_progress_failure_on_stuck_state():
    space = explore(_stuck_alone(), require_wf=False)
    failure = space.verdicts["progress"]
    assert failure is not None
    assert failure.trace == ()
    assert str(failure) == "actor 0 is stuck after 0 steps (schedule:)"


def test_progress_failure_on_stuck_actor_beside_a_busy_one():
    space = explore(_stuck_beside_busy(), require_wf=False, max_depth=1)
    failure = space.verdicts["progress"]
    assert failure is not None
    assert failure.trace == ()
    assert failure.detail == "actor 0 is stuck"


def _stuck_after_one_step() -> Heap:
    """Actor 5 applies once and is then stuck beside busy actor 2."""
    inner = App(Lambda("y", UnitType(), UNIT), UNIT)
    busy = App(Lambda("x", UnitType(), inner), UNIT)
    stuck = App(Lambda("x", UnitType(), Mutate(UNIT)), UNIT)
    return Heap(
        {
            2: Actor(3, frozenset({3}), (), busy),
            5: Actor(8, frozenset({8}), (), stuck),
        },
        9,
        6,
    )


def _race_after_one_step() -> Heap:
    """Actor 4 applies once and then, like actor 9, mutates location 5."""
    late = App(Lambda("x", UnitType(), Mutate(Loc(5))), UNIT)
    return Heap(
        {
            4: Actor(1, frozenset({1, 5}), (), late),
            9: Actor(2, frozenset({2}), (), Mutate(Loc(5))),
        },
        6,
        10,
    )


NEGATIVE_CONTROLS = (
    _stuck_alone,
    _stuck_beside_busy,
    _stuck_listed_high_first,
    _stuck_after_one_step,
    _ill_formed,
    _shared_location,
    _race_after_one_step,
)


def replay_printed(heap: Heap, printed: str) -> tuple[Heap, list[TraceEvent]]:
    """Replay from ``heap`` the ``(schedule: ...)`` a result prints: the
    heap it ends on and the events of its steps."""
    schedule = re.search(r"\(schedule:((?: \d+:(?:pop|step))*)\)", printed)
    assert schedule is not None
    events = []
    for tok in schedule.group(1).split():
        actor, kind = tok.split(":")
        heap, event = step_system(heap, int(actor))
        assert event.kind == kind
        events.append(event)
    return heap, events


def _found(space: StateSpace, check: str) -> Counterexample | None:
    if check == "batch-adjacency":
        return batch_adjacency(space, 0, lambda ev: ev.rule == "mutate").witness
    return space.verdicts[check]


# Explicit ids keep the ids these tests have long been tracked by.
@pytest.mark.parametrize(
    "heap,check,steps",
    [
        pytest.param(_stuck_after_one_step(), "progress", 1, id="heap0-check_progress"),
        pytest.param(_race_after_one_step(), "race-freedom", 1, id="heap1-check_race_freedom"),
        pytest.param(
            initial_heap(compile_program(BATCHING["UNBATCHED"])),
            "batch-adjacency",
            31,
            id="heap2-_split_batch",
        ),
    ],
)
@pytest.mark.parametrize("canonical", [True, False])
def test_printed_schedule_replays_to_the_counterexample(heap, check, steps, canonical):
    failure = _found(explore(heap, require_wf=False, canonical=canonical), check)
    assert failure is not None
    assert failure.check == check
    heap, events = replay_printed(heap, str(failure))
    assert len(events) == len(failure.trace) == steps
    assert events == [e.event for e in failure.trace]
    assert heap == failure.heap
    assert state_key(heap, canonical) == failure.state == failure.trace[-1].dst


def test_preservation_failure_on_ill_formed_state():
    space = explore(_ill_formed(), require_wf=False)
    failure = space.verdicts["preservation"]
    assert failure is not None
    report = wf_heap(failure.heap)
    assert not report.ok
    assert (failure.check, failure.detail) == ("preservation", f"ill-formed state: {report}")


def test_race_witness_on_shared_location():
    w = race_in(_shared_location())
    assert w is not None
    assert w.detail == "actors 0 and 1 can both touch location 5"


def test_no_race_witness_for_disjoint_locations():
    h = Heap(
        {
            0: Actor(0, frozenset({0}), (), Mutate(Loc(0))),
            1: Actor(1, frozenset({1}), (), Mutate(Loc(1))),
        },
        10,
        10,
    )
    assert race_in(h) is None


def test_race_check_covers_reachable_states():
    # well-formed executions never produce a witness
    space = space_of(
        "val obj = new p; val b = bestow obj; val a = new c;"
        "a ! \\x:p. b ! \\y:p. y.mutate(); obj.mutate()"
    )
    assert space.verdicts["race-freedom"] is None


# --- memoized transitions -------------------------------------------------

# k0 allocates a location first, k1 and k2 an actor first, so one actor
# state steps under different fresh-name counters: some with the same next
# location and a different next actor id.
SPAWNERS = (
    "val k0 = new c; val k1 = new c; val k2 = new c;"
    "k0 ! \\x:p. {{ val o = new {0}; new {1} }};"
    "k1 ! \\x:p. {{ val a = new {1}; new {0} }};"
    "k2 ! \\x:p. {{ val a = new {1}; new {0} }}"
)


def assert_steps_match_step_system(space: StateSpace) -> None:
    """Every edge's event and destination, and every state's stored heap,
    are what ``step_system`` gives from the edge's source."""
    for edge in space.edges:
        nxt, event = step_system(space.states[edge.src], edge.event.actor, lifo=space.lifo)
        assert event == edge.event
        assert state_key(nxt, space.canonical) == edge.dst
        if edge is space.parents[edge.dst]:
            assert space.states[edge.dst] == nxt


@pytest.mark.parametrize("canonical", [True, False])
def test_one_actor_state_steps_under_different_counters(canonical):
    space = space_of(SPAWNERS.format("p", "c"), canonical=canonical)
    assert_steps_match_step_system(space)
    # The allocations interleave: each spawned actor's ``new p`` gets more
    # than one location, and its ``new c`` more than one actor id.
    made: dict[tuple[int, str], set[int]] = {}
    for edge in space.edges:
        ev = edge.event
        if ev.rule in ("new-passive", "new-actor") and ev.actor != 0:
            new = ev.touched_loc if ev.rule == "new-passive" else space.states[edge.src].next_id
            made.setdefault((ev.actor, ev.rule), set()).add(new)
    assert len(made) == 6 and all(len(m) > 1 for m in made.values())


def test_one_actor_object_at_two_ids():
    # ``bestow`` names the stepping actor, so a step depends on its id too.
    twin = Actor(5, frozenset({5}), (), Bestow(Loc(5)))
    space = explore(Heap({0: twin, 1: twin}, 6, 2), require_wf=False)
    assert_steps_match_step_system(space)
    assert {e.event.actor for e in space.edges} == {0, 1}


def test_two_senders_race_to_one_queue():
    # One receiver state takes either message first: an append depends on
    # the message as well as the receiver.
    first = Lambda("x", P, NewPassive())
    second = Lambda("x", P, Mutate(Var("x")))
    heap = Heap(
        {
            0: Actor(0, frozenset({0}), (), Send(ActorId(2), first)),
            1: Actor(1, frozenset({1}), (), Send(ActorId(2), second)),
            2: Actor(2, frozenset({2}), (), UNIT),
        },
        3,
        3,
    )
    space = explore(heap)
    assert_steps_match_step_system(space)
    queues = {rep.actors[2].queue for rep in space.states.values()}
    assert {(first, second), (second, first)} <= queues


def test_fifo_then_lifo_in_one_process():
    # Actor 0's send races actor 1's pop of an older message.
    older = Lambda("x", P, NewPassive())
    newer = Lambda("x", P, Mutate(Var("x")))
    heap = Heap(
        {
            0: Actor(0, frozenset({0}), (), Send(ActorId(1), newer)),
            1: Actor(1, frozenset({1}), (older,), UNIT),
        },
        2,
        2,
    )
    spaces = [explore(heap, lifo=lifo) for lifo in (False, True, False)]
    for space in spaces:
        assert_steps_match_step_system(space)
    assert spaces[0].states.keys() == spaces[2].states.keys()
    assert spaces[0].states.keys() != spaces[1].states.keys()


def test_explorations_in_a_row_after_gc():
    for kinds in [("p", "c"), ("c", "p")] * 2:
        assert_steps_match_step_system(space_of(SPAWNERS.format(*kinds)))
        gc.collect()  # the ids of its actors and terms are now free for reuse


# --- batch adjacency ------------------------------------------------------


def adjacency_of(src: str, rule: str = "mutate") -> tuple[int, BatchAdjacency]:
    space = space_of(src, canonical=False)
    return len(space), batch_adjacency(space, 0, lambda ev: ev.rule == rule)


def test_batch_adjacency_counts_one_path():
    assert adjacency_of("new p")[1] == BatchAdjacency(1, 0, None)


def test_batch_adjacency_counts_interleavings():
    src = "val a = new c; val b = new c; a ! \\x:p. new p; b ! \\x:p. new p"
    assert adjacency_of(src) == (30, BatchAdjacency(56, 0, None))


def test_printed_split_schedule_replays_with_its_pops():
    """The schedule printed for a split batch pops messages as well as
    stepping, and replays to the witness's own events and end state."""
    _, split = adjacency_of(BATCHING["UNBATCHED"])
    assert split.witness is not None
    assert ":pop" in str(split)
    heap, events = replay_printed(initial_heap(compile_program(BATCHING["UNBATCHED"])), str(split))
    assert events == [e.event for e in split.witness.trace]
    assert state_key(heap, canonical=False) == split.witness.state


def test_batch_adjacency_reads_only_the_owner():
    # actor 1's mutate can land between the root's two allocations
    src = "val a = new c; a ! \\x:p. x.mutate(); new p; new p"
    assert adjacency_of(src, "new-passive")[1].violated == 0


def test_batch_adjacency_rejects_a_truncated_space():
    # A state cut off at the frontier is no end of a maximal path; counting
    # it as one reported "1 adjacent, 0 violated" before any mutate ran.
    src = (
        "val obj = new p; val b = bestow obj; val c1 = new c; val c2 = new c;"
        "c1 ! \\x:p. atomic y <- b { y ! \\z:p. z.mutate(); y ! \\z:p. z.mutate() };"
        "c2 ! \\x:p. b ! \\y:p. new p"
    )
    space = space_of(src, canonical=False, max_depth=8)
    assert space.truncated
    with pytest.raises(ValueError, match="truncated"):
        batch_adjacency(space, 0, lambda ev: ev.rule == "mutate")
    whole = space_of(src, canonical=False)
    assert not whole.truncated
    assert batch_adjacency(whole, 0, lambda ev: ev.rule == "mutate").violated == 0


def test_batch_adjacency_rejects_a_cycle():
    w = Lambda("x", P, App(Var("x"), Var("x")))  # applies itself forever
    space = explore(initial_heap(App(w, w)), canonical=False, require_wf=False)
    assert [(e.src, e.dst) for e in space.edges] == [(space.initial, space.initial)]
    with pytest.raises(ValueError, match="cycle"):
        batch_adjacency(space, 0, lambda ev: True)


def test_singleton_space():
    h = initial_heap(UNIT)
    space = explore(h, max_depth=0)
    assert len(space) == 1
    assert space.trace_to(space.initial) == ()


def test_import_binds_the_explore_module():
    import types

    import bestow.explore as m

    assert isinstance(m, types.ModuleType)
    assert m.explore is explore

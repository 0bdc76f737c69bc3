"""Small-step machine: decomposition, each rule's effect, scheduling."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from bestow import semantics
from bestow.semantics import (
    FuelExhaustedError,
    ScheduleError,
    SendToNonActiveError,
    StuckError,
    TraceEvent,
    _focus,
    _plug,
    actor_step,
    apply_effect,
    enabled_choices,
    events_to_jsonl,
    initial_heap,
    poised,
    run_to_quiescence,
    step_system,
)
from bestow.gen import generate_well_typed
from bestow.surface import compile_program
from bestow.syntax import (
    Actor,
    ActorId,
    App,
    Bestow,
    BestowedLoc,
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
    render_expr,
)

P = Passive()
UNIT = Val(UnitVal())
MSG = Lambda("x", P, Mutate(Var("x")))


def one_actor(e, lh=frozenset({0}), queue=()):
    return Heap({0: Actor(0, frozenset(lh), tuple(queue), e)}, next_loc=10, next_id=10)


def step_one(heap, ident=0):
    """Reduce actor ``ident``'s expression once: the heap after the step's
    effect, the new expression, the rule and the touched location."""
    eff = actor_step(ident, heap.actors[ident], heap.next_loc, heap.next_id)
    ev = eff.event
    return apply_effect(heap, ident, eff), eff.actor.current, ev.rule, ev.touched_loc


# --- decomposition --------------------------------------------------------


def actor_at(e, queue=()):
    return Actor(0, frozenset({0}), tuple(queue), e)


def test_redex_forms():
    for e, rule in [
        (NewPassive(), "new-passive"),
        (NewActor(), "new-actor"),
        (App(Val(MSG), UNIT), "apply"),
        (Send(Val(ActorId(0)), MSG), "send-actor"),
        (Send(Val(BestowedLoc(0, 0)), MSG), "send-bestowed"),
    ]:
        assert poised(actor_at(e)) == (rule, None)
    assert poised(actor_at(Mutate(Val(Loc(0))))) == ("mutate", 0)
    assert poised(actor_at(Bestow(Val(Loc(3))))) == ("bestow", 3)
    for e in [
        UNIT,
        Var("x"),
        Mutate(Val(UnitVal())),
        Send(Val(Loc(0)), MSG),
        Send(Val(ActorId(0)), Loc(0)),
    ]:
        assert poised(actor_at(e)) == (None, None)
    assert poised(actor_at(UNIT, queue=(MSG,))) == ("actor-msg", None)


def test_decompose_finds_innermost_redex():
    e = App(Mutate(NewPassive()), UNIT)
    path, redex = _focus(e)
    assert redex == NewPassive()
    assert _plug(path, redex) == e
    assert _plug(path, Val(Loc(7))) == App(Mutate(Val(Loc(7))), UNIT)


def test_decompose_function_position_first():
    e = App(Mutate(Val(Loc(0))), NewPassive())
    path, redex = _focus(e)
    assert redex == Mutate(Val(Loc(0)))
    assert _plug(path, UNIT) == App(UNIT, NewPassive())


def test_decompose_argument_after_function_value():
    e = App(Val(MSG), NewPassive())
    path, redex = _focus(e)
    assert redex == NewPassive()
    assert _plug(path, Val(Loc(4))) == App(Val(MSG), Val(Loc(4)))


def test_decompose_send_target():
    e = Send(NewActor(), MSG)
    path, redex = _focus(e)
    assert redex == NewActor()
    assert _plug(path, Val(ActorId(3))) == Send(Val(ActorId(3)), MSG)


def test_decompose_none_for_values_and_stuck():
    # The focus stops where no rule applies, inside its context too: the
    # actor fires no rule and stepping it reports that node.  An idle actor
    # with an empty queue has nothing to pop.
    assert _focus(UNIT)[1] == UNIT
    assert poised(actor_at(UNIT)) == (None, None)
    with pytest.raises(ScheduleError):
        actor_step(0, actor_at(UNIT), 1, 1)
    for e, node in [
        (Var("x"), Var("x")),
        (Send(Val(Loc(0)), MSG), Send(Val(Loc(0)), MSG)),
        (App(Mutate(Val(UnitVal())), NewPassive()), Mutate(Val(UnitVal()))),
    ]:
        assert _focus(e)[1] == node
        assert poised(actor_at(e)) == (None, None)
        with pytest.raises(StuckError) as exc:
            actor_step(0, actor_at(e), 1, 1)
        assert exc.value.expr == node


# --- single rules ---------------------------------------------------------


def test_step_apply_substitutes():
    heap = one_actor(App(Val(MSG), Val(Loc(0))))
    heap2, e2, rule, touched = step_one(heap)
    assert (rule, touched) == ("apply", None)
    assert e2 == Mutate(Val(Loc(0)))
    assert heap2.actors == {0: replace(heap.actors[0], current=e2)}


def test_step_send_actor_enqueues_at_receiver():
    heap = Heap(
        {
            0: Actor(0, frozenset({0}), (), Send(Val(ActorId(1)), MSG)),
            1: Actor(1, frozenset({1}), (), UNIT),
        },
        next_loc=2,
        next_id=2,
    )
    heap2, e2, rule, _ = step_one(heap)
    assert rule == "send-actor"
    assert e2 == UNIT
    assert heap2.actors[1].queue == (MSG,)
    assert heap2.actors[0].queue == ()


def test_step_send_bestowed_wraps_and_forwards_to_owner():
    heap = Heap(
        {
            0: Actor(0, frozenset({0}), (), Send(Val(BestowedLoc(5, 1)), MSG)),
            1: Actor(1, frozenset({1, 5}), (), UNIT),
        },
        next_loc=6,
        next_id=2,
    )
    heap2, e2, rule, _ = step_one(heap)
    assert rule == "send-bestowed"
    assert e2 == UNIT
    (wrapper,) = heap2.actors[1].queue
    # the wrapper applies the original message to the underlying location
    assert wrapper.param_type == P
    assert wrapper.body == App(Val(MSG), Val(Loc(5)))
    assert wrapper.param not in free_vars(Val(MSG))


def test_step_mutate_reports_location():
    heap = one_actor(Mutate(Val(Loc(0))))
    _, e2, rule, touched = step_one(heap)
    assert (e2, rule, touched) == (UNIT, "mutate", 0)


def test_step_bestow_stamps_acting_actor_as_owner():
    heap = Heap(
        {7: Actor(0, frozenset({0}), (), Bestow(Val(Loc(0))))}, next_loc=1, next_id=8
    )
    _, e2, rule, touched = step_one(heap, 7)
    assert rule == "bestow"
    assert touched == 0
    assert e2 == Val(BestowedLoc(0, 7))


def test_step_new_passive_allocates_locally():
    heap = one_actor(NewPassive())
    heap2, e2, rule, touched = step_one(heap)
    assert rule == "new-passive"
    assert e2 == Val(Loc(10))  # next_loc was 10
    assert touched == 10
    assert heap2.actors[0].local_heap == frozenset({0, 10})
    assert heap2.next_loc == 11


def test_step_new_actor_spawns_idle_actor():
    heap = one_actor(NewActor())
    heap2, e2, rule, touched = step_one(heap)
    assert (rule, touched) == ("new-actor", None)
    assert e2 == Val(ActorId(10))  # next_id was 10
    spawned = heap2.actors[10]
    assert spawned.current == UNIT
    assert spawned.queue == ()
    assert spawned.this_loc in spawned.local_heap
    assert len(spawned.local_heap) == 1
    # the new actor's location is fresh, not shared with the spawner
    assert not (spawned.local_heap & heap2.actors[0].local_heap)


def test_step_stuck_diagnoses():
    heap = one_actor(Send(Val(Loc(0)), MSG))
    with pytest.raises(SendToNonActiveError, match="send target is not an actor"):
        step_one(heap)
    heap = one_actor(App(UNIT, UNIT))
    with pytest.raises(StuckError, match="application of a non-function value"):
        step_one(heap)
    heap = one_actor(App(Val(MSG), Send(Val(ActorId(0)), Loc(0))))
    with pytest.raises(StuckError, match="message is not a function value"):
        step_one(heap)


# --- scheduling -----------------------------------------------------------


def test_pop_applies_message_to_own_location():
    heap = one_actor(UNIT, queue=(MSG,))
    heap2, ev = step_system(heap, 0)
    assert ev.rule == "actor-msg"
    assert heap2.actors[0].current == App(Val(MSG), Val(Loc(0)))
    assert heap2.actors[0].queue == ()


def test_pop_order_fifo_vs_lifo():
    m1 = Lambda("x", P, NewPassive())
    m2 = Lambda("x", P, Mutate(Var("x")))
    heap = one_actor(UNIT, queue=(m1, m2))
    fifo, _ = step_system(heap, 0)
    assert fifo.actors[0].current == App(Val(m1), Val(Loc(0)))
    assert fifo.actors[0].queue == (m2,)
    lifo, _ = step_system(heap, 0, lifo=True)
    assert lifo.actors[0].current == App(Val(m2), Val(Loc(0)))
    assert lifo.actors[0].queue == (m1,)


def test_enabled_choices_sorted_and_total():
    heap = Heap(
        {
            0: Actor(0, frozenset({0}), (MSG,), UNIT),  # idle + queued -> pop
            1: Actor(1, frozenset({1}), (), NewPassive()),  # busy -> step
            2: Actor(2, frozenset({2}), (), UNIT),  # idle, empty -> nothing
            3: Actor(3, frozenset({3}), (MSG,), NewPassive()),  # busy -> step only
            4: Actor(4, frozenset({4}), (), Var("x")),  # stuck -> nothing
        },
        next_loc=5,
        next_id=5,
    )
    assert enabled_choices(heap) == [0, 1, 3]
    assert enabled_choices(heap)


def test_busy_actor_steps_before_it_pops():
    heap = one_actor(NewPassive(), queue=(MSG,))
    heap2, ev = step_system(heap, 0)
    assert ev == TraceEvent(0, "new-passive", 10)
    assert heap2.actors[0].queue == (MSG,)


def test_step_requires_busy_actor():
    heap = one_actor(UNIT)
    with pytest.raises(ScheduleError, match="empty queue"):
        step_system(heap, 0)


def test_initial_heap_shape():
    heap = initial_heap(NewPassive())
    assert set(heap.actors) == {0}
    root = heap.actors[0]
    assert root.this_loc == 0
    assert root.local_heap == frozenset({0})
    assert root.queue == ()
    assert heap.next_loc == 1 and heap.next_id == 1


# --- whole runs -----------------------------------------------------------


def test_run_trace_rules_and_indices():
    e = compile_program("val a = new c; a ! \\x:p. x.mutate()")
    heap, trace = run_to_quiescence(initial_heap(e))
    assert [ev.rule for ev in trace] == [
        "new-actor",
        "apply",
        "send-actor",
        "actor-msg",
        "apply",
        "mutate",
    ]
    assert not enabled_choices(heap)
    assert trace[-1].touched_loc == heap.actors[1].this_loc


def test_run_deterministic_for_fixed_seed():
    e = compile_program(
        "val a = new c; val b = new c; a ! \\x:p. x.mutate(); b ! \\x:p. new p"
    )
    h1, t1 = run_to_quiescence(initial_heap(e), seed=42)
    h2, t2 = run_to_quiescence(initial_heap(e), seed=42)
    assert t1 == t2 and h1 == h2
    saw_different = any(
        run_to_quiescence(initial_heap(e), seed=s)[1] != t1 for s in range(20)
    )
    assert saw_different  # the seed genuinely picks among interleavings


def replay(heap, pick, lifo=False, fuel=100_000):
    """Run ``heap`` for ``fuel`` steps or to quiescence, whichever comes
    first, taking ``pick(enabled_choices(h))`` at each step and copying the
    heap on every step: the reference for ``run_to_quiescence``'s policies."""
    trace = []
    for _ in range(fuel):
        enabled = enabled_choices(heap)
        if not enabled:
            break
        heap, ev = step_system(heap, pick(enabled), lifo=lifo)
        trace.append(ev)
    return heap, trace


def first(enabled):
    return enabled[0]


def straight_line(n, rng):
    """``n`` statements allocating, bestowing and sending, as surface text."""
    stmts, passives, refs, actors = [], [], [], []
    for i in range(n):
        kinds = ["new p", "new c"] + ["bestow"] * bool(passives)
        kinds += ["send"] * 2 * bool(actors + refs)
        kind = rng.choice(kinds)
        if kind == "new p":
            passives.append(f"o{i}")
            stmts.append(f"val o{i} = new p")
        elif kind == "new c":
            actors.append(f"a{i}")
            stmts.append(f"val a{i} = new c")
        elif kind == "bestow":
            refs.append(f"r{i}")
            stmts.append(f"val r{i} = bestow {rng.choice(passives)}")
        else:
            stmts.append(f"{rng.choice(actors + refs)} ! \\x:p. x.mutate()")
    return ";\n".join(stmts)


def fan_out(n):
    """The root spawns ``n`` actors and sends one message to each."""
    return ";\n".join(f"val a{i} = new c; a{i} ! \\x:p. x.mutate()" for i in range(n))


def assert_policies_match_replay(heap, seed):
    """The default and the seeded policy, FIFO and LIFO, take the steps
    the reference takes and stop where it stops."""
    for lifo in (False, True):
        got = run_to_quiescence(heap, lifo=lifo)
        assert got == replay(heap, first, lifo)
        assert not enabled_choices(got[0])
        want = replay(heap, random.Random(seed).choice, lifo)
        assert run_to_quiescence(heap, seed=seed, lifo=lifo) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_default_policy_takes_the_first_enabled_choice(seed, lifo):
    program, _ = generate_well_typed(seed, size_budget=4 + seed % 9)
    heap = initial_heap(program)
    want = replay(heap, first, lifo)
    assert run_to_quiescence(heap, lifo=lifo) == want
    rng = random.Random(seed)
    assert run_to_quiescence(heap, seed=seed, lifo=lifo) == replay(heap, rng.choice, lifo)


@pytest.mark.parametrize("n, seed", [(1, 0), (20, 1), (60, 2), (120, 3), (1000, 4)])
def test_default_policy_on_straight_line_programs(n, seed):
    heap = initial_heap(compile_program(straight_line(n, random.Random(seed))))
    assert_policies_match_replay(heap, seed)


@pytest.mark.parametrize("n", [1, 3, 150])
def test_policies_on_fan_out_programs(n):
    assert_policies_match_replay(initial_heap(compile_program(fan_out(n))), n)


SMALL = {
    "straight-12": straight_line(12, random.Random(5)),
    "straight-25": straight_line(25, random.Random(6)),
    "fan-out-3": fan_out(3),
}


@pytest.mark.parametrize("src", SMALL.values(), ids=SMALL)
@pytest.mark.parametrize("lifo", [False, True])
def test_fuel_exhaustion_matches_the_reference_after_every_step(src, lifo):
    heap = initial_heap(compile_program(src))
    for seed in (None, 7):

        def reference(fuel=100_000):
            pick = first if seed is None else random.Random(seed).choice
            return replay(heap, pick, lifo, fuel)

        steps = len(reference()[1])
        for fuel in range(steps):
            with pytest.raises(FuelExhaustedError) as exc:
                run_to_quiescence(heap, seed=seed, fuel=fuel, lifo=lifo)
            assert (exc.value.heap, exc.value.trace) == reference(fuel)
        assert run_to_quiescence(heap, seed=seed, fuel=steps, lifo=lifo) == reference()


@pytest.mark.parametrize("src", SMALL.values(), ids=SMALL)
@pytest.mark.parametrize("lifo", [False, True])
def test_scripted_schedule_errors_match_the_reference(src, lifo):
    # After each prefix of the default run, an id that cannot move there
    # (an idle or stuck actor, or one not yet spawned) stops the run with
    # the enabled ids the reference lists.
    heap = initial_heap(compile_program(src))
    want = replay(heap, first, lifo)
    picks = [ev.actor for ev in want[1]]
    assert run_to_quiescence(heap, picks, lifo=lifo) == want
    h = heap
    for k, ident in enumerate(picks):
        enabled = enabled_choices(h)
        idle = [i for i in sorted(h.actors) if i not in enabled]
        for bad in idle[:1] + [h.next_id]:
            with pytest.raises(ScheduleError) as exc:
                run_to_quiescence(heap, picks[:k] + [bad], lifo=lifo)
            assert str(exc.value) == f"actor {bad} cannot move (enabled: {enabled})"
        h, _ = step_system(h, ident, lifo=lifo)


LONG = {"straight-2000": straight_line(2000, random.Random(1)), "fan-out-2000": fan_out(2000)}


@pytest.mark.parametrize("src", LONG.values(), ids=LONG)
def test_run_work_per_step_is_bounded(src, monkeypatch):
    # A step changes at most three actors: the stepper, the post's target
    # and the spawned actor.  A runner that probed idle actors to choose,
    # or copied the actor table into a new heap, on every step would be
    # quadratic on the 2 000-actor fan-out program.
    heap = initial_heap(compile_program(src))
    probes = built = 0

    def counting_poised(a):
        nonlocal probes
        probes += 1
        return poised(a)

    def counting_heap(*args, **kwargs):
        nonlocal built
        built += 1
        return Heap(*args, **kwargs)

    monkeypatch.setattr(semantics, "poised", counting_poised)
    monkeypatch.setattr(semantics, "Heap", counting_heap)
    _, trace = run_to_quiescence(heap)
    assert len(trace) > 6_000
    assert probes < 4 * len(trace)
    assert built == 1  # the heap returned
    built = 0
    with pytest.raises(FuelExhaustedError):
        run_to_quiescence(heap, fuel=len(trace) // 2)
    assert built == 1  # the heap the error carries


def test_poised_is_worked_out_once_per_actor():
    a = Actor(0, frozenset({0}), (), Mutate(Val(Loc(0))))
    assert poised(a) == ("mutate", 0)
    assert poised(a) is poised(a)


def test_scripted_schedule_and_error():
    e = compile_program("val a = new c; a ! \\x:p. x.mutate()")
    heap = initial_heap(e)
    _, trace = run_to_quiescence(heap, schedule=[0])
    assert trace[0] == TraceEvent(0, "new-actor")
    with pytest.raises(ScheduleError):
        run_to_quiescence(heap, schedule=[5])
    # an unknown id late in the schedule, once only the receiver can move
    with pytest.raises(ScheduleError, match=r"^actor 7 cannot move \(enabled: \[1\]\)$"):
        run_to_quiescence(heap, schedule=[0, 0, 0, 7])
    with pytest.raises(ScheduleError, match="no such actor"):
        step_system(heap, 5)


def test_fuel_exhaustion_keeps_partial_trace():
    e = compile_program("val a = new c; a ! \\x:p. x.mutate()")
    with pytest.raises(FuelExhaustedError) as exc:
        run_to_quiescence(initial_heap(e), fuel=2)
    assert len(exc.value.trace) == 2
    assert enabled_choices(exc.value.heap)


def test_exact_fuel_is_enough():
    e = compile_program("val a = new c; a ! \\x:p. x.mutate()")
    heap, trace = run_to_quiescence(initial_heap(e), fuel=6)
    assert len(trace) == 6 and not enabled_choices(heap)


def test_events_jsonl_shape():
    e = compile_program("val a = new c; a ! \\x:p. x.mutate()")
    _, trace = run_to_quiescence(initial_heap(e))
    lines = events_to_jsonl(trace).splitlines()
    assert len(lines) == len(trace)
    first = json.loads(lines[0])
    assert first == {"step": 0, "actor": 0, "rule": "new-actor", "loc": None}
    last = json.loads(lines[-1])
    assert last["rule"] == "mutate" and isinstance(last["loc"], int)


def test_substituted_values_reach_messages():
    # After `val a = new c`, the send target must be the allocated id.
    e = compile_program("val a = new c; a ! \\x:p. \\y:p. y")
    heap, trace = run_to_quiescence(initial_heap(e))
    # the message ran on the spawned actor and left a closure value behind
    spawned = heap.actors[1]
    assert isinstance(spawned.current, Val)
    assert render_expr(spawned.current) == "(fn (y : p) y)"

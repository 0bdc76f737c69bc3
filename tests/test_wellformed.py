"""Heap invariants: the positive story and every way to break it."""

from __future__ import annotations

from bestow.semantics import enabled_choices, initial_heap, step_system
from bestow.surface import compile_program
from bestow.syntax import (
    Actor,
    ActorId,
    ActorType,
    App,
    BestowedLoc,
    Heap,
    Lambda,
    Loc,
    Mutate,
    Passive,
    Send,
    UnitVal,
    Var,
)
from bestow.wellformed import wf_heap

P = Passive()
UNIT = UnitVal()


def idle(this, lh, cur=UNIT, q=()):
    return Actor(this, frozenset(lh), tuple(q), cur)


def heap_of(actors):
    return Heap(actors, next_loc=100, next_id=100)


def rules_of(report):
    return [v.rule for v in report.violations]


# --- positive -------------------------------------------------------------


def test_initial_heap_is_wf():
    e = compile_program("val a = new c; a ! \\x:p. x.mutate()")
    assert wf_heap(initial_heap(e)).ok


def test_wf_preserved_along_a_run():
    e = compile_program(
        "val obj = new p; val b = bestow obj; val a = new c;"
        "a ! \\x:p. { b ! \\y:p. y.mutate(); x.mutate() }"
    )
    heap = initial_heap(e)
    for _ in range(200):
        choices = enabled_choices(heap)
        if not choices:
            break
        report = wf_heap(heap)
        assert report.ok, str(report)
        heap, _ = step_system(heap, choices[0])
    assert wf_heap(heap).ok


def test_forwarded_message_with_bare_loc_is_wf_in_owner_queue():
    # The wrapper a bestowed send creates embeds the owner's bare location;
    # that is fine in the owner's queue even though a send could not have
    # carried it directly.
    v = Lambda("x", P, Mutate(Var("x")))
    wrapper = Lambda("y", P, App(v, Loc(5)))
    h = heap_of({0: idle(0, {0, 5}, q=(wrapper,))})
    assert wf_heap(h).ok


# --- each violation -------------------------------------------------------


def test_overlapping_local_heaps():
    h = heap_of({0: idle(0, {0, 5}), 1: idle(1, {1, 5})})
    report = wf_heap(h)
    assert "wf-heap" in rules_of(report)
    assert "5" in str(report)


def test_actor_missing_its_own_location():
    h = heap_of({0: idle(3, {0})})
    assert "wf-actor" in rules_of(wf_heap(h))


def test_current_mentions_foreign_location():
    h = heap_of({0: idle(0, {0}, cur=Mutate(Loc(7)))})
    report = wf_heap(h)
    assert rules_of(report) == ["wf-actor"]
    assert "location 7" in str(report)


def test_queue_mentions_foreign_location():
    msg = Lambda("x", P, App(Lambda("y", P, UNIT), Loc(9)))
    h = heap_of({0: idle(0, {0}, q=(msg,))})
    assert "wf-actor" in rules_of(wf_heap(h))


def test_unallocated_actor_id():
    h = heap_of({0: idle(0, {0}, cur=Send(ActorId(3), Lambda("x", P, UNIT)))})
    report = wf_heap(h)
    assert "wf-actor" in rules_of(report)
    assert "id 3" in str(report)


def test_bestowed_ref_with_wrong_owner():
    # actor 1 exists but does not own location 9
    cur = Send(BestowedLoc(9, 1), Lambda("x", P, UNIT))
    h = heap_of({0: idle(0, {0}, cur=cur), 1: idle(1, {1})})
    report = wf_heap(h)
    assert "wf-actor" in rules_of(report)
    assert "does not own" in str(report)


def test_bestowed_ref_with_unallocated_owner():
    cur = Send(BestowedLoc(9, 42), Lambda("x", P, UNIT))
    h = heap_of({0: idle(0, {0}, cur=cur)})
    assert "wf-actor" in rules_of(wf_heap(h))


def test_untypable_current():
    h = heap_of({0: idle(0, {0}, cur=Mutate(UnitVal()))})
    report = wf_heap(h)
    assert "wf-actor" in rules_of(report)
    assert "typecheck" in str(report)


def test_queue_message_not_over_passive():
    bad = Lambda("x", ActorType(), UNIT)
    h = heap_of({0: idle(0, {0}, q=(bad,))})
    assert "wf-queue-message" in rules_of(wf_heap(h))


def test_queue_message_untypable():
    bad = Lambda("x", P, Var("ghost"))
    h = heap_of({0: idle(0, {0}, q=(bad,))})
    report = wf_heap(h)
    assert "wf-queue-message" in rules_of(report)
    assert "ghost" in str(report)


def test_wf_actor_checks_one_actor():
    h = heap_of({0: idle(0, {0}), 1: idle(1, {1}, cur=Mutate(Loc(0)))})
    report = wf_heap(h)
    assert not any(v.subject == "actor 0" for v in report.violations)
    assert any(v.rule == "wf-actor" and v.subject == "actor 1" for v in report.violations)


def test_report_str_mentions_everything():
    h = heap_of(
        {
            0: idle(0, {0, 5}, cur=Mutate(Loc(8))),
            1: idle(1, {1, 5}),
        }
    )
    text = str(wf_heap(h))
    assert "wf-heap" in text and "wf-actor" in text

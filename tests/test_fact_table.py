"""Per-object facts against the walks they replaced.

Keys and well-formedness reports built from the records each term and
actor keeps on itself must equal what a fresh walk of each heap gives.  The references below
walk every term: a canonical renaming, whose result keys are compared
with through ``render_heap``, and ``wf_heap``.  Stored heaps must be the
heaps their traces reach: every trace replays from the initial heap.
Each actor's rule and footprint (``Actor.poised``) must agree with
the move that ``actor_step`` makes, or fails to make.  A record changes nothing its
object shows and keeps no reference to it.  The verdicts ``explore`` records
as it expands each state must equal the three checks judged afterwards
over the finished space.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter, deque
from dataclasses import replace
from itertools import combinations

import pytest
from test_explore import NEGATIVE_CONTROLS

import bestow.explore
from bestow.explore import (
    Counterexample,
    StateSpace,
    check_all,
    explore,
    state_key,
)
from bestow.gen import generate_well_typed
from bestow.semantics import (
    ScheduleError,
    StuckError,
    actor_step,
    enabled_choices,
    initial_heap,
    step_system,
)
from bestow.surface import compile_program
from bestow.syntax import (
    Actor,
    ActorId,
    App,
    Bestow,
    BestowedLoc,
    Expr,
    Heap,
    Lambda,
    UnitType,
    Loc,
    Mutate,
    NewPassive,
    Passive,
    Send,
    UnitVal,
    Value,
    Var,
    fold,
    rebuild,
    render_expr,
    render_heap,
    walk,
)
from bestow.typecheck import TypeCheckError, TypeEnv, check
from bestow.wellformed import WfReport, WfViolation, wf_heap


def reference_canonicalize(heap: Heap) -> Heap:
    """Canonical renaming by walking every term of ``heap``."""
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
    for ident in sorted(id_map, key=id_map.get):
        for loc in sorted(heap.actors[ident].local_heap):
            if loc not in loc_map:
                loc_map[loc] = len(loc_map)

    def rewrite(v: Value) -> Value:
        t = type(v)
        if t is Loc:
            return Loc(loc_map[v.loc])
        if t is ActorId:
            return ActorId(id_map[v.ident])
        if t is BestowedLoc:
            return BestowedLoc(loc_map[v.loc], id_map[v.owner])
        return v

    actors = {
        id_map[ident]: Actor(
            this_loc=loc_map[a.this_loc],
            local_heap=frozenset(loc_map[loc] for loc in a.local_heap),
            queue=tuple(fold(m, rewrite, rebuild) for m in a.queue),
            current=fold(a.current, rewrite, rebuild),
        )
        for ident, a in heap.actors.items()
    }
    return Heap(actors, next_loc=len(loc_map), next_id=len(id_map))


def reference_wf_heap(heap: Heap) -> WfReport:
    """``wf_heap`` by walking and typechecking every term of ``heap``."""
    out: list[WfViolation] = []
    for a, b in combinations(sorted(heap.actors), 2):
        shared = heap.actors[a].local_heap & heap.actors[b].local_heap
        if shared:
            detail = f"local heaps overlap on location(s) {sorted(shared)}"
            out.append(WfViolation("wf-heap", f"actors {a} and {b}", detail))

    def error(term: Expr) -> str | None:
        try:
            check(TypeEnv(), term)
        except TypeCheckError as err:
            return err.message
        return None

    for ident in sorted(heap.actors):
        a = heap.actors[ident]

        def bad(detail: str) -> None:
            out.append(WfViolation("wf-actor", f"actor {ident}", detail))

        if a.this_loc not in a.local_heap:
            bad(f"its own location {a.this_loc} is not in its local heap")
        mentioned = [("current expression", a.current)]
        mentioned += [(f"queue[{i}]", m) for i, m in enumerate(a.queue)]
        for where, term in mentioned:
            names = list(walk(term))
            for loc in sorted({v.loc for v in names if type(v) is Loc}):
                if loc not in a.local_heap:
                    bad(f"{where} mentions location {loc} outside its local heap")
            for other in sorted({v.ident for v in names if type(v) is ActorId}):
                if other not in heap.actors:
                    bad(f"{where} mentions unallocated actor id {other}")
            for loc, owner in sorted(
                {(v.loc, v.owner) for v in names if type(v) is BestowedLoc}
            ):
                if owner not in heap.actors:
                    bad(f"{where} holds a reference bestowed by unallocated actor {owner}")
                elif loc not in heap.actors[owner].local_heap:
                    bad(
                        f"{where} holds a bestowed reference to location {loc}, "
                        f"which actor {owner} does not own"
                    )
        if error(a.current) is not None:
            bad(f"current expression does not typecheck: {error(a.current)}")
        for pos, msg in enumerate(a.queue):
            if not isinstance(msg, Lambda) or not isinstance(msg.param_type, Passive):
                detail = f"message {render_expr(msg)} is not a function over p"
            elif error(msg) is not None:
                detail = f"message does not typecheck: {error(msg)}"
            else:
                continue
            subject = f"actor {ident}, queue[{pos}]"
            out.append(WfViolation("wf-queue-message", subject, detail))
    return WfReport(tuple(out))


def contended(clients: int, sends: int) -> Heap:
    """``clients`` actors each send ``sends`` mutates to one bestowed object."""
    lines = ["val obj = new p", "val ref = bestow obj"]
    lines += [f"val k{i} = new c" for i in range(clients)]
    body = "; ".join(["ref ! \\y:p. y.mutate()"] * sends)
    lines += [f"k{i} ! \\x:p. {{ {body} }}" for i in range(clients)]
    return initial_heap(compile_program(";\n".join(lines)))


def generated(count: int) -> list[Heap]:
    return [
        initial_heap(generate_well_typed(seed, size_budget=4 + seed % 9)[0])
        for seed in range(count)
    ]


@pytest.fixture(scope="module")
def programs() -> list[Heap]:
    """300 generated programs, built once for the module."""
    return generated(300)


def assert_matches_reference(space: StateSpace) -> None:
    """Every successor's key equals a fresh computation, and a state is
    stored as the successor that first reached it."""
    for key, rep in space.states.items():
        if space.canonical:
            assert key == render_heap(reference_canonicalize(rep))
    for edge in space.edges:
        nxt, event = step_system(space.states[edge.src], edge.event.actor, lifo=space.lifo)
        assert event == edge.event
        if space.canonical:
            want = reference_canonicalize(nxt)
            assert edge.dst == render_heap(want) == state_key(nxt)
            assert reference_canonicalize(space.states[edge.dst]) == want
            if edge is space.parents[edge.dst]:
                assert space.states[edge.dst] == nxt
        else:
            assert edge.dst == render_heap(nxt, include_counters=True)
            assert edge.dst == state_key(nxt, canonical=False)
            assert space.states[edge.dst] == nxt


@pytest.mark.parametrize(
    "clients,sends,states,edges",
    [(2, 2, 249, 539), (3, 2, 2039, 6237), (2, 4, 1409, 3619)],
)
def test_contended_shapes_match_reference(clients, sends, states, edges):
    space = explore(contended(clients, sends), max_depth=96)
    assert (len(space.states), len(space.edges)) == (states, edges)
    assert_matches_reference(space)


@pytest.mark.parametrize("lifo", [False, True])
def test_memoized_renamings_give_fresh_keys(lifo):
    """Each ``explore`` call keeps one canonical renaming per numbering
    signature (the actor ids and each actor's slots and local heap); every
    key it stores must equal one computed afresh, with no memo, and counts
    and verdicts stay as pinned.  The contended shapes run at
    ``max_depth=200``, past their longest path; the generated programs are
    seeds 0-1999.  A memo keyed without the local heaps fails here: it
    hands a heap a renaming that misses some of its locations."""

    def fresh_keys(space: StateSpace) -> None:
        for key, heap in space.states.items():
            assert key == state_key(heap, space.canonical)

    for clients, sends, states, edges in [(3, 2, 2039, 6237), (2, 4, 1409, 3619),
                                          (4, 2, 15649, 61355)]:
        space = explore(contended(clients, sends), max_depth=200, lifo=lifo)
        assert (len(space.states), len(space.edges), space.truncated) == (states, edges, False)
        assert all(v is None for v in check_all(space).values())
        fresh_keys(space)
    totals = Counter()
    for heap in generated(2000):
        space = explore(heap, lifo=lifo)
        totals.update(states=len(space.states), edges=len(space.edges),
                      truncated=space.truncated,
                      failed=sum(v is not None for v in check_all(space).values()))
        fresh_keys(space)
    assert totals == {"states": 7862, "edges": 5998, "truncated": 0, "failed": 0}


def test_exact_keys_match_rendering():
    assert_matches_reference(explore(contended(2, 2), canonical=False))


def test_generated_programs_match_reference(programs):
    branching = 0
    for heap in programs:
        for canonical in (True, False):
            space = explore(heap, canonical=canonical)
            assert_matches_reference(space)
        branching += len(space.edges) >= len(space.states)
    # Some of them must interleave actors, or this tests little.
    assert branching > 0


UNIT = UnitVal()
MSG = Lambda("x", Passive(), Mutate(Var("x")))
# Stuck terms, each also placed inside evaluation contexts.
STUCK = [
    Var("x"),
    App(UNIT, UNIT),
    App(Loc(0), UNIT),
    Send(UNIT, MSG),
    Send(Loc(0), MSG),
    Send(ActorId(1), Loc(0)),
    Send(BestowedLoc(0, 1), UnitVal()),
    Mutate(UNIT),
    Mutate(ActorId(1)),
    Bestow(UNIT),
    Bestow(BestowedLoc(0, 1)),
]
CONTEXTS = [
    lambda e: e,
    lambda e: App(MSG, e),
    lambda e: Send(Mutate(e), MSG),
    lambda e: App(Bestow(e), NewPassive()),
]


def poised_agrees(ident: int, a: Actor, counters: tuple[int, int]) -> str | None:
    """Check ``a.poised`` against moving ``a``; the rule that fired, if any.

    ``actor_step`` raises exactly when ``poised`` names no rule; otherwise
    the event names that rule, and ``poised``'s footprint is the location a
    ``mutate`` or ``bestow`` move reports."""
    try:
        ev = actor_step(ident, a, *counters).event
    except (ScheduleError, StuckError):
        assert a.poised == (None, None), a
        return None
    touches = ev.touched_loc if ev.rule in ("mutate", "bestow") else None
    assert a.poised == (ev.rule, touches), a
    return ev.rule


def test_poised_agrees_with_step_expr(programs):
    fired = set()
    for heap in [contended(2, 2), contended(3, 2)] + programs:
        space = explore(heap, max_depth=96)
        for rep in space.states.values():
            for ident, a in rep.actors.items():
                counters = rep.next_loc, rep.next_id
                fired.add(poised_agrees(ident, a, counters))
    # Every rule was reached, so a shape the match misclassifies shows.
    assert fired == {
        None,
        "actor-msg",
        "apply",
        "send-actor",
        "send-bestowed",
        "mutate",
        "bestow",
        "new-passive",
        "new-actor",
    }
    for e in STUCK:
        for ctx in CONTEXTS:
            stuck = Actor(0, frozenset({0}), (), ctx(e))
            assert poised_agrees(0, stuck, (1, 1)) is None


def assert_traces_replay(initial: Heap, space: StateSpace) -> None:
    """Every state's shortest trace, replayed from ``initial``, makes the
    events its edges record and ends on the heap stored for the state.

    A state's trace is its parent's plus its parent edge, and ``states``
    lists each parent before its children, so each state is replayed once,
    from its parent's replayed heap."""
    replayed = {space.initial: initial}
    for key, stored in space.states.items():
        if key != space.initial:
            edge = space.parents[key]
            assert edge.event.actor in enabled_choices(space.states[edge.src])
            replayed[key], event = step_system(
                replayed[edge.src], edge.event.actor, lifo=space.lifo
            )
            assert event == edge.event
        assert replayed[key] == stored


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("lifo", [False, True])
def test_every_trace_replays_from_the_initial_heap(programs, canonical, lifo):
    shapes = [contended(c, s) for c, s in [(2, 2), (3, 2), (2, 4)]]
    for heap in shapes + programs:
        space = explore(heap, max_depth=96, canonical=canonical, lifo=lifo)
        assert_traces_replay(heap, space)


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("lifo", [False, True])
def test_one_record_per_actor_state(programs, canonical, lifo):
    """Equal actor states reached through different interleavings share one
    object, and so one record: across a space's stored states, each actor
    text has one object."""
    shapes = [contended(c, s) for c, s in [(2, 2), (3, 2), (2, 4)]]
    for heap in shapes + programs:
        space = explore(heap, max_depth=96, canonical=canonical, lifo=lifo)
        check_all(space)
        firsts: dict[str, Actor] = {}
        for rep in space.states.values():
            for a in rep.actors.values():
                assert firsts.setdefault(a.facts.text, a) is a


def test_edges_share_the_events_of_memoized_steps():
    """An edge holds the event its memoized step made, so the edges that
    take one step share one event object."""
    space = explore(contended(3, 2), max_depth=96)
    assert len(space.edges) == 6237
    assert len({id(e.event) for e in space.edges}) < 100


def ill_formed_variants(heap: Heap) -> list[Heap]:
    """Copies of ``heap`` that reuse its term objects in broken contexts."""
    out = [
        Heap(
            {i: replace(a, local_heap=frozenset()) for i, a in heap.actors.items()},
            heap.next_loc,
            heap.next_id,
        )
    ]
    if len(heap.actors) > 1:
        last = max(heap.actors)
        rest = {i: a for i, a in heap.actors.items() if i != last}
        out.append(Heap(rest, heap.next_loc, heap.next_id))
    for i, a in heap.actors.items():
        for j, b in heap.actors.items():
            if i != j:
                foreign = Lambda("z", Passive(), Mutate(Loc(b.this_loc)))
                queued = replace(a, queue=a.queue + (foreign,))
                grabbed = replace(a, local_heap=a.local_heap | {b.this_loc})
                for broken in (queued, grabbed):
                    out.append(Heap({**heap.actors, i: broken}, heap.next_loc, heap.next_id))
    return out


def test_table_backed_preservation_matches_wf_heap_on_ill_formed_variants(programs):
    """Variants reuse term objects, and their records, from explored states.
    Each variant's own exploration judges it as its initial state."""
    spaces = [explore(contended(2, 2))] + [explore(h) for h in programs[:60]]
    ill = 0
    for space in spaces:
        for rep in space.states.values():
            for v in ill_formed_variants(rep):
                report = wf_heap(v)
                assert report == reference_wf_heap(v)
                ill += not report.ok
                alone = explore(v, max_depth=0, canonical=False, require_wf=False)
                failure = alone.verdicts["preservation"]
                assert (failure is None) == report.ok
                if failure is not None:
                    assert failure.heap is v and failure.trace == ()
                    assert failure.detail == f"ill-formed state: {report}"
    assert ill > 1000


def test_two_explorations_in_a_row_do_not_share_facts():
    first, second = explore(contended(2, 2)), explore(contended(3, 1))
    del first, second
    gc.collect()  # the ids of their terms are now free for reuse
    for clients, sends in [(3, 1), (2, 2)]:
        assert_matches_reference(explore(contended(clients, sends)))


def test_a_shared_record_caches_no_cross_actor_verdict():
    """Heaps that share one holder object, and so its record, are judged
    each against its own other actors."""
    owner = Actor(1, frozenset({1, 5}), (), UnitVal())
    cases = [
        (
            BestowedLoc(5, 1),
            replace(owner, local_heap=frozenset({1})),
            "current expression holds a bestowed reference to location 5, "
            "which actor 1 does not own",
        ),
        (
            BestowedLoc(5, 1),
            None,
            "current expression holds a reference bestowed by unallocated actor 1",
        ),
        (ActorId(1), None, "current expression mentions unallocated actor id 1"),
    ]
    for current, other, detail in cases:
        holder = Actor(0, frozenset({0}), (), current)
        good = Heap({0: holder, 1: owner}, 6, 2)
        bad = Heap({0: holder} if other is None else {0: holder, 1: other}, 6, 2)
        for heap in (good, bad, good):
            assert wf_heap(heap) == reference_wf_heap(heap)
        assert wf_heap(good).ok
        assert wf_heap(bad).violations == (
            WfViolation("wf-actor", "actor 0", detail),
        )


def objects_of(heap: Heap) -> list[Actor | Expr]:
    """``heap``'s actors, then every node of their terms."""
    terms = [t for a in heap.actors.values() for t in (a.current, *a.queue)]
    return [*heap.actors.values(), *(n for t in terms for n in walk(t))]


def test_a_record_changes_no_equality_hash_or_repr():
    """Each fact declared on an object is worked out once and kept on the
    object under its own name: read twice, it is one value, and it leaves
    the object's equality, hash and repr as they were."""
    heap, twin = contended(2, 2), contended(2, 2)
    objs = objects_of(heap)
    before = [(hash(o), repr(o)) for o in objs]
    assert wf_heap(heap).ok
    for o, (h, r), t in zip(objs, before, objects_of(twin)):
        names = ("poised", "wf_clauses") if type(o) is Actor else ("facts", "type_error")
        for name in names:
            first = getattr(o, name)
            assert getattr(o, name) is first is vars(o)[name]
            assert o == t and hash(o) == h == hash(t) and repr(o) == r == repr(t)
        assert o.facts is o.facts is not t.facts


def test_explored_objects_die_with_the_last_reference():
    """No record points back at its object, so once an explored space is
    dropped its actors and terms are freed without the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        space = explore(contended(2, 2))
        check_all(space)
        refs = [weakref.ref(o) for rep in space.states.values() for o in objects_of(rep)]
        del space
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


# --- verdicts judged on the fly -------------------------------------------


def posthoc(space: StateSpace) -> dict[str, Counterexample | None]:
    """The three checks judged after exploring: each walks the stored
    states in the order they were stored and reports the first that fails."""

    def first(check: str, judge) -> Counterexample | None:
        for key, rep in space.states.items():
            if (detail := judge(rep)) is not None:
                return Counterexample(check, key, rep, detail, space.trace_to(key))
        return None

    def stuck(rep: Heap) -> str | None:
        for i, a in rep.actors.items():
            if not isinstance(a.current, Value) and a.poised[0] is None:
                return f"actor {i} is stuck"
        return None

    def ill_formed(rep: Heap) -> str | None:
        report = wf_heap(rep)
        return None if report.ok else f"ill-formed state: {report}"

    def race(rep: Heap) -> str | None:
        touching = [
            (i, loc) for i in sorted(rep.actors) if (loc := rep.actors[i].poised[1]) is not None
        ]
        for n, (a, loc) in enumerate(touching):
            for b, other in touching[n + 1 :]:
                if loc == other:
                    return f"actors {a} and {b} can both touch location {loc}"
        return None

    return {
        "progress": first("progress", stuck),
        "preservation": first("preservation", ill_formed),
        "race-freedom": first("race-freedom", race),
    }


def assert_verdicts_match_posthoc(space: StateSpace) -> int:
    """``check_all`` equals the post-hoc checks: check name, state key,
    detail, heap, trace and printed text.  Returns the number of failures."""
    got, want = check_all(space), posthoc(space)
    assert list(got) == list(want)
    for name, c in want.items():
        assert got[name] == c
        if c is not None:
            assert got[name].check == name and str(got[name]) == str(c)
    return sum(c is not None for c in want.values())


SHAPES = [(2, 2), (3, 2), (2, 4)]


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("lifo", [False, True])
def test_on_the_fly_verdicts_match_posthoc(programs, canonical, lifo):
    for heap in [contended(c, s) for c, s in SHAPES] + programs:
        space = explore(heap, max_depth=96, canonical=canonical, lifo=lifo)
        assert assert_verdicts_match_posthoc(space) == 0


@pytest.mark.parametrize("canonical", [True, False])
def test_on_the_fly_verdicts_match_posthoc_on_negative_controls(canonical):
    for make in NEGATIVE_CONTROLS:
        for depth in (0, 1, 64):
            space = explore(make(), max_depth=depth, canonical=canonical, require_wf=False)
            assert assert_verdicts_match_posthoc(space) > 0


def _overlap_at_depth_two() -> Heap:
    """Well formed, but the location counter points into actor 0's local
    heap: actor 1's ``new p``, its second step, makes the heaps overlap
    while actor 0 can still move."""
    then = App(Lambda("y", UnitType(), UNIT), UNIT)
    return Heap(
        {
            0: Actor(0, frozenset({0, 5}), (), App(Lambda("x", UnitType(), then), UNIT)),
            1: Actor(1, frozenset({1}), (), App(Lambda("x", UnitType(), NewPassive()), UNIT)),
        },
        5,
        2,
    )


@pytest.mark.parametrize("canonical", [True, False])
def test_a_failure_at_the_depth_bound_is_judged(canonical):
    """States at ``max_depth`` are stored but not expanded; they are judged
    all the same."""
    heap = _overlap_at_depth_two()
    short = explore(heap, max_depth=1, canonical=canonical)
    assert short.truncated and short.verdicts["preservation"] is None
    space = explore(heap, max_depth=2, canonical=canonical)
    assert assert_verdicts_match_posthoc(space) == 1
    failure = space.verdicts["preservation"]
    assert [e.event.actor for e in failure.trace] == [1, 1]
    assert enabled_choices(failure.heap) == [0]
    assert failure.detail == (
        "ill-formed state: [wf-heap] actors 0 and 1: local heaps overlap on location(s) [5]"
    )


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("lifo", [False, True])
def test_on_the_fly_verdicts_match_posthoc_under_a_sender_queue_mutant(
    sender_queue_mutant, canonical, lifo
):
    for c, s in SHAPES:
        space = explore(contended(c, s), max_depth=96, canonical=canonical, lifo=lifo)
        verdicts = check_all(space)
        assert verdicts["preservation"] is not None and verdicts["race-freedom"] is not None
        assert assert_verdicts_match_posthoc(space) == 2


def test_explore_and_check_work_is_one_per_stored_state(monkeypatch):
    """On 3x2 each stored state is keyed once and judged once, and at most
    one successor ``Heap`` is built per stored state: a successor whose
    actors and counters were seen before is built no more (one per edge,
    6 237, were built before)."""
    calls: Counter[str] = Counter()

    def counted(name: str):
        fn = getattr(bestow.explore, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(bestow.explore, name, wrapper)

    for name in ("state_key", "Heap", "_judge_state", "_race", "wf_heap"):
        counted(name)
    space = explore(contended(3, 2), max_depth=96)
    assert all(v is None for v in check_all(space).values())
    states = len(space.states)
    assert (states, len(space.edges)) == (2039, 6237)
    assert {calls[n] for n in ("state_key", "_judge_state", "_race", "wf_heap")} == {states}
    assert calls["Heap"] < states


def test_wf_accept_path_matches_the_pairwise_report():
    """A well-formed heap shares one empty report; an ill-formed one gets
    the pairwise report, overlaps by pair and then each actor's violations."""

    def actor(this: int, lh: set[int], current=UNIT) -> Actor:
        return Actor(this, frozenset(lh), (), current)

    holder = actor(0, {0}, BestowedLoc(7, 1))
    cases = {
        # every pair of the three local heaps shares one location
        "pairwise": {0: actor(0, {0, 1, 2}), 1: actor(1, {1, 3}), 2: actor(2, {2, 3})},
        # an overlap, and a reference to location 7 that actor 1 does not own
        "overlap+owner": {0: holder, 1: actor(1, {1, 2}), 2: actor(2, {2})},
        # only the reference, and only an unallocated id
        "owner": {0: holder, 1: actor(1, {1})},
        "unallocated": {0: actor(0, {0}, ActorId(9))},
    }
    want = {
        "pairwise": [
            "[wf-heap] actors 0 and 1: local heaps overlap on location(s) [1]",
            "[wf-heap] actors 0 and 2: local heaps overlap on location(s) [2]",
            "[wf-heap] actors 1 and 2: local heaps overlap on location(s) [3]",
        ],
        "overlap+owner": [
            "[wf-heap] actors 1 and 2: local heaps overlap on location(s) [2]",
            "[wf-actor] actor 0: current expression holds a bestowed reference to "
            "location 7, which actor 1 does not own",
        ],
        "owner": [
            "[wf-actor] actor 0: current expression holds a bestowed reference to "
            "location 7, which actor 1 does not own",
        ],
        "unallocated": ["[wf-actor] actor 0: current expression mentions unallocated actor id 9"],
    }
    for name, actors in cases.items():
        heap = Heap(actors, 8, 3)
        report = wf_heap(heap)
        assert report == reference_wf_heap(heap)
        assert str(report) == str(reference_wf_heap(heap)) == "\n".join(want[name])
    accepted = wf_heap(initial_heap(UNIT))
    assert accepted.ok
    for c, s in SHAPES:
        for rep in explore(contended(c, s), max_depth=96).states.values():
            assert wf_heap(rep) is accepted

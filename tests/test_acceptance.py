"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
verdict line (even under captured output), so a full run reads as a
checklist.  Expected values here are derived by hand — closed-form counts,
rule-by-rule typing derivations, delivery-order arguments — never from the
code under test.
"""

from __future__ import annotations

import random
import runpy
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from bestow.explore import (
    Counterexample,
    check_all,
    explore,
    state_key,
)
from bestow.gen import generate_well_typed
from bestow.semantics import initial_heap, run_to_quiescence, step_system
from bestow.surface import compile_program
from bestow.syntax import (
    Actor,
    ActorId,
    ActorType,
    App,
    Arrow,
    Bestow,
    Bestowed,
    BestowedLoc,
    Heap,
    Lambda,
    Loc,
    Mutate,
    NewActor,
    NewPassive,
    Passive,
    Send,
    Type,
    UnitType,
    UnitVal,
    Var,
)
from bestow.typecheck import TypeCheckError, TypeEnv, check, type_of
from bestow.wellformed import wf_heap
from bestow.runtime import (
    bestow,
    current_actor,
    run_list_iterator,
    spawn,
    atomic_batch,
)

# The batching script holds the two programs of section 4 and their check.
BATCHING = runpy.run_path(str(Path(__file__).parent.parent / "scripts/batching_adjacency.py"))


def race_in(heap: Heap) -> Counterexample | None:
    """The race check on ``heap`` alone: no step taken, wf not required."""
    space = explore(heap, max_depth=0, canonical=False, require_wf=False)
    return space.verdicts["race-freedom"]


@pytest.fixture
def verdict(capsys):
    @contextmanager
    def criterion(label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"[acceptance] {label}: PASS")

    return criterion


# --------------------------------------------------------------------------
# 1. Generated programs are sound end to end
# --------------------------------------------------------------------------


def test_acceptance_soundness_sweep(verdict):
    label = (
        "1000 generated programs typecheck at their goal and pass "
        "progress/preservation/race-freedom on every reachable state"
    )
    with verdict(label):
        for seed in range(1000):
            budget = 4 + seed % 9  # budgets 4..12
            program, goal = generate_well_typed(seed, size_budget=budget)
            assert type_of(program) == goal, f"seed {seed}"
            space = explore(initial_heap(program))
            assert not space.truncated, f"seed {seed}"
            results = check_all(space)
            bad = {k: str(v) for k, v in results.items() if v is not None}
            assert not bad, f"seed {seed}: {bad}"


# --------------------------------------------------------------------------
# 2. Deliberately broken states are caught by name
# --------------------------------------------------------------------------


def test_acceptance_negative_controls(verdict):
    label = (
        "hand-broken heaps fail the named well-formedness rule and the "
        "race detector pins the racing pair"
    )
    with verdict(label):
        idle = UnitVal()

        # two actors claim location 5
        shared = Heap(
            actors={
                0: Actor(0, frozenset({0, 5}), (), idle),
                1: Actor(1, frozenset({1, 5}), (), idle),
            },
            next_loc=6,
            next_id=2,
        )
        report = wf_heap(shared)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"wf-heap"}

        # an actor's expression touches a location it does not own
        foreign = Heap(
            actors={0: Actor(0, frozenset({0}), (), Mutate(Loc(7)))},
            next_loc=8,
            next_id=1,
        )
        report = wf_heap(foreign)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"wf-actor"}
        assert any("location 7" in v.detail for v in report.violations)

        # a bestowed reference names an owner that does not own the location
        bad_owner = Heap(
            actors={
                0: Actor(0, frozenset({0}), (), BestowedLoc(5, 1)),
                1: Actor(1, frozenset({1}), (), idle),
            },
            next_loc=6,
            next_id=2,
        )
        report = wf_heap(bad_owner)
        assert not report.ok
        assert {v.rule for v in report.violations} == {"wf-actor"}
        assert any("does not own" in v.detail for v in report.violations)

        # two actors poised to mutate the same location
        racy = Heap(
            actors={
                0: Actor(0, frozenset({0, 5}), (), Mutate(Loc(5))),
                1: Actor(1, frozenset({1}), (), Mutate(Loc(5))),
            },
            next_loc=6,
            next_id=2,
        )
        witness = race_in(racy)
        assert witness is not None
        assert witness.detail == "actors 0 and 1 can both touch location 5"

        # the clean control: a real program's initial state passes everything
        good = initial_heap(
            compile_program("val a = new c; a ! \\x:p. x.mutate()")
        )
        assert wf_heap(good).ok
        assert race_in(good) is None


# --------------------------------------------------------------------------
# 3. The queue policy is observable: FIFO vs LIFO delivery
# --------------------------------------------------------------------------


def test_acceptance_queue_policy_reversal(verdict):
    label = (
        "two queued messages are delivered oldest-first by default and "
        "newest-first under the LIFO policy"
    )
    with verdict(label):
        src = (
            "val a = new c;\n"
            "val first = a ! \\x:p. new p;\n"
            "a ! \\x:p. x.mutate()\n"
        )
        core = compile_program(src)
        type_of(core)

        def delivered(lifo: bool) -> list[str]:
            _, trace = run_to_quiescence(initial_heap(core), lifo=lifo)
            return [e.rule for e in trace if e.rule in ("new-passive", "mutate")]

        fifo, lifo = delivered(False), delivered(True)
        assert fifo == ["new-passive", "mutate"]
        assert lifo == ["mutate", "new-passive"]
        assert lifo == list(reversed(fifo))


# --------------------------------------------------------------------------
# 4. Atomic batches keep their operations adjacent in every interleaving
# --------------------------------------------------------------------------


def test_acceptance_batch_adjacency(verdict):
    label = (
        "an atomic batch keeps both client operations adjacent on every "
        "maximal path; the unbatched program provably interleaves"
    )
    with verdict(label):
        _, unbatched = BATCHING["measure"](BATCHING["UNBATCHED"])
        assert unbatched.violated > 0  # a rival op can land between the two mutates
        assert unbatched.adjacent > 0  # but does not have to
        # The witness replays, and puts another owner op between two mutates.
        heap, marks = initial_heap(compile_program(BATCHING["UNBATCHED"])), ""
        for e in unbatched.witness.trace:
            heap, event = step_system(heap, e.event.actor)
            assert (event, state_key(heap, canonical=False)) == (e.event, e.dst)
            if event.actor == 0 and event.touched_loc is not None:
                marks += "M" if event.rule == "mutate" else "-"
        assert "-" in marks.strip("-"), marks

        _, batched = BATCHING["measure"](BATCHING["BATCHED"])
        assert batched.adjacent > 0 and batched.violated == 0 and batched.witness is None


# --------------------------------------------------------------------------
# 5. Hop accounting: indexed reads are quadratic, an iterator is linear
# --------------------------------------------------------------------------


def test_acceptance_hop_accounting(verdict):
    label = (
        "full scans cost exactly clients*M(M+1)/2 hops by index and "
        "clients*M hops by bestowed iterator, for M in {10, 100, 1000}"
    )
    with verdict(label):
        clients = 2
        for m in (10, 100, 1000):
            full_sum = m * (m - 1) // 2

            stats = run_list_iterator(clients, m, "get")
            assert stats.hops == clients * m * (m + 1) // 2
            assert stats.client_sums == [full_sum] * clients

            stats = run_list_iterator(clients, m, "bestowed-iterator")
            assert stats.hops == clients * m
            assert stats.client_sums == [full_sum] * clients


# --------------------------------------------------------------------------
# 6. A bestowed object is only ever touched on its owner's thread
# --------------------------------------------------------------------------


class _GuardedCounter:
    def __init__(self) -> None:
        self.owner = current_actor()
        self.value = 0
        self.touches = 0

    def add(self, n: int) -> int:
        assert current_actor() is self.owner, "counter touched off its owner"
        self.touches += 1
        self.value += n
        return self.value


class _CounterHolder:
    def __init__(self) -> None:
        self.counter = _GuardedCounter()

    def lend(self):
        return bestow(self.counter)


def test_acceptance_bestowed_ownership(verdict):
    label = (
        "8 threads x 1000 bestowed updates x 20 seeds: every access runs "
        "on the owner and totals match the seeded amounts exactly"
    )
    with verdict(label):
        threads, ops = 8, 1000
        for seed in range(20):
            rng = random.Random(seed)
            amounts = [rng.randint(-50, 50) for _ in range(threads * ops)]
            rng.shuffle(amounts)

            holder = spawn(_CounterHolder)
            try:
                lent = holder.perform(lambda h: h.lend()).result(timeout=10)
                futures: list[list] = [[] for _ in range(threads)]

                def work(k: int) -> None:
                    for n in amounts[k * ops : (k + 1) * ops]:
                        futures[k].append(
                            lent.perform(lambda c, n=n: c.add(n))
                        )

                ts = [
                    threading.Thread(target=work, args=(k,))
                    for k in range(threads)
                ]
                for t in ts:
                    t.start()
                for t in ts:
                    t.join()
                for fs in futures:
                    for f in fs:
                        f.result(timeout=30)

                value, touches = lent.perform(
                    lambda c: (c.value, c.touches)
                ).result(timeout=10)
                assert value == sum(amounts), f"seed {seed}"
                assert touches == threads * ops, f"seed {seed}"
            finally:
                holder.stop()
                holder.join(timeout=10)


# --------------------------------------------------------------------------
# 7. Atomic batches: batch equivalence and contiguity under interference
# --------------------------------------------------------------------------


class _Journal:
    def __init__(self) -> None:
        self.entries: list[str] = []

    def note(self, tag: str) -> None:
        self.entries.append(tag)


def test_acceptance_override_protocol(verdict):
    label = (
        "a batch equals sequential calls, and every batch lands contiguously "
        "under interference"
    )
    with verdict(label):
        # equivalence: batched or plain, identical final journals
        rng = random.Random(2024)
        for _ in range(100):
            ops = [f"op{rng.randint(0, 9)}" for _ in range(rng.randint(1, 8))]
            finals = []
            for style in ("batch", "plain"):
                ref = spawn(_Journal)
                try:
                    if style == "batch":
                        with atomic_batch(ref):
                            fs = [
                                ref.perform(lambda j, op=op: j.note(op))
                                for op in ops
                            ]
                        for f in fs:
                            f.result(timeout=5)
                    else:
                        for op in ops:
                            ref.perform(lambda j, op=op: j.note(op)).result(
                                timeout=5
                            )
                    finals.append(
                        ref.perform(lambda j: list(j.entries)).result(timeout=5)
                    )
                finally:
                    ref.stop()
                    ref.join(timeout=5)
            assert finals[0] == finals[1] == ops

        # under live interference every batch still lands contiguously
        ref = spawn(_Journal)
        stop = threading.Event()

        def interferer() -> None:
            while not stop.is_set():
                ref.perform(lambda j: j.note("x"))

        t = threading.Thread(target=interferer)
        t.start()
        try:
            for r in range(10):
                with atomic_batch(ref):
                    fs = [
                        ref.perform(lambda j, i=i, r=r: j.note(f"b{r}.{i}"))
                        for i in range(4)
                    ]
                for f in fs:
                    f.result(timeout=10)
        finally:
            stop.set()
            t.join(timeout=5)
        log = ref.perform(lambda j: list(j.entries)).result(timeout=5)
        ref.stop()
        ref.join(timeout=5)
        for r in range(10):
            tags = [f"b{r}.{i}" for i in range(4)]
            start = log.index(tags[0])
            assert log[start : start + 4] == tags


# --------------------------------------------------------------------------
# 8. Typing goldens: 36 judgements derived by hand, rule by rule
# --------------------------------------------------------------------------

_P, _C, _U, _B = Passive(), ActorType(), UnitType(), Bestowed()
_unit = UnitVal()


def _fn(x: str, t: Type, body) -> Lambda:
    return Lambda(x, t, body)


_WELL_TYPED: list[tuple[str, TypeEnv, object, Type]] = [
    ("unit value", TypeEnv(), _unit, _U),
    ("variable lookup", TypeEnv.of(x=_P), Var("x"), _P),
    ("location literal", TypeEnv(), Loc(3), _P),
    ("actor id literal", TypeEnv(), ActorId(2), _C),
    ("bestowed location literal", TypeEnv(), BestowedLoc(4, 1), _B),
    ("allocate passive", TypeEnv(), NewPassive(), _P),
    ("allocate actor", TypeEnv(), NewActor(), _C),
    ("identity function", TypeEnv(), _fn("x", _P, Var("x")), Arrow(_P, _P)),
    (
        "apply identity",
        TypeEnv(),
        App(_fn("x", _P, Var("x")), NewPassive()),
        _P,
    ),
    ("mutate an allocation", TypeEnv(), Mutate(NewPassive()), _U),
    ("bestow an allocation", TypeEnv(), Bestow(NewPassive()), _B),
    (
        "send to an actor",
        TypeEnv.of(a=_C),
        Send(Var("a"), Lambda("x", _P, _unit)),
        _U,
    ),
    (
        "send to a bestowed reference",
        TypeEnv.of(b=_B),
        Send(Var("b"), Lambda("x", _P, Mutate(Var("x")))),
        _U,
    ),
    (
        "message body sees active bindings",
        TypeEnv.of(a=_C, d=_C),
        Send(Var("a"), Lambda("x", _P, Send(Var("d"), Lambda("y", _P, _unit)))),
        _U,
    ),
    (
        "message body mutates its parameter",
        TypeEnv.of(a=_C),
        Send(Var("a"), Lambda("x", _P, Mutate(Var("x")))),
        _U,
    ),
    (
        "higher-order function",
        TypeEnv(),
        _fn("f", Arrow(_P, _U), _fn("x", _P, App(Var("f"), Var("x")))),
        Arrow(Arrow(_P, _U), Arrow(_P, _U)),
    ),
    (
        "curried application",
        TypeEnv(),
        App(App(_fn("x", _P, _fn("y", _P, Var("x"))), NewPassive()), NewPassive()),
        _P,
    ),
    (
        "bare location outside a message",
        TypeEnv(),
        _fn("y", _P, App(_fn("x", _P, _unit), Loc(0))),
        Arrow(_P, _U),
    ),
]

_ILL_TYPED: list[tuple[str, TypeEnv, object, str]] = [
    ("unbound variable", TypeEnv(), Var("ghost"), "e-var"),
    ("apply a unit value", TypeEnv(), App(_unit, NewPassive()), "e-apply"),
    (
        "apply a bestowed location",
        TypeEnv(),
        App(BestowedLoc(0, 0), NewPassive()),
        "e-apply",
    ),
    (
        "argument type mismatch",
        TypeEnv(),
        App(_fn("x", _P, Var("x")), NewActor()),
        "e-apply",
    ),
    ("mutate a unit value", TypeEnv(), Mutate(_unit), "e-mutate"),
    ("mutate an actor", TypeEnv.of(a=_C), Mutate(Var("a")), "e-mutate"),
    ("bestow an actor", TypeEnv(), Bestow(NewActor()), "e-bestow"),
    ("bestow a unit value", TypeEnv(), Bestow(_unit), "e-bestow"),
    (
        "send to a passive target",
        TypeEnv(),
        Send(NewPassive(), Lambda("x", _P, _unit)),
        "e-send",
    ),
    (
        "send to a unit target",
        TypeEnv(),
        Send(_unit, Lambda("x", _P, _unit)),
        "e-send",
    ),
    (
        "message is not a function",
        TypeEnv(),
        Send(NewActor(), UnitVal()),
        "e-send",
    ),
    (
        "message parameter is not passive",
        TypeEnv(),
        Send(NewActor(), Lambda("x", _C, _unit)),
        "e-send",
    ),
    (
        "message body uses a passive binding",
        TypeEnv.of(a=_C, y=_P),
        Send(Var("a"), Lambda("x", _P, Var("y"))),
        "e-send",
    ),
    (
        "message body smuggles a bare location",
        TypeEnv(),
        Send(NewActor(), Lambda("x", _P, Mutate(Loc(0)))),
        "e-send",
    ),
    (
        "message body uses a function binding",
        TypeEnv.of(a=_C, f=Arrow(_P, _U)),
        Send(Var("a"), Lambda("x", _P, App(Var("f"), Var("x")))),
        "e-send",
    ),
    (
        "failure inside a function body",
        TypeEnv(),
        _fn("x", _P, Mutate(_unit)),
        "e-mutate",
    ),
    (
        "failure inside an argument",
        TypeEnv(),
        App(_fn("x", _P, Var("x")), Mutate(_unit)),
        "e-mutate",
    ),
    (
        "unbound variable in a message body",
        TypeEnv.of(b=_B),
        Send(Var("b"), Lambda("x", _P, Var("ghost"))),
        "e-send",
    ),
]


def test_acceptance_typing_goldens(verdict):
    label = (
        "36 hand-derived judgements: 18 expressions type as derived, 18 "
        "fail with the derived rule"
    )
    with verdict(label):
        assert len(_WELL_TYPED) == 18
        assert len(_ILL_TYPED) == 18
        for name, env, e, want in _WELL_TYPED:
            assert check(env, e) == want, name
        for name, env, e, rule in _ILL_TYPED:
            with pytest.raises(TypeCheckError) as exc:
                check(env, e)
            assert exc.value.rule == rule, name

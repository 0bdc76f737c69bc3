"""Queue override and atomic batching: exclusivity, fairness, recovery."""

from __future__ import annotations

import random
import threading
import time

import pytest

from bestow.runtime import (
    BatchBrokenError,
    BestowedRef,
    CountingRLock,
    NestedOverrideError,
    atomic_batch,
    bestow,
    current_actor,
    lock_bestow,
    override_queue,
    spawn,
)
from bestow.runtime.actors import _override_registry


class Journal:
    """Appends every call to a list; the list is only touched on the
    actor's own thread, so the log order is the execution order."""

    def __init__(self) -> None:
        self.entries: list[str] = []

    def note(self, tag: str) -> int:
        self.entries.append(tag)
        return len(self.entries)


@pytest.fixture
def journal():
    ref = spawn(Journal)
    yield ref
    ref.stop()
    ref.join(timeout=5)


def entries(ref) -> list[str]:
    return ref.perform(lambda j: list(j.entries)).result(timeout=5)


def test_override_defers_other_clients(journal):
    started = threading.Event()
    finished = threading.Event()

    def rival():
        started.wait(timeout=5)
        for i in range(3):
            journal.perform(lambda j, i=i: j.note(f"rival{i}"))
        finished.set()

    t = threading.Thread(target=rival)
    t.start()
    token = override_queue(journal)
    started.set()
    finished.wait(timeout=5)
    # the rival has already posted; our calls still run first
    fs = [journal.perform(lambda j, i=i: j.note(f"mine{i}")) for i in range(3)]
    for f in fs:
        f.result(timeout=5)
    token.resume()
    t.join(timeout=5)
    log = entries(journal)
    assert log == ["mine0", "mine1", "mine2", "rival0", "rival1", "rival2"]


def test_deferred_calls_replay_in_arrival_order(journal):
    token = override_queue(journal)
    rivals = []

    def rival(i):
        rivals.append(journal.perform(lambda j, i=i: j.note(f"r{i}")))

    for i in range(5):
        t = threading.Thread(target=rival, args=(i,))
        t.start()
        t.join(timeout=5)
    journal.perform(lambda j: j.note("mine")).result(timeout=5)
    token.resume()
    for f in rivals:
        f.result(timeout=5)
    assert entries(journal) == ["mine", "r0", "r1", "r2", "r3", "r4"]


def test_nested_override_rejected(journal):
    token = override_queue(journal)
    try:
        with pytest.raises(NestedOverrideError):
            override_queue(journal)
    finally:
        token.resume()


def test_override_same_actor_from_two_threads_serializes(journal):
    def batch(tag: str, barrier: threading.Barrier):
        barrier.wait(timeout=5)
        token = override_queue(journal)
        fs = [
            journal.perform(lambda j, i=i, tag=tag: j.note(f"{tag}{i}"))
            for i in range(10)
        ]
        for f in fs:
            f.result(timeout=10)
        token.resume()

    barrier = threading.Barrier(2)
    threads = [
        threading.Thread(target=batch, args=(tag, barrier)) for tag in "ab"
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    log = entries(journal)
    assert sorted(log) == sorted(
        [f"a{i}" for i in range(10)] + [f"b{i}" for i in range(10)]
    )
    # each batch is one contiguous block
    firsts = [tag for tag in log if tag.endswith("0")]
    assert log == [f"{firsts[0][0]}{i}" for i in range(10)] + [
        f"{firsts[1][0]}{i}" for i in range(10)
    ]


def test_resume_is_idempotent(journal):
    token = override_queue(journal)
    token.resume()
    token.resume()
    journal.perform(lambda j: j.note("after")).result(timeout=5)
    assert entries(journal) == ["after"]


def test_resume_from_another_thread_frees_the_creator(journal):
    token = override_queue(journal)
    t = threading.Thread(target=token.resume)
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    # the creator may override the same actor again
    again = override_queue(journal)
    journal.perform(lambda j: j.note("again")).result(timeout=5)
    again.resume()
    assert entries(journal) == ["again"]


def test_watchdog_rescues_an_abandoned_override(journal):
    override_queue(journal, watchdog=0.1)  # never resumed
    fut = None

    def rival():
        nonlocal fut
        fut = journal.perform(lambda j: j.note("rescued"))

    t = threading.Thread(target=rival)
    t.start()
    t.join(timeout=5)
    assert fut.result(timeout=5) == 1
    # clear the stale registry entry so later tests on this thread are clean
    _override_registry().clear()


def in_other_thread(fn) -> list:
    """Run ``fn`` on a fresh daemon thread; its result, or [] if it hangs."""
    out: list = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout=5)
    return out


def test_watchdog_break_fails_the_clients_later_calls(journal):
    token = override_queue(journal, watchdog=0.1)
    try:
        journal.perform(lambda j: j.note("mine0")).result(timeout=5)
        time.sleep(0.3)  # the watchdog breaks the batch
        # a rival's call can only run once the override is gone
        assert in_other_thread(
            lambda: journal.perform(lambda j: j.note("rival")).result(timeout=5)
        ) == [2]
        with pytest.raises(BatchBrokenError):
            journal.perform(lambda j: j.note("mine1")).result(timeout=5)
        assert in_other_thread(lambda: entries(journal)) == [["mine0", "rival"]]
    finally:
        token.resume()
    assert journal.perform(lambda j: j.note("mine2")).result(timeout=5) == 3
    assert entries(journal) == ["mine0", "rival", "mine2"]


def test_stop_waits_for_an_active_override(journal):
    token = override_queue(journal)
    journal.stop()
    journal.perform(lambda j: j.note("still served")).result(timeout=5)
    token.resume()
    journal.join(timeout=5)


def test_atomic_batch_actor(journal):
    interloper_done = threading.Event()

    with atomic_batch(journal):
        def interloper():
            journal.perform(lambda j: j.note("other"))
            interloper_done.set()

        t = threading.Thread(target=interloper)
        t.start()
        interloper_done.wait(timeout=5)
        fs = [journal.perform(lambda j, i=i: j.note(f"batch{i}")) for i in range(3)]
        for f in fs:
            f.result(timeout=5)
        t.join(timeout=5)
    assert entries(journal) == ["batch0", "batch1", "batch2", "other"]


def test_atomic_batch_releases_on_exception(journal):
    with pytest.raises(ValueError):
        with atomic_batch(journal):
            raise ValueError("bail out")
    journal.perform(lambda j: j.note("alive")).result(timeout=5)
    assert entries(journal) == ["alive"]


@pytest.mark.parametrize("kind", ["actor", "bestowed", "locked"])
def test_atomic_batch_ends_when_the_block_raises(journal, kind):
    lock = CountingRLock()
    ref = {
        "actor": lambda: journal,
        "bestowed": lambda: journal.perform(bestow).result(timeout=5),
        "locked": lambda: lock_bestow(Journal(), lock),
    }[kind]()
    with pytest.raises(ValueError):
        with atomic_batch(ref):
            ref.perform(lambda j: j.note("inside")).result(timeout=5)
            raise ValueError("bail out")
    if kind == "locked":
        assert lock.acquisitions == 1  # the whole batch took the lock once
    # the batch is over: another thread's call goes through (for the locked
    # ref, the lock is free)
    assert in_other_thread(
        lambda: ref.perform(lambda j: j.note("other")).result(timeout=5)
    ) == [2]
    if kind == "locked":
        assert lock.acquisitions == 2


def test_atomic_batch_rejects_other_objects():
    with pytest.raises(TypeError, match="does not support batching"):
        with atomic_batch(object()):
            pass
    assert _override_registry() == {}


def test_atomic_batch_on_bestowed_ref_overrides_owner(journal):
    lent = journal.perform(lambda j: bestow(j.entries)).result(timeout=5)
    assert isinstance(lent, BestowedRef)

    other_done = threading.Event()
    with atomic_batch(lent):
        def rival():
            journal.perform(lambda j: j.note("direct"))
            other_done.set()

        t = threading.Thread(target=rival)
        t.start()
        other_done.wait(timeout=5)
        for i in range(2):
            lent.perform(lambda log, i=i: log.append(f"lent{i}")).result(timeout=5)
        t.join(timeout=5)
    assert entries(journal) == ["lent0", "lent1", "direct"]


def test_batch_equivalent_to_manual_override_and_plain_calls():
    # the same straight-line op list gives the same final state whether
    # batched, manually overridden, or just performed one by one
    rng = random.Random(42)
    for _ in range(100):
        ops = [
            ("add", rng.randint(1, 9)) if rng.random() < 0.7 else ("reset", 0)
            for _ in range(rng.randint(1, 8))
        ]

        def apply_op(j: Journal, op) -> None:
            kind, n = op
            if kind == "add":
                j.entries.append(f"+{n}")
            else:
                j.entries.clear()

        outcomes = []
        for style in ("batch", "manual", "plain"):
            ref = spawn(Journal)
            try:
                if style == "batch":
                    with atomic_batch(ref):
                        fs = [ref.perform(lambda j, op=op: apply_op(j, op)) for op in ops]
                        for f in fs:
                            f.result(timeout=5)
                elif style == "manual":
                    token = override_queue(ref)
                    fs = [ref.perform(lambda j, op=op: apply_op(j, op)) for op in ops]
                    for f in fs:
                        f.result(timeout=5)
                    token.resume()
                else:
                    for op in ops:
                        ref.perform(lambda j, op=op: apply_op(j, op)).result(timeout=5)
                outcomes.append(entries(ref))
            finally:
                ref.stop()
                ref.join(timeout=5)
        assert outcomes[0] == outcomes[1] == outcomes[2]


def test_batch_stays_contiguous_under_interference(journal):
    stop_interfering = threading.Event()

    def interferer():
        while not stop_interfering.is_set():
            journal.perform(lambda j: j.note("x"))

    t = threading.Thread(target=interferer)
    t.start()
    try:
        for round_no in range(20):
            with atomic_batch(journal):
                fs = [
                    journal.perform(
                        lambda j, i=i, r=round_no: j.note(f"b{r}.{i}")
                    )
                    for i in range(4)
                ]
                for f in fs:
                    f.result(timeout=10)
    finally:
        stop_interfering.set()
        t.join(timeout=5)
    log = entries(journal)
    for r in range(20):
        tags = [f"b{r}.{i}" for i in range(4)]
        start = log.index(tags[0])
        assert log[start : start + 4] == tags


def test_current_actor_inside_batched_call(journal):
    with atomic_batch(journal):
        who = journal.perform(lambda j: current_actor()).result(timeout=5)
    assert who is journal

"""Atomic batching: one batch is one mailbox message; futures resolve once."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from bestow.runtime import (
    ActorStoppedError,
    BestowedRef,
    CountingRLock,
    atomic_batch,
    bestow,
    current_actor,
    lock_bestow,
    spawn,
)
from bestow.runtime.actors import _tls


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


def test_a_batch_is_one_envelope(journal):
    # The actor is held inside a gate call, so nothing leaves the mailbox
    # while the batch is posted.
    gate, started = threading.Event(), threading.Event()
    journal.perform(lambda j: (started.set(), gate.wait(5), j.note("gate"))[2])
    assert started.wait(timeout=5)
    with atomic_batch(journal):
        fs = [journal.perform(lambda j, i=i: j.note(f"b{i}")) for i in range(4)]
    assert journal._mailbox.qsize() == 1
    gate.set()
    assert [f.result(timeout=5) for f in fs] == [2, 3, 4, 5]
    assert entries(journal) == ["gate", "b0", "b1", "b2", "b3"]


@pytest.mark.parametrize("inner", ["actor", "bestowed"])
def test_nested_batch_joins_the_outer_one(journal, inner):
    lent = journal.perform(bestow).result(timeout=5)
    ref = journal if inner == "actor" else lent
    with atomic_batch(journal):
        fs = [journal.perform(lambda j: j.note("outer0"))]
        with atomic_batch(ref):
            fs.append(ref.perform(lambda j: j.note("inner")))
        fs.append(journal.perform(lambda j: j.note("outer1")))
    assert _tls.batches == {}
    assert [f.result(timeout=5) for f in fs] == [1, 2, 3]
    assert entries(journal) == ["outer0", "inner", "outer1"]


def test_override_same_actor_from_two_threads_serializes(journal):
    def batch(tag: str, barrier: threading.Barrier):
        barrier.wait(timeout=5)
        with atomic_batch(journal):
            fs = []
            for i in range(10):
                fs.append(journal.perform(lambda j, i=i, tag=tag: j.note(f"{tag}{i}")))
                time.sleep(0)  # let the other thread run mid-batch
        for f in fs:
            f.result(timeout=10)

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


def in_other_thread(fn) -> list:
    """Run ``fn`` on a fresh daemon thread; its result, or [] if it hangs."""
    out: list = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout=5)
    return out


def test_a_raising_block_posts_nothing_and_fails_its_futures(journal):
    exc = ValueError("bail out")
    with pytest.raises(ValueError):
        with atomic_batch(journal):
            fs = [journal.perform(lambda j, i=i: j.note(f"lost{i}")) for i in range(3)]
            raise exc
    for f in fs:
        with pytest.raises(ValueError) as raised:
            f.result(timeout=5)
        assert raised.value is exc
    assert entries(journal) == []


@pytest.mark.parametrize("when", ["stopped", "stopping"])
def test_stop_before_a_batch_ends_fails_its_calls(journal, when):
    # "stopped": the loop has ended before the batch is posted, so the
    # post fails the calls; "stopping": the batch is posted behind the stop,
    # so the loop's last drain fails them.
    gate = threading.Event()
    journal.perform(lambda j: gate.wait(5))
    with atomic_batch(journal):
        fs = [journal.perform(lambda j, i=i: j.note(f"late{i}")) for i in range(3)]
        journal.stop()
        if when == "stopped":
            gate.set()
            journal.join(timeout=5)
            assert journal._stopped.is_set()
    gate.set()
    for f in fs:
        with pytest.raises(ActorStoppedError):
            f.result(timeout=5)
    journal.join(timeout=5)
    assert journal._mailbox.empty()


def test_reading_an_open_batchs_future_raises_at_once(journal):
    other = spawn(Journal)
    try:
        with atomic_batch(journal):
            fut = journal.perform(lambda j: j.note("mine"))
            with pytest.raises(RuntimeError, match="still open"):
                fut.result(timeout=5)  # its call is not posted yet
            # a second actor's future resolves inside the block
            assert other.perform(lambda j: j.note("elsewhere")).result(timeout=5) == 1
        assert fut.result(timeout=5) == 1
    finally:
        other.stop()
        other.join(timeout=5)


def test_atomic_batch_actor(journal):
    # A call posted while the block is open runs before the batch, which
    # lands where its block ends.
    interloper_done = threading.Event()

    with atomic_batch(journal):
        def interloper():
            journal.perform(lambda j: j.note("other"))
            interloper_done.set()

        t = threading.Thread(target=interloper)
        t.start()
        interloper_done.wait(timeout=5)
        fs = [journal.perform(lambda j, i=i: j.note(f"batch{i}")) for i in range(3)]
        t.join(timeout=5)
    assert [f.result(timeout=5) for f in fs] == [2, 3, 4]
    assert entries(journal) == ["other", "batch0", "batch1", "batch2"]


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
            inside = ref.perform(lambda j: j.note("inside"))
            raise ValueError("bail out")
    if kind == "locked":
        assert inside.result(timeout=5) == 1  # the lock ran it at once
        assert lock.acquisitions == 1  # the whole batch took the lock once
    else:
        with pytest.raises(ValueError, match="bail out"):
            inside.result(timeout=5)  # the batch was never posted
    # the batch is over: another thread's call goes through (for the locked
    # ref, the lock is free)
    assert in_other_thread(
        lambda: ref.perform(lambda j: j.note("other")).result(timeout=5)
    ) == [2 if kind == "locked" else 1]
    if kind == "locked":
        assert lock.acquisitions == 2


def test_actor_batches_from_many_threads_stay_whole():
    # More batching clients than cores, switching threads every microsecond:
    # each batch's results must still be consecutive, and every future must
    # resolve once.
    counter = spawn(Journal)
    torn = []

    def work():
        for _ in range(200):
            with atomic_batch(counter):
                fs = [counter.perform(lambda j: j.note("n")) for _ in range(3)]
            got = [f.result(timeout=10) for f in fs]
            if got != list(range(got[0], got[0] + 3)):
                torn.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        total = entries(counter)
        counter.stop()
        counter.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    assert torn == []
    assert len(total) == 8 * 200 * 3


def test_locked_batches_from_many_threads_count_each_once():
    # The lock's depth is one int that only its holder touches; a lost
    # update to it would miscount the outermost acquisitions.
    lock = CountingRLock()
    ref = lock_bestow({"n": 0}, lock)

    def work():
        for _ in range(3000):
            with atomic_batch(ref):
                ref.perform(lambda b: b.__setitem__("n", b["n"] + 1))
                ref.perform(lambda b: b.__setitem__("n", b["n"] + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert lock.acquisitions == 8 * 3000
    assert ref.object["n"] == 8 * 3000 * 2


def test_atomic_batch_rejects_other_objects():
    with pytest.raises(TypeError, match="does not support batching"):
        with atomic_batch(object()):
            pass
    assert _tls.batches == {}


def test_atomic_batch_on_bestowed_ref_overrides_owner(journal):
    lent = journal.perform(lambda j: bestow(j.entries)).result(timeout=5)
    assert isinstance(lent, BestowedRef)

    # The owner's batch lands where the block ends, after the direct call
    # another client posted meanwhile.
    other_done = threading.Event()
    with atomic_batch(lent):
        def rival():
            journal.perform(lambda j: j.note("direct"))
            other_done.set()

        t = threading.Thread(target=rival)
        t.start()
        other_done.wait(timeout=5)
        fs = [lent.perform(lambda log, i=i: log.append(f"lent{i}")) for i in range(2)]
        t.join(timeout=5)
    for f in fs:
        f.result(timeout=5)
    assert entries(journal) == ["direct", "lent0", "lent1"]


def test_batch_equivalent_to_plain_calls():
    # the same straight-line op list gives the same final state whether
    # batched or just performed one by one
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
        for style in ("batch", "plain"):
            ref = spawn(Journal)
            try:
                if style == "batch":
                    with atomic_batch(ref):
                        fs = [ref.perform(lambda j, op=op: apply_op(j, op)) for op in ops]
                    for f in fs:
                        f.result(timeout=5)
                else:
                    for op in ops:
                        ref.perform(lambda j, op=op: apply_op(j, op)).result(timeout=5)
                outcomes.append(entries(ref))
            finally:
                ref.stop()
                ref.join(timeout=5)
        assert outcomes[0] == outcomes[1]


def test_batch_stays_contiguous_under_interference(journal):
    stop_interfering = threading.Event()

    def interferer():
        # Waiting on every 16th call bounds the backlog, so the test turns
        # on torn batches, not on which thread runs faster.
        while not stop_interfering.is_set():
            calls = [journal.perform(lambda j: j.note("x")) for _ in range(16)]
            calls[-1].result(timeout=10)

    t = threading.Thread(target=interferer)
    t.start()
    try:
        for round_no in range(20):
            with atomic_batch(journal):
                fs = []
                for i in range(4):
                    fs.append(journal.perform(lambda j, tag=f"b{round_no}.{i}": j.note(tag)))
                    time.sleep(0)  # leave the interferer room to post mid-batch
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
        who = journal.perform(lambda j: current_actor())
    assert who.result(timeout=5) is journal

"""Queue override and atomic batching: exclusivity, fairness, recovery."""

from __future__ import annotations

import random
import sys
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
    with atomic_batch(journal):
        started.set()
        finished.wait(timeout=5)
        # the rival has already posted; our calls still run first
        fs = [journal.perform(lambda j, i=i: j.note(f"mine{i}")) for i in range(3)]
        for f in fs:
            f.result(timeout=5)
    t.join(timeout=5)
    log = entries(journal)
    assert log == ["mine0", "mine1", "mine2", "rival0", "rival1", "rival2"]


def test_deferred_calls_replay_in_arrival_order(journal):
    rivals = []

    def rival(i):
        rivals.append(journal.perform(lambda j, i=i: j.note(f"r{i}")))

    with atomic_batch(journal):
        for i in range(5):
            t = threading.Thread(target=rival, args=(i,))
            t.start()
            t.join(timeout=5)
        journal.perform(lambda j: j.note("mine")).result(timeout=5)
    for f in rivals:
        f.result(timeout=5)
    assert entries(journal) == ["mine", "r0", "r1", "r2", "r3", "r4"]


@pytest.mark.parametrize("inner", ["actor", "bestowed"])
def test_nested_override_rejected(journal, inner):
    lent = journal.perform(bestow).result(timeout=5)
    with atomic_batch(journal):
        with pytest.raises(NestedOverrideError):
            with atomic_batch(journal if inner == "actor" else lent):
                pass
        # the refused inner batch left the outer one open
        journal.perform(lambda j: j.note("outer")).result(timeout=5)
    assert _tls.overrides == {}
    assert entries(journal) == ["outer"]


def test_override_same_actor_from_two_threads_serializes(journal):
    def batch(tag: str, barrier: threading.Barrier):
        barrier.wait(timeout=5)
        with atomic_batch(journal):
            fs = [
                journal.perform(lambda j, i=i, tag=tag: j.note(f"{tag}{i}"))
                for i in range(10)
            ]
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


def test_watchdog_rescues_an_abandoned_override(journal):
    batch = atomic_batch(journal, watchdog=0.1)
    batch.__enter__()  # the client goes quiet inside the block
    fut = None

    def rival():
        nonlocal fut
        fut = journal.perform(lambda j: j.note("rescued"))

    try:
        t = threading.Thread(target=rival)
        t.start()
        t.join(timeout=5)
        assert fut.result(timeout=5) == 1
    finally:
        batch.__exit__(None, None, None)


def test_watchdog_times_the_client_not_the_mailbox(journal):
    batch = atomic_batch(journal, watchdog=0.1)
    batch.__enter__()  # the client goes quiet inside the block
    futs = []

    def rival():
        # post every 20 ms for up to 0.6 s, until the first call resolves
        for i in range(30):
            futs.append(journal.perform(lambda j, i=i: j.note(f"r{i}")))
            if futs[0].done():
                return
            time.sleep(0.02)

    try:
        t = threading.Thread(target=rival)
        t.start()
        t.join(timeout=5)
        assert futs[0].done() and len(futs) < 30  # while the rival still posts
        assert [f.result(timeout=1) for f in futs] == list(range(1, len(futs) + 1))
        journal.stop()
        journal.join(timeout=1)
        assert journal._stopped.is_set()
    finally:
        batch.__exit__(None, None, None)


def test_watchdog_does_not_count_the_clients_own_calls(journal):
    with atomic_batch(journal, watchdog=0.1):
        slow = journal.perform(lambda j: (time.sleep(0.2), j.note("slow"))[1])
        assert slow.result(timeout=5) == 1
        assert journal.perform(lambda j: j.note("next")).result(timeout=5) == 2


def in_other_thread(fn) -> list:
    """Run ``fn`` on a fresh daemon thread; its result, or [] if it hangs."""
    out: list = []
    t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    t.start()
    t.join(timeout=5)
    return out


def test_watchdog_break_fails_the_clients_later_calls(journal):
    with atomic_batch(journal, watchdog=0.1):
        journal.perform(lambda j: j.note("mine0")).result(timeout=5)
        time.sleep(0.3)  # the watchdog breaks the batch
        # a rival's call can only run once the override is gone
        assert in_other_thread(
            lambda: journal.perform(lambda j: j.note("rival")).result(timeout=5)
        ) == [2]
        with pytest.raises(BatchBrokenError):
            journal.perform(lambda j: j.note("mine1")).result(timeout=5)
        assert in_other_thread(lambda: entries(journal)) == [["mine0", "rival"]]
    assert journal.perform(lambda j: j.note("mine2")).result(timeout=5) == 3
    assert entries(journal) == ["mine0", "rival", "mine2"]


def test_watchdog_reads_posted_envelopes_before_breaking(journal):
    # The client's second call sits behind 30 000 rival calls, which take
    # the actor longer than the watchdog to defer; it was posted in time.
    gate = threading.Event()
    with atomic_batch(journal, watchdog=0.02):
        first = journal.perform(lambda j: (gate.wait(5), j.note("mine0"))[1])
        [rivals] = in_other_thread(
            lambda: [journal.perform(lambda j: j.note("r")) for _ in range(30_000)]
        )
        second = journal.perform(lambda j: j.note("mine1"))
        gate.set()
        assert first.result(timeout=5) == 1
        assert second.result(timeout=5) == 2
    assert rivals[-1].result(timeout=10) == 30_002


@pytest.mark.parametrize("watchdog", [float("inf"), float("nan"), 1e300, 0.0, -1.0])
def test_a_watchdog_the_mailbox_cannot_time_is_refused(journal, watchdog):
    # Past threading.TIMEOUT_MAX the actor's timed mailbox read raises, its
    # thread dies and the block's call never resolves; refuse it up front,
    # for every kind of reference.
    with pytest.raises(ValueError, match="watchdog"):
        with atomic_batch(journal, watchdog=watchdog):
            journal.perform(lambda j: j.note("lost")).result(timeout=2)
    with pytest.raises(ValueError, match="watchdog"):
        atomic_batch(lock_bestow(Journal()), watchdog=watchdog)
    with atomic_batch(journal, watchdog=threading.TIMEOUT_MAX):
        assert journal.perform(lambda j: j.note("kept")).result(timeout=5) == 1


def test_a_deferred_override_runs_its_deferred_calls_first(journal):
    # B holds the override; A's override request, a rival's call and A's
    # call all wait behind it.  When B resumes, A's call runs before the
    # rival's, which arrived first.
    a_requested, rival_posted, a_posted = (threading.Event() for _ in range(3))
    outcome: list = []

    def client_a():
        with atomic_batch(journal, watchdog=0.2):
            a_requested.set()
            rival_posted.wait(timeout=5)
            fut = journal.perform(lambda j: j.note("a1"))
            a_posted.set()
            try:
                outcome.append(fut.result(timeout=5))
            except BatchBrokenError as exc:
                outcome.append(exc)

    t = threading.Thread(target=client_a)
    with atomic_batch(journal):
        journal.perform(lambda j: j.note("b")).result(timeout=5)
        t.start()
        assert a_requested.wait(timeout=5)
        in_other_thread(lambda: journal.perform(lambda j: j.note("r")))
        rival_posted.set()
        assert a_posted.wait(timeout=5)
    t.join(timeout=5)
    assert not t.is_alive()
    assert outcome == [2]
    assert entries(journal) == ["b", "a1", "r"]


def test_stop_waits_for_an_active_override(journal):
    with atomic_batch(journal):
        journal.stop()
        journal.perform(lambda j: j.note("still served")).result(timeout=5)
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
    assert _tls.overrides == {}


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
                # Each call waits for the one before, leaving the interferer
                # room to post between them.
                for i in range(4):
                    journal.perform(
                        lambda j, i=i, r=round_no: j.note(f"b{r}.{i}")
                    ).result(timeout=10)
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

"""Lock-based sharing: the cheap alternative to owner-mediated access."""

from __future__ import annotations

import threading

import pytest

from bestow.runtime import (
    CountingRLock,
    LockedRef,
    atomic_batch,
    lock_bestow,
)


def test_counting_rlock_counts_only_outermost_acquisitions():
    lock = CountingRLock()
    with lock:
        with lock:
            with lock:
                pass
    assert lock.acquisitions == 1
    with lock:
        pass
    assert lock.acquisitions == 2


def test_counting_rlock_is_reentrant_per_thread_exclusive_across():
    lock = CountingRLock()
    order: list[str] = []
    inside = threading.Event()
    release = threading.Event()

    def first():
        with lock:
            order.append("first-in")
            inside.set()
            release.wait(timeout=5)
            order.append("first-out")

    def second():
        inside.wait(timeout=5)
        with lock:
            order.append("second")

    t1 = threading.Thread(target=first)
    t2 = threading.Thread(target=second)
    t1.start()
    t2.start()
    release.set()
    t1.join(timeout=5)
    t2.join(timeout=5)
    assert order == ["first-in", "first-out", "second"]


def test_counting_rlock_release_without_acquire():
    lock = CountingRLock()
    with pytest.raises(RuntimeError):
        lock.release()


def test_locked_ref_runs_on_the_calling_thread():
    ref = lock_bestow({"n": 0})
    assert isinstance(ref, LockedRef)

    def bump(box):
        box["n"] += 1
        return threading.current_thread()

    fut = ref.perform(bump)
    assert fut.done()  # resolved synchronously
    assert fut.result() is threading.current_thread()


def test_locked_ref_perform_captures_exceptions():
    ref = lock_bestow([])

    def broken(_obj):
        raise IndexError("empty")

    fut = ref.perform(broken)
    assert fut.done()
    with pytest.raises(IndexError):
        fut.result()


def test_locked_ref_counts_acquisitions():
    lock = CountingRLock()
    ref = lock_bestow({"n": 0}, lock)

    def bump(box):
        box["n"] += 1

    for _ in range(5):
        ref.perform(bump)
    assert lock.acquisitions == 5


def test_locked_ref_batch_takes_the_lock_once():
    lock = CountingRLock()
    ref = lock_bestow({"n": 0}, lock)

    def bump(box):
        box["n"] += 1

    with atomic_batch(ref):
        for _ in range(5):
            ref.perform(bump)
    assert lock.acquisitions == 1
    assert ref.perform(lambda b: b["n"]).result() == 5
    assert lock.acquisitions == 2


def test_locked_ref_batch_excludes_other_threads():
    lock = CountingRLock()
    ref = lock_bestow({"log": []}, lock)
    entered = threading.Event()
    begun = threading.Event()

    def rival():
        begun.wait(timeout=5)
        ref.perform(lambda b: b["log"].append("rival"))
        entered.set()

    t = threading.Thread(target=rival)
    t.start()
    with atomic_batch(ref):
        begun.set()
        for i in range(3):
            ref.perform(lambda b, i=i: b["log"].append(f"mine{i}"))
        # the rival is stuck on the lock until the batch ends
        assert not entered.wait(timeout=0.2)
    assert entered.wait(timeout=5)
    t.join(timeout=5)
    assert ref.perform(lambda b: b["log"]).result() == [
        "mine0",
        "mine1",
        "mine2",
        "rival",
    ]


def test_locked_ref_concurrent_increments_stay_exact():
    ref = lock_bestow({"n": 0})

    def work():
        for _ in range(500):
            ref.perform(lambda b: b.__setitem__("n", b["n"] + 1))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ref.perform(lambda b: b["n"]).result() == 4000


def test_lock_bestow_shares_a_caller_provided_lock():
    lock = CountingRLock()
    a = lock_bestow({"n": 0}, lock)
    b = lock_bestow({"n": 0}, lock)
    with atomic_batch(a):
        a.perform(lambda x: x.__setitem__("n", 1))
        b.perform(lambda x: x.__setitem__("n", 2))
    # both refs went through the single shared lock, held once
    assert lock.acquisitions == 1

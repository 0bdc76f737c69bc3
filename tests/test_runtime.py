"""Actor threads, message ordering, futures, and bestowed references."""

from __future__ import annotations

import threading
import time

import pytest

from bestow.runtime import (
    ActorStoppedError,
    AwaitInsideActorError,
    BestowError,
    BestowedRef,
    Future,
    bestow,
    current_actor,
    lock_bestow,
    spawn,
)


class Counter:
    def __init__(self, start: int = 0) -> None:
        self.value = start
        self.thread = threading.current_thread()

    def add(self, n: int) -> int:
        assert threading.current_thread() is self.thread
        self.value += n
        return self.value


@pytest.fixture
def counter():
    ref = spawn(Counter)
    yield ref
    ref.stop()
    ref.join(timeout=5)


def test_spawn_constructs_on_the_actor_thread(counter):
    home = counter.perform(lambda c: c.thread).result(timeout=5)
    assert home is not threading.current_thread()
    assert home.daemon


def test_spawn_passes_constructor_arguments():
    ref = spawn(Counter, 41)
    try:
        assert ref.perform(lambda c: c.add(1)).result(timeout=5) == 42
    finally:
        ref.stop()
        ref.join(timeout=5)


def test_perform_runs_calls_in_submission_order(counter):
    futures = [counter.perform(lambda c, k=k: c.add(k)) for k in range(1, 11)]
    results = [f.result(timeout=5) for f in futures]
    # running totals prove both ordering and single-threaded execution
    assert results == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]


def test_future_propagates_exceptions(counter):
    class Boom(Exception):
        pass

    def explode(_c):
        raise Boom("no")

    fut = counter.perform(explode)
    with pytest.raises(Boom):
        fut.result(timeout=5)
    assert fut.done()


def test_perform_with_a_target_runs_it_on_the_actor_in_arrival_order(counter):
    home = counter.perform(lambda c: c.thread).result(timeout=5)
    instance = counter.perform(lambda c: c).result(timeout=5)
    target = object()
    log: list = []

    def note(kind, i):
        return lambda arg: log.append((kind, i, arg, threading.current_thread()))

    futures = []
    for i in range(3):
        futures.append(counter.perform(note("instance", i)))
        futures.append(counter.perform(note("target", i), target=target))

    def explode(t):
        raise KeyError(t is target)

    failed = counter.perform(explode, target=target)
    for f in futures:
        f.result(timeout=5)
    with pytest.raises(KeyError, match="True"):
        failed.result(timeout=5)
    assert log == [
        (kind, i, instance if kind == "instance" else target, home)
        for i in range(3)
        for kind in ("instance", "target")
    ]


def test_future_result_times_out():
    fut = Future()
    with pytest.raises(TimeoutError):
        fut.result(timeout=0.01)


def test_future_is_write_once():
    fut = Future()
    fut.set_result(1)
    with pytest.raises(RuntimeError):
        fut.set_result(2)
    with pytest.raises(RuntimeError):
        fut.set_exception(ValueError())
    assert fut.result() == 1


def test_future_is_write_once_after_an_exception():
    fut = Future()
    fut.set_exception(KeyError("first"))
    with pytest.raises(RuntimeError, match="already resolved"):
        fut.set_result(2)
    with pytest.raises(RuntimeError, match="already resolved"):
        fut.set_exception(ValueError())
    with pytest.raises(KeyError, match="first"):
        fut.result()


def test_future_nonpositive_timeout_polls():
    # Event.wait treats timeout <= 0 as a poll; a poll must not block.  The
    # polls run on a daemon thread so a blocking one fails the test.
    fut = Future()
    elapsed: dict[float, float] = {}

    def poll() -> None:
        for timeout in (0, -1, -0.5):
            t0 = time.monotonic()
            with pytest.raises(TimeoutError, match="did not resolve in time"):
                fut.result(timeout=timeout)
            elapsed[timeout] = time.monotonic() - t0

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    poller.join(timeout=5)
    assert sorted(elapsed) == [-1, -0.5, 0]
    assert max(elapsed.values()) < 0.1


@pytest.mark.parametrize("outcome", ["value", "exception"])
def test_future_wakes_every_waiter(outcome):
    fut = Future()
    boom = LookupError("shared")
    got: list = []

    def wait() -> None:
        try:
            got.append(fut.result(timeout=5))
        except LookupError as exc:
            got.append(exc)

    waiters = [threading.Thread(target=wait) for _ in range(4)]
    for t in waiters:
        t.start()
    time.sleep(0.05)  # let the waiters block
    assert got == []
    if outcome == "value":
        setter, expected = threading.Thread(target=fut.set_result, args=(7,)), 7
    else:
        setter, expected = threading.Thread(target=fut.set_exception, args=(boom,)), boom
    setter.start()
    for t in [setter, *waiters]:
        t.join(timeout=5)
    assert got == [expected] * 4


def test_future_timed_out_waiter_gets_the_value_later():
    fut = Future()
    with pytest.raises(TimeoutError):
        fut.result(timeout=0.01)
    with pytest.raises(TimeoutError):
        fut.result(timeout=0)
    fut.set_result("late")
    assert fut.done()
    assert fut.result() == "late"
    assert fut.result(timeout=0) == "late"


@pytest.mark.parametrize("timeout", [float("inf"), 1e300])
def test_future_waits_without_limit_past_the_longest_timeout(timeout):
    # Past threading.TIMEOUT_MAX no lock takes the timeout; the wait has no limit.
    fut = Future()
    timer = threading.Timer(0.1, fut.set_result, args=("late",))
    timer.start()
    assert fut.result(timeout=timeout) == "late"
    timer.join(timeout=5)


def test_join_waits_without_limit_past_the_longest_timeout():
    ref = spawn(Counter)
    timer = threading.Timer(0.1, ref.stop)
    timer.start()
    ref.join(timeout=float("inf"))
    assert ref._stopped.is_set()
    timer.join(timeout=5)


def test_locked_ref_future_is_done_on_return(counter):
    ref = lock_bestow([1])
    fut = ref.perform(lambda xs: xs[0])
    assert fut.done() and fut.result() == 1
    failed = ref.perform(lambda xs: xs[5])
    assert failed.done()
    with pytest.raises(IndexError):
        failed.result()
    # resolved at birth, so even an actor may read it
    assert counter.perform(lambda _c: fut.result()).result(timeout=5) == 1


def test_current_actor_is_none_on_external_threads(counter):
    assert current_actor() is None
    assert counter.perform(lambda c: current_actor()).result(timeout=5) is counter


def test_actor_cannot_block_on_unresolved_future(counter):
    other = spawn(Counter)
    try:
        gate = threading.Event()

        def slow(_c):
            gate.wait(timeout=5)
            return "done"

        slow_fut = other.perform(slow)

        def await_it(_c):
            return slow_fut.result(timeout=5)

        fut = counter.perform(await_it)
        with pytest.raises(AwaitInsideActorError):
            fut.result(timeout=5)
        gate.set()
        assert slow_fut.result(timeout=5) == "done"
    finally:
        other.stop()
        other.join(timeout=5)


def test_actor_may_read_already_resolved_future(counter):
    ready = counter.perform(lambda c: c.add(1))
    ready.result(timeout=5)
    got = counter.perform(lambda _c: ready.result()).result(timeout=5)
    assert got == 1


def test_stop_rejects_new_work_and_fails_queued_calls():
    ref = spawn(Counter)
    ref.stop()
    ref.join(timeout=5)
    with pytest.raises(ActorStoppedError):
        ref.perform(lambda c: c.add(1))


class _StopsAfterFirstLook:
    """A stop flag that reads clear once, then set: a ``perform`` that
    passes its first check just before the loop stops and drains."""

    def __init__(self, event: threading.Event) -> None:
        self.event = event
        self.looks = 0

    def is_set(self) -> bool:
        self.looks += 1
        return self.looks > 1 and self.event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self.event.wait(timeout)


def test_perform_racing_stop_fails_its_future():
    ref = spawn(Counter)
    ref.stop()
    ref.join(timeout=5)
    assert ref._stopped.is_set()
    ref._stopped = _StopsAfterFirstLook(ref._stopped)
    fut = ref.perform(lambda c: c.add(1))
    with pytest.raises(ActorStoppedError):
        fut.result(timeout=1)


def actor_thread(ref):
    """The thread running ``ref``, found by the name ``spawn`` gives it; the
    actor must be unique by name and still running."""
    [thread] = [t for t in threading.enumerate() if t.name == f"actor-{ref.name}"]
    return thread


class _FailsToStart:
    def __init__(self) -> None:
        time.sleep(0.2)
        raise ValueError("no instance")


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_failing_constructor_fails_the_calls_already_posted():
    ref = spawn(_FailsToStart, name="fails-to-start")
    thread = actor_thread(ref)
    fut = ref.perform(lambda x: x)  # posted while the constructor runs
    with pytest.raises(ActorStoppedError):
        fut.result(timeout=2)
    thread.join(timeout=1)  # the loop re-raises the constructor's error
    assert not thread.is_alive() and ref._stopped.is_set()


def test_concurrent_external_producers_keep_counts_exact(counter):
    per_thread = 200

    def produce():
        for _ in range(per_thread):
            counter.perform(lambda c: c.add(1))

    threads = [threading.Thread(target=produce) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = counter.perform(lambda c: c.value).result(timeout=5)
    assert total == 8 * per_thread


# --------------------------------------------------------------------------
# Bestowed references
# --------------------------------------------------------------------------


class Owner:
    def __init__(self) -> None:
        self.box = {"n": 0}
        self.me = current_actor()

    def lend(self) -> BestowedRef:
        assert current_actor() is self.me
        return bestow(self.box)


@pytest.fixture
def owner():
    ref = spawn(Owner)
    yield ref
    ref.stop()
    ref.join(timeout=5)


def test_bestow_requires_an_actor_thread():
    with pytest.raises(BestowError):
        bestow({"n": 0})


def test_bestowed_work_runs_on_the_owner(owner):
    lent = owner.perform(lambda o: o.lend()).result(timeout=5)
    assert isinstance(lent, BestowedRef)
    assert lent.owner is owner

    def tick(box):
        assert current_actor() is owner
        box["n"] += 1
        return box["n"]

    assert lent.perform(tick).result(timeout=5) == 1
    assert lent.perform(tick).result(timeout=5) == 2
    # the owner sees the same underlying object
    assert owner.perform(lambda o: o.box["n"]).result(timeout=5) == 2


def test_bestowed_calls_interleave_with_owner_mailbox(owner):
    lent = owner.perform(lambda o: o.lend()).result(timeout=5)
    log: list[str] = []

    fs = []
    for i in range(5):
        fs.append(owner.perform(lambda o, i=i: log.append(f"direct{i}")))
        fs.append(lent.perform(lambda box, i=i: log.append(f"lent{i}")))
    for f in fs:
        f.result(timeout=5)
    assert log == [
        f"{kind}{i}" for i in range(5) for kind in ("direct", "lent")
    ]


@pytest.mark.parametrize("obj", [None, 0, []], ids=repr)
def test_bestowed_closure_gets_a_falsy_object_itself(owner, obj):
    lent = owner.perform(lambda _o: bestow(obj)).result(timeout=5)
    got, where = lent.perform(lambda x: (x, current_actor())).result(timeout=5)
    assert got is obj
    assert where is owner


def test_bestowed_exceptions_reach_the_caller(owner):
    lent = owner.perform(lambda o: o.lend()).result(timeout=5)

    def broken(_box):
        raise KeyError("missing")

    with pytest.raises(KeyError):
        lent.perform(broken).result(timeout=5)


def test_many_threads_share_one_bestowed_object(owner):
    lent = owner.perform(lambda o: o.lend()).result(timeout=5)

    def bump(box):
        box["n"] += 1

    def work():
        for _ in range(100):
            lent.perform(bump)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    settle = owner.perform(lambda o: o.box["n"])
    assert settle.result(timeout=5) == 800


def test_actor_threads_wind_down():
    ref = spawn(Counter, name="winds-down")
    thread = actor_thread(ref)
    ref.perform(lambda c: c.add(1)).result(timeout=5)
    ref.stop()
    ref.join(timeout=5)
    deadline = time.monotonic() + 5
    while thread.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not thread.is_alive()

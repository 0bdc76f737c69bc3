"""A small thread-based actor library.

Each spawned actor owns one OS thread and one mailbox; all of its state is
created and touched only on that thread.  Interaction goes through
:meth:`ActorRef.perform`, which ships a closure to the actor and returns a
write-once :class:`Future` for the closure's result.

The mailbox holds three kinds of envelope: a call, a batch and a stop
request.  A call names the object its closure runs on: the actor's
instance, or an object the actor bestowed.  A batch is the list of calls
that :func:`bestow.runtime.override.atomic_batch` recorded in its block;
it is posted once, when the block ends, and the loop runs its calls in
order with nothing between them, as the calculus desugars ``atomic`` into
a single message.  The loop is a plain mailbox loop: it keeps no state
between envelopes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Any, Callable, Generic, Iterator, TypeVar

T = TypeVar("T")


class _ThreadState(threading.local):
    ref: "ActorRef | None" = None  # the actor whose loop runs this thread

    def __init__(self) -> None:
        self.batches: dict = {}  # this thread's open batches: ref -> [_Call]


_tls = _ThreadState()


def current_actor() -> "ActorRef | None":
    """The ref of the actor whose loop is running this thread, if any."""
    return _tls.ref


class AwaitInsideActorError(RuntimeError):
    """Blocked on an unresolved future from inside an actor loop.

    Waiting there can deadlock the whole system (the result may need the
    very actor that is waiting), so it is refused outright.
    """


class ActorStoppedError(RuntimeError):
    """The target actor has already shut down."""


def _limit(timeout: float | None) -> float | None:
    """``timeout``, or None (no limit) when it is longer than any wait the
    platform's locks accept."""
    return None if timeout is not None and timeout > threading.TIMEOUT_MAX else timeout


class Future(Generic[T]):
    """A write-once result slot on one lock, held until the slot is filled;
    a waiter takes the lock and drops it at once, so every waiter gets by."""

    __slots__ = ("_lock", "_done", "_value", "_exc")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self._value, self._exc, self._done = None, None, False

    @classmethod
    def _settled(cls, value: Any, exc: BaseException | None) -> "Future":
        """A future born resolved; it never needs a lock."""
        fut = cls.__new__(cls)
        fut._value, fut._exc, fut._done = value, exc, True
        return fut

    def done(self) -> bool:
        return self._done

    def _resolve(self, value: T | None, exc: BaseException | None) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._value, self._exc, self._done = value, exc, True
        self._lock.release()

    def set_result(self, value: T) -> None:
        self._resolve(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._resolve(None, exc)

    def result(self, timeout: float | None = None) -> T:
        if not self._done:
            if current_actor() is not None:
                raise AwaitInsideActorError(
                    "an actor may not block on an unresolved future; "
                    "hand the future to an external thread or restructure "
                    "the protocol as further messages"
                )
            if _tls.batches and any(
                call.future is self for calls in _tls.batches.values() for call in calls
            ):
                raise RuntimeError(
                    "this future's batch is still open: its call is posted "
                    "when the atomic_batch block ends, so read it after"
                )
            timeout = _limit(timeout)
            block = timeout is None or timeout > 0  # <= 0 polls, as in Event.wait
            if not self._lock.acquire(block, timeout if block and timeout else -1):
                raise TimeoutError("future did not resolve in time")
            self._lock.release()
        if self._exc is not None:
            raise self._exc
        return self._value  # type: ignore[return-value]


_SELF = object()  # a call's target when its closure runs on the actor's instance


@dataclass(slots=True)
class _Call:
    fn: Callable[[Any], Any]
    future: Future
    target: Any  # the object ``fn`` runs on, or _SELF


class _Stop:
    """Ends the loop once the envelopes posted before it have run."""


class ActorRef:
    """Handle to a running actor; safe to share between threads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._mailbox: SimpleQueue = SimpleQueue()
        self._stopped = threading.Event()

    def __repr__(self) -> str:
        return f"<actor {self.name}>"

    def _post(self, envelope: object) -> None:
        self._mailbox.put(envelope)
        if self._stopped.is_set():
            # The loop's last drain may have missed this envelope.
            _fail_calls(self)

    def perform(self, fn: Callable[[Any], T], *, target: Any = _SELF) -> Future[T]:
        """Run ``fn(actor_instance)`` on the actor's thread, eventually; with
        ``target``, run ``fn(target)`` there instead.  Inside an
        ``atomic_batch`` block on this actor the call is recorded, and posted
        with the rest of the batch when the block ends."""
        if self._stopped.is_set():
            raise ActorStoppedError(f"{self} has stopped")
        fut: Future[T] = Future()
        batch = _tls.batches.get(self)
        if batch is not None:
            batch.append(_Call(fn, fut, target))
        else:
            self._post(_Call(fn, fut, target))
        return fut

    def stop(self) -> None:
        """Ask the actor to shut down after the messages already queued."""
        self._post(_Stop())

    def join(self, timeout: float | None = None) -> None:
        self._stopped.wait(_limit(timeout))


@contextmanager
def _batching(ref: ActorRef) -> Iterator[None]:
    """Record this thread's performs on ``ref`` for the block, then post
    them as one envelope.  A nested block on ``ref`` joins the open batch.

    If the block raises, nothing is posted and every recorded future fails
    with the block's exception.
    """
    batches = _tls.batches
    if ref in batches:
        yield
        return
    calls = batches[ref] = []
    try:
        yield
    except BaseException as exc:
        for call in calls:
            call.future.set_exception(exc)
        raise
    finally:
        del batches[ref]
    if calls:
        ref._post(calls)


def _execute(instance: Any, call: _Call) -> None:
    target = call.target
    try:
        result = call.fn(instance if target is _SELF else target)
    except BaseException as exc:  # noqa: BLE001 — delivered via the future
        call.future.set_exception(exc)
    else:
        call.future.set_result(result)


def _loop(ref: ActorRef, make_instance: Callable[[], Any]) -> None:
    _tls.ref = ref
    try:
        instance = make_instance()
    except BaseException:
        ref._stopped.set()
        _fail_calls(ref)  # calls posted before the constructor failed
        raise

    get = ref._mailbox.get
    while True:
        env = get()
        if type(env) is _Call:
            _execute(instance, env)
        elif type(env) is list:  # a batch: its calls run back to back
            for call in env:
                _execute(instance, call)
        else:  # _Stop
            break

    ref._stopped.set()
    _fail_calls(ref)  # whatever slipped in after the stop was read


def _fail_calls(ref: ActorRef) -> None:
    """Fail the calls left in stopped ``ref``'s mailbox, batched or not; an
    envelope leaves the mailbox once, so one thread resolves its futures."""
    while True:
        try:
            env = ref._mailbox.get_nowait()
        except Empty:
            return
        for call in env if type(env) is list else (env,):
            if type(call) is _Call:
                call.future.set_exception(ActorStoppedError(f"{ref} has stopped"))


def spawn(cls: type, *args: Any, name: str | None = None, **kwargs: Any) -> ActorRef:
    """Start an actor of class ``cls``; the instance is built on its thread.

    Construction on the actor's own thread means the instance's state never
    exists on any other thread, which is the whole isolation story.
    """
    ref = ActorRef(name or cls.__name__)
    threading.Thread(
        target=_loop,
        args=(ref, lambda: cls(*args, **kwargs)),
        name=f"actor-{ref.name}",
        daemon=True,
    ).start()
    return ref

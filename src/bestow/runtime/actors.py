"""A small thread-based actor library.

Each spawned actor owns one OS thread and one mailbox; all of its state is
created and touched only on that thread.  Interaction goes through
:meth:`ActorRef.perform`, which ships a closure to the actor and returns a
write-once :class:`Future` for the closure's result.

The mailbox speaks four envelope kinds: calls, a stop request, and the
override/resume pair that :func:`bestow.runtime.override.atomic_batch`
sends around its block.  While an override is active, calls carrying the
overriding token run immediately and everything else is deferred, in
arrival order, until the matching resume.  The watchdog times the
overriding client alone: once the actor has finished one of its envelopes,
the client has the watchdog's timeout to send the next, however many other
clients post meanwhile.  The override breaks once that deadline has passed
and the mailbox is empty (envelopes already posted are read first): a
client quiet that long is force-resumed rather than let it wedge the
actor; its batch is broken, and each later call carrying its token fails
with :class:`BatchBrokenError` instead of running between other clients'
calls.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from time import monotonic
from typing import Any, Callable, Generic, Iterator, TypeVar

T = TypeVar("T")


class _ThreadState(threading.local):
    ref: "ActorRef | None" = None  # the actor whose loop runs this thread

    def __init__(self) -> None:
        self.overrides: dict = {}  # this thread's override tokens, by ref


_tls = _ThreadState()

DEFAULT_WATCHDOG = 5.0


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


class NestedOverrideError(RuntimeError):
    """This thread already holds an override on the same actor."""


class BatchBrokenError(RuntimeError):
    """The watchdog force-resumed this call's override: the batch is over."""


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
            block = timeout is None or timeout > 0  # <= 0 polls, as in Event.wait
            if not self._lock.acquire(block, timeout if block and timeout else -1):
                raise TimeoutError("future did not resolve in time")
            self._lock.release()
        if self._exc is not None:
            raise self._exc
        return self._value  # type: ignore[return-value]


@dataclass
class _Call:
    fn: Callable[[Any], Any]
    future: Future
    token: object | None


@dataclass
class _Override:
    token: object
    watchdog: float


@dataclass
class _Resume:
    token: object


class _Stop:
    token = None  # a stop belongs to no override


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

    def perform(self, fn: Callable[[Any], T]) -> Future[T]:
        """Run ``fn(actor_instance)`` on the actor's thread, eventually."""
        if self._stopped.is_set():
            raise ActorStoppedError(f"{self} has stopped")
        fut: Future[T] = Future()
        token = _tls.overrides.get(self)
        self._post(_Call(fn, fut, token))
        if self._stopped.is_set():
            # The loop's last drain may have missed this call.
            _fail_calls(self, [])
        return fut

    def stop(self) -> None:
        """Ask the actor to shut down after the messages already queued."""
        self._post(_Stop())

    def join(self, timeout: float | None = None) -> None:
        self._stopped.wait(timeout)


@contextmanager
def _overriding(ref: ActorRef, watchdog: float) -> Iterator[None]:
    """Jump the queue of ``ref`` for the block: this thread's performs run
    at once and everyone else's wait, in arrival order, until it ends.

    The token is a bare object, registered for this thread so ``perform``
    tags its calls; the block's end unregisters it and posts the resume.
    """
    reg = _tls.overrides
    if ref in reg:
        raise NestedOverrideError(f"this thread already overrides {ref}")
    token = reg[ref] = object()
    ref._post(_Override(token, watchdog))
    try:
        yield
    finally:
        del reg[ref]
        ref._post(_Resume(token))


def _execute(instance: Any, call: _Call) -> None:
    try:
        result = call.fn(instance)
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
        _fail_calls(ref, [])  # calls posted before the constructor failed
        raise

    pending: deque = deque()  # deferred envelopes, arrival order
    mode: object | None = None  # the active override's token
    watchdog = deadline = 0.0
    broken: set[object] = set()  # overrides the watchdog ended

    while True:
        if mode is None:
            env = pending.popleft() if pending else ref._mailbox.get()
        elif pending and pending[0].token is mode:
            env = pending.popleft()
        else:
            try:
                env = ref._mailbox.get(timeout=max(deadline - monotonic(), 0))
            except Empty:
                broken.add(mode)  # force-resume: the client went quiet
                mode = None
                continue

        match env:
            case _Call() if env.token in broken:
                env.future.set_exception(
                    BatchBrokenError(f"{ref}'s watchdog broke this batch")
                )
            case _ if mode is not None and env.token is not mode:
                pending.append(env)  # another client's, until the resume
            case _Call():
                _execute(instance, env)
                if mode is not None:  # the client's silence starts now
                    deadline = monotonic() + watchdog
            case _Override():
                mode, watchdog = env.token, env.watchdog
                deadline = monotonic() + watchdog
                # The client's envelopes deferred while its override request
                # waited in line run first, in arrival order.
                mine = []
                for _ in range(len(pending)):
                    e = pending.popleft()
                    (mine if e.token is mode else pending).append(e)
                pending.extendleft(reversed(mine))
            case _Resume():
                # ends the active override, or is stale (the watchdog already
                # fired): then forget the break, as the client left the batch
                mode = None
                broken.discard(env.token)
            case _Stop():
                break

    ref._stopped.set()
    # Fail whatever slipped in after the stop was processed.
    _fail_calls(ref, list(pending))


def _fail_calls(ref: ActorRef, leftovers: list) -> None:
    """Fail the calls in ``leftovers`` and in stopped ``ref``'s mailbox; an
    envelope leaves the mailbox once, so one thread resolves its future."""
    while True:
        try:
            leftovers.append(ref._mailbox.get_nowait())
        except Empty:
            break
    for env in leftovers:
        if isinstance(env, _Call):
            env.future.set_exception(ActorStoppedError(f"{ref} has stopped"))


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

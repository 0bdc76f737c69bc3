"""A small thread-based actor library.

Each spawned actor owns one OS thread and one mailbox; all of its state is
created and touched only on that thread.  Interaction goes through
:meth:`ActorRef.perform`, which ships a closure to the actor and returns a
write-once :class:`Future` for the closure's result.

The mailbox speaks four envelope kinds: calls, a stop request, and the
override/resume pair used for queue batching (see
:mod:`bestow.runtime.override`).  While an override is active, calls
carrying the overriding token run immediately and everything else is
deferred, in arrival order, until the matching resume.  A client quiet for
the watchdog's timeout is force-resumed rather than let it wedge the actor;
its batch is broken, and each later call carrying its token fails with
:class:`BatchBrokenError` instead of running between other clients' calls.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from queue import Empty, SimpleQueue
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")

_tls = threading.local()

DEFAULT_WATCHDOG = 5.0


def current_actor() -> "ActorRef | None":
    """The ref of the actor whose loop is running this thread, if any."""
    return getattr(_tls, "ref", None)


def _override_registry() -> dict:
    reg = getattr(_tls, "overrides", None)
    if reg is None:
        reg = {}
        _tls.overrides = reg
    return reg


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
    """A write-once result slot."""

    __slots__ = ("_event", "_value", "_exc")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: T | None = None
        self._exc: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, value: T) -> None:
        if self._event.is_set():
            raise RuntimeError("future already resolved")
        self._value = value
        self._event.set()

    def set_exception(self, exc: BaseException) -> None:
        if self._event.is_set():
            raise RuntimeError("future already resolved")
        self._exc = exc
        self._event.set()

    def result(self, timeout: float | None = None) -> T:
        if not self._event.is_set() and current_actor() is not None:
            raise AwaitInsideActorError(
                "an actor may not block on an unresolved future; "
                "hand the future to an external thread or restructure "
                "the protocol as further messages"
            )
        if not self._event.wait(timeout):
            raise TimeoutError("future did not resolve in time")
        if self._exc is not None:
            raise self._exc
        return self._value  # type: ignore[return-value]


class OverrideToken:
    """Capability to run ahead of an actor's queue until resumed.

    It sits in its creator's registry until resumed, from whichever thread.
    """

    __slots__ = ("ref", "_released", "_registry")

    def __init__(self, ref: "ActorRef", registry: dict) -> None:
        self.ref = ref
        self._released = False
        self._registry = registry

    def resume(self) -> None:
        if self._released:
            return
        self._released = True
        if self._registry.get(self.ref) is self:
            del self._registry[self.ref]
        self.ref._post(_Resume(self))


@dataclass
class _Call:
    fn: Callable[[Any], Any]
    future: Future
    token: OverrideToken | None


@dataclass
class _Override:
    token: OverrideToken
    watchdog: float


@dataclass
class _Resume:
    token: OverrideToken


class _Stop:
    pass


class ActorRef:
    """Handle to a running actor; safe to share between threads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._mailbox: SimpleQueue = SimpleQueue()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    def __repr__(self) -> str:
        return f"<actor {self.name}>"

    def _post(self, envelope: object) -> None:
        self._mailbox.put(envelope)

    def perform(self, fn: Callable[[Any], T]) -> Future[T]:
        """Run ``fn(actor_instance)`` on the actor's thread, eventually."""
        if self._stopped.is_set():
            raise ActorStoppedError(f"{self} has stopped")
        fut: Future[T] = Future()
        token = _override_registry().get(self)
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


def override_queue(ref: ActorRef, *, watchdog: float = DEFAULT_WATCHDOG) -> OverrideToken:
    """Jump the queue of ``ref``: until the returned token is resumed,
    this thread's performs run immediately and everyone else's wait.

    Deferred work is executed in arrival order on resume.  If the actor
    hears nothing for ``watchdog`` seconds while overridden it resumes by
    itself rather than stay hostage to a lost client; this thread's calls
    then fail with :class:`BatchBrokenError` until the token is resumed.
    """
    reg = _override_registry()
    if ref in reg:
        raise NestedOverrideError(f"this thread already overrides {ref}")
    token = reg[ref] = OverrideToken(ref, reg)
    ref._post(_Override(token, watchdog))
    return token


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
        raise

    pending: deque = deque()  # deferred envelopes, arrival order
    ready: deque = deque()  # the active override's adopted envelopes
    mode: OverrideToken | None = None
    watchdog = DEFAULT_WATCHDOG
    broken: set[OverrideToken] = set()  # overrides the watchdog ended
    running = True

    def activate(token: OverrideToken, wd: float) -> None:
        """Start an override.  The client's earlier envelopes may sit in
        ``pending`` from when its override request was itself deferred;
        adopt them now so they run ahead of everyone else's."""
        nonlocal mode, watchdog, pending
        mode, watchdog = token, wd
        keep: deque = deque()
        for env in pending:
            if isinstance(env, (_Call, _Resume)) and env.token is token:
                ready.append(env)
            else:
                keep.append(env)
        pending = keep

    def deactivate() -> None:
        nonlocal mode
        mode = None
        if ready:  # adopted work outliving its batch goes back in line
            pending.extendleft(reversed(ready))
            ready.clear()

    while running:
        if mode is None:
            env = pending.popleft() if pending else ref._mailbox.get()
        elif ready:
            env = ready.popleft()
        else:
            try:
                env = ref._mailbox.get(timeout=watchdog)
            except Empty:
                broken.add(mode)  # force-resume: the client went quiet
                deactivate()
                continue

        match env:
            case _Call() as call:
                if call.token in broken:
                    call.future.set_exception(
                        BatchBrokenError(f"{ref}'s watchdog broke this batch")
                    )
                elif mode is not None and call.token is not mode:
                    pending.append(call)
                else:
                    _execute(instance, call)
            case _Override(token, wd):
                if mode is None:
                    activate(token, wd)
                else:
                    pending.append(env)
            case _Resume(token):
                if mode is token:
                    deactivate()
                elif mode is not None:
                    pending.append(env)
                else:
                    # a stale resume (the watchdog already fired): drop it and
                    # forget the break, as the client has left the batch
                    broken.discard(token)
            case _Stop():
                if mode is not None:
                    pending.append(env)
                else:
                    running = False

    ref._stopped.set()
    # Fail whatever slipped in after the stop was processed.
    _fail_calls(ref, list(ready) + list(pending))


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
    thread = threading.Thread(
        target=_loop,
        args=(ref, lambda: cls(*args, **kwargs)),
        name=f"actor-{ref.name}",
        daemon=True,
    )
    ref._thread = thread
    thread.start()
    return ref

"""Lock-guarded sharing: the conventional alternative to bestowing.

A :class:`LockedRef` pairs an object with a reentrant lock; ``perform``
acquires the lock and runs the closure on the *calling* thread.
:func:`bestow.runtime.override.atomic_batch` holds the lock across the
whole block, so the per-operation acquires inside are reentrant no-ops and
no watchdog can end the batch early.

:class:`CountingRLock` counts outermost acquisitions, which is how the
tests pin down "a batch costs one lock acquisition, k bare operations cost
k".
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from .actors import Future


class CountingRLock:
    """A reentrant lock that counts its outermost (depth 0 -> 1) acquires."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._depth = threading.local()
        self.acquisitions = 0

    def acquire(self) -> None:
        self._lock.acquire()
        depth = getattr(self._depth, "value", 0)
        if depth == 0:
            # Only the holder runs this line, so plain += is race-free.
            self.acquisitions += 1
        self._depth.value = depth + 1

    def release(self) -> None:
        self._depth.value = getattr(self._depth, "value", 1) - 1
        self._lock.release()

    def __enter__(self) -> "CountingRLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class LockedRef:
    """An object/lock pair; access runs wherever the caller is."""

    __slots__ = ("object", "lock")

    def __init__(self, obj: Any, lock: CountingRLock | None = None) -> None:
        self.object = obj
        self.lock = lock if lock is not None else CountingRLock()

    def __repr__(self) -> str:
        return f"<locked {type(self.object).__name__}>"

    def perform(self, fn: Callable[[Any], Any]) -> Future:
        """Run ``fn(object)`` under the lock; returns an already-done future.

        The future keeps the call shape identical to
        :meth:`BestowedRef.perform`, so the same client code drives either
        kind of reference.
        """
        fut: Future = Future()
        with self.lock:
            try:
                result = fn(self.object)
            except BaseException as exc:  # noqa: BLE001 — delivered via the future
                fut.set_exception(exc)
                return fut
        fut.set_result(result)
        return fut


def lock_bestow(obj: Any, lock: CountingRLock | None = None) -> LockedRef:
    """Wrap ``obj`` for lock-guarded sharing (no owner, no forwarding)."""
    return LockedRef(obj, lock)

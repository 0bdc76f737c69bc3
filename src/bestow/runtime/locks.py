"""Lock-guarded sharing: the conventional alternative to bestowing.

A :class:`LockedRef` pairs an object with a reentrant lock; ``perform``
acquires the lock, runs the closure on the *calling* thread and returns a
future born resolved, which holds no lock of its own.
:func:`bestow.runtime.override.atomic_batch` holds the lock across the
whole block, so the per-operation acquires inside are reentrant no-ops.
Unlike an actor's batch, which is posted when its block ends, each call
runs at once and its future is resolved inside the block.

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
        self._depth = 0  # only the holder reads or writes it
        self.acquisitions = 0

    def acquire(self) -> None:
        self._lock.acquire()
        if self._depth == 0:
            self.acquisitions += 1
        self._depth += 1

    def release(self) -> None:
        if not self._lock._is_owned():  # as threading.Condition tests it
            raise RuntimeError("cannot release un-acquired lock")
        self._depth -= 1
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

        The future keeps the call shape of :meth:`BestowedRef.perform`, so
        the same client code drives either kind of reference.
        """
        with self.lock:
            try:
                result = fn(self.object)
            except BaseException as exc:  # noqa: BLE001 — delivered via the future
                return Future._settled(None, exc)
        return Future._settled(result, None)


def lock_bestow(obj: Any, lock: CountingRLock | None = None) -> LockedRef:
    """Wrap ``obj`` for lock-guarded sharing (no owner, no forwarding)."""
    return LockedRef(obj, lock)

"""Atomic batching over any kind of shared reference.

``atomic_batch(ref)`` is a context manager that makes every operation
issued inside the block land contiguously:

* for an :class:`~bestow.runtime.actors.ActorRef` or a
  :class:`~bestow.runtime.bestowed.BestowedRef`, it overrides the (owner's)
  message queue — the block's performs run immediately, everyone else's are
  deferred in arrival order until the block ends;
* for a :class:`~bestow.runtime.locks.LockedRef`, it takes the lock once
  around the whole block.

The queue flavor builds on :func:`~bestow.runtime.actors.override_queue`
and :meth:`~bestow.runtime.actors.OverrideToken.resume`, the two halves
for callers that want them explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Protocol, runtime_checkable

from .actors import DEFAULT_WATCHDOG


@runtime_checkable
class Batchable(Protocol):
    def _batch_begin(self, watchdog: float) -> "object": ...


@contextmanager
def atomic_batch(ref: Batchable, *, watchdog: float = DEFAULT_WATCHDOG) -> Iterator[None]:
    """Run the block's operations on ``ref`` as one indivisible burst."""
    if not isinstance(ref, Batchable):
        raise TypeError(f"{ref!r} does not support batching")
    end = ref._batch_begin(watchdog)
    try:
        yield
    finally:
        end()

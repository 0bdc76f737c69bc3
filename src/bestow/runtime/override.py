"""Atomic batching: the one batching entry point for all three reference kinds.

``atomic_batch(ref)`` makes every operation issued inside the block land
contiguously.  On an :class:`~bestow.runtime.actors.ActorRef` it overrides
the actor's queue, on a :class:`~bestow.runtime.bestowed.BestowedRef` its
owner's (see :func:`~bestow.runtime.actors.override_queue`): the block's
performs run at once and everyone else's wait, in arrival order, until the
block ends.  If the owner's watchdog breaks the override, the block's later
calls fail with ``BatchBrokenError``.  On a
:class:`~bestow.runtime.locks.LockedRef` it holds the lock across the block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .actors import ActorRef, override_queue
from .bestowed import BestowedRef
from .locks import LockedRef


@contextmanager
def atomic_batch(ref: ActorRef | BestowedRef | LockedRef) -> Iterator[None]:
    """Run the block's operations on ``ref`` as one indivisible burst."""
    if isinstance(ref, LockedRef):
        with ref.lock:
            yield
        return
    actor = ref.owner if isinstance(ref, BestowedRef) else ref
    if not isinstance(actor, ActorRef):
        raise TypeError(f"{ref!r} does not support batching")
    token = override_queue(actor)
    try:
        yield
    finally:
        token.resume()

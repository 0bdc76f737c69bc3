"""Atomic batching: the one batching entry point for all three reference kinds.

``atomic_batch(ref)`` makes every operation issued inside the block land
contiguously.  On an :class:`~bestow.runtime.actors.ActorRef`, or on a
:class:`~bestow.runtime.bestowed.BestowedRef` through its owner, the
block's performs are recorded and posted as one mailbox message when the
block ends, so the batch lands where its block ends and nothing runs
between its calls.  Their futures resolve after that: read them after the
block.  On a :class:`~bestow.runtime.locks.LockedRef` it holds the lock
across the block.
"""

from __future__ import annotations

from contextlib import AbstractContextManager

from .actors import ActorRef, _batching
from .bestowed import BestowedRef
from .locks import LockedRef


def atomic_batch(ref: ActorRef | BestowedRef | LockedRef) -> AbstractContextManager:
    """Run the block's operations on ``ref`` as one indivisible burst.

    On an actor (a bestowed ref's owner), ``perform`` inside the block
    returns an unresolved future, and ``result()`` on it raises
    ``RuntimeError`` until the block ends.  If the block raises, nothing
    is posted and each recorded future fails with the block's exception.
    A nested block on the same actor joins the open batch, as a nested
    block on a ``LockedRef`` re-enters its lock.
    """
    if isinstance(ref, LockedRef):
        return ref.lock
    actor = ref.owner if isinstance(ref, BestowedRef) else ref
    if not isinstance(actor, ActorRef):
        raise TypeError(f"{ref!r} does not support batching")
    return _batching(actor)

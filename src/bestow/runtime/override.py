"""Atomic batching: the one batching entry point for all three reference kinds.

``atomic_batch(ref)`` makes every operation issued inside the block land
contiguously.  On an :class:`~bestow.runtime.actors.ActorRef` it overrides
the actor's queue, on a :class:`~bestow.runtime.bestowed.BestowedRef` its
owner's: the block's performs run at once and everyone else's wait, in
arrival order, until the block ends.  If the owner's watchdog breaks the
override, the block's later calls fail with ``BatchBrokenError``.  On a
:class:`~bestow.runtime.locks.LockedRef` it holds the lock across the block.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager

from .actors import DEFAULT_WATCHDOG, ActorRef, _overriding
from .bestowed import BestowedRef
from .locks import LockedRef


def atomic_batch(
    ref: ActorRef | BestowedRef | LockedRef, *, watchdog: float = DEFAULT_WATCHDOG
) -> AbstractContextManager:
    """Run the block's operations on ``ref`` as one indivisible burst.

    If the block sends the actor (a bestowed ref's owner) nothing for
    ``watchdog`` seconds after the actor finished its last envelope (other
    clients' envelopes do not count), the actor resumes by itself, once its
    mailbox is empty, rather than stay hostage to a lost client; the block's
    later calls then fail with ``BatchBrokenError``.  A ``LockedRef``
    ignores ``watchdog``: no one can end a lock holder's batch early.
    Raises ``ValueError`` for any ``ref`` unless ``0 < watchdog <=
    threading.TIMEOUT_MAX``, the longest wait a mailbox can time.
    """
    if not 0 < watchdog <= threading.TIMEOUT_MAX:
        raise ValueError(f"watchdog must be in (0, {threading.TIMEOUT_MAX}] s, not {watchdog!r}")
    if isinstance(ref, LockedRef):
        return ref.lock
    actor = ref.owner if isinstance(ref, BestowedRef) else ref
    if not isinstance(actor, ActorRef):
        raise TypeError(f"{ref!r} does not support batching")
    return _overriding(actor, watchdog)

"""Concurrent actor runtime: threads, bestowed references, batching."""

from __future__ import annotations

from .actors import (
    ActorRef,
    ActorStoppedError,
    AwaitInsideActorError,
    Future,
    current_actor,
    spawn,
)
from .bestowed import BestowedRef, BestowError, bestow
from .locks import CountingRLock, LockedRef, lock_bestow
from .override import atomic_batch
from .listiter import (
    LinkedList,
    ListHolder,
    ListIterator,
    ListIterStats,
    bestow_iterator,
    bestow_list,
    expected_hops,
    run_list_iterator,
)

__all__ = [
    "ActorRef",
    "ActorStoppedError",
    "AwaitInsideActorError",
    "BestowError",
    "BestowedRef",
    "CountingRLock",
    "Future",
    "LinkedList",
    "ListHolder",
    "ListIterator",
    "ListIterStats",
    "LockedRef",
    "atomic_batch",
    "bestow",
    "bestow_iterator",
    "bestow_list",
    "current_actor",
    "expected_hops",
    "lock_bestow",
    "run_list_iterator",
    "spawn",
]

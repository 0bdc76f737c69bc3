"""Bestowed references: share a passive object without sharing its memory.

An actor that owns a plain Python object can *bestow* it, producing a
:class:`BestowedRef` — a pair of the owner's ref and the object — that can
be handed to any thread.  Holders never touch the object directly; calling
:meth:`BestowedRef.perform` ships the closure to the owner, which applies
it to the underlying object on its own thread.  The object therefore stays
thread-confined while behaving like a shared reference.
"""

from __future__ import annotations

from typing import Any, Callable

from .actors import ActorRef, Future, current_actor


class BestowError(RuntimeError):
    """Bestowing is only possible from inside the owning actor."""


class BestowedRef:
    """An owner/object pair; all access is forwarded to the owner."""

    __slots__ = ("owner", "object")

    def __init__(self, owner: ActorRef, obj: Any) -> None:
        self.owner = owner
        self.object = obj

    def __repr__(self) -> str:
        return f"<bestowed {type(self.object).__name__} of {self.owner.name}>"

    def perform(self, fn: Callable[[Any], Any]) -> Future:
        """Run ``fn(underlying_object)`` on the owner's thread."""
        obj = self.object
        return self.owner.perform(lambda _actor: fn(obj))


def bestow(obj: Any) -> BestowedRef:
    """Bestow ``obj``, owned by the actor calling this.

    Must run on an actor thread: ownership is exactly "whose loop is
    executing", so there is no way to bestow from the outside.
    """
    owner = current_actor()
    if owner is None:
        raise BestowError(
            "bestow() must be called from an actor thread; "
            "use ref.perform(lambda a: bestow(...)) to bestow owned state"
        )
    return BestowedRef(owner, obj)

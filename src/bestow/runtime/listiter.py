"""The linked-list example: indexed access vs a bestowed iterator.

A holder actor owns a singly linked list.  Clients elsewhere can read it
two ways:

* ``get`` — ask for element i by index, every time.  The owner walks the
  list from the head, so reading element i costs i+1 node visits and a
  full scan of M elements costs M(M+1)/2 visits — quadratic.
* ``bestowed-iterator`` — ask the owner to bestow an iterator.  The
  iterator keeps its position, so each ``get_next`` costs exactly one node
  visit and the full scan costs M — linear.  The iterator travels to the
  client as a reference, but its state never leaves the owner's thread.

A third mode, ``atomic-pairs``, has several clients draining one shared
iterator two elements at a time: each draw is one closure, and a client
makes its two draws inside an ``atomic_batch`` block, yielding between
them, and reads both after the block.  Batching is what keeps each drawn
pair adjacent in the list.

Node visits are counted on the list itself (``LinkedList.hops``); only the
owner's thread ever touches the list, so a plain int is sound.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable

from .actors import ActorRef, current_actor, spawn
from .bestowed import BestowedRef, bestow
from .override import atomic_batch


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: object, nxt: "_Node | None" = None) -> None:
        self.value = value
        self.next = nxt


class LinkedList:
    """Singly linked list with a traversal (hop) counter."""

    def __init__(self, values: Iterable[object] = ()) -> None:
        self.head: _Node | None = None
        self.tail: _Node | None = None
        self.size = 0
        self.hops = 0
        for v in values:
            self.append(v)
        self.hops = 0  # construction is setup, not traversal

    def append(self, value: object) -> None:
        node = _Node(value)
        if self.tail is None:
            self.head = node
        else:
            self.tail.next = node
        self.tail = node
        self.size += 1

    def get(self, index: int) -> object:
        """Element at ``index``, by walking from the head: index+1 hops."""
        if not 0 <= index < self.size:
            raise IndexError(index)
        node = self.head
        self.hops += 1
        for _ in range(index):
            node = node.next  # type: ignore[union-attr]
            self.hops += 1
        return node.value  # type: ignore[union-attr]

    def iterator(self) -> "ListIterator":
        return ListIterator(self)


class ListIterator:
    """A cursor into a :class:`LinkedList`; one hop per element."""

    __slots__ = ("_list", "_node")

    def __init__(self, lst: LinkedList) -> None:
        self._list = lst
        self._node = lst.head

    def has_next(self) -> bool:
        return self._node is not None  # a null check, not a traversal

    def get_next(self) -> object:
        if self._node is None:
            raise StopIteration
        self._list.hops += 1
        value = self._node.value
        self._node = self._node.next
        return value


class ListHolder:
    """The actor that owns the list.  Spawn with the element count."""

    def __init__(self, elements: int) -> None:
        self.list = LinkedList(range(elements))
        self.owner = current_actor()

    def checked_list(self) -> LinkedList:
        assert current_actor() is self.owner, "list touched off its owner"
        return self.list


def _draw(it: ListIterator) -> object:
    """The iterator's next element, or None once it is spent."""
    return it.get_next() if it.has_next() else None


def bestow_list(holder: ActorRef) -> BestowedRef:
    return holder.perform(lambda a: bestow(a.checked_list())).result()


def bestow_iterator(holder: ActorRef) -> BestowedRef:
    return holder.perform(lambda a: bestow(a.checked_list().iterator())).result()


@dataclass
class ListIterStats:
    """``expected_sum`` is one full traversal's worth: sum(0..elements-1).

    In ``get`` and ``bestowed-iterator`` mode every client reads the whole
    list, so each entry of ``client_sums`` should equal ``expected_sum``;
    in ``atomic-pairs`` mode the clients drain one shared iterator, so the
    entries should add up to it.
    """

    mode: str
    clients: int
    elements: int
    hops: int
    client_sums: list[int]
    expected_sum: int
    torn_pairs: int = 0
    pairs: int = 0


def expected_hops(mode: str, clients: int, elements: int) -> int:
    """Closed-form owner-side hop counts for each mode."""
    if mode == "get":
        return clients * elements * (elements + 1) // 2
    if mode == "bestowed-iterator":
        return clients * elements
    if mode == "atomic-pairs":
        return elements
    raise ValueError(f"unknown mode {mode!r}")


def run_list_iterator(clients: int, elements: int, mode: str) -> ListIterStats:
    """Run one scenario and report hop counts and per-client sums."""
    holder = spawn(ListHolder, elements, name="list-holder")
    try:
        if mode == "get":
            blist = bestow_list(holder)

            def reader_get(out: list[int]) -> None:
                total = 0
                for i in range(elements):
                    total += blist.perform(lambda l, i=i: l.get(i)).result()
                out.append(total)

            sums = _run_clients(clients, reader_get)
            torn = pairs = 0

        elif mode == "bestowed-iterator":

            def reader_iter(out: list[int]) -> None:
                it = bestow_iterator(holder)
                total = 0
                while it.perform(lambda i: i.has_next()).result():
                    total += it.perform(lambda i: i.get_next()).result()
                out.append(total)

            sums = _run_clients(clients, reader_iter)
            torn = pairs = 0

        elif mode == "atomic-pairs":
            shared = bestow_iterator(holder)
            tally_lock = threading.Lock()
            tally = {"torn": 0, "pairs": 0}

            def reader_pairs(out: list[int]) -> None:
                total = 0
                while True:
                    with atomic_batch(shared):
                        first = shared.perform(_draw)
                        time.sleep(0)  # a client may yield between its operations
                        second = shared.perform(_draw)
                    drawn = (first.result(), second.result())
                    pair = [v for v in drawn if v is not None]
                    if not pair:
                        break
                    total += sum(pair)  # type: ignore[arg-type]
                    if len(pair) == 2:
                        with tally_lock:
                            tally["pairs"] += 1
                            if pair[1] != pair[0] + 1:  # type: ignore[operator]
                                tally["torn"] += 1
                out.append(total)

            sums = _run_clients(clients, reader_pairs)
            torn, pairs = tally["torn"], tally["pairs"]

        else:
            raise ValueError(f"unknown mode {mode!r}")

        hops = holder.perform(lambda a: a.checked_list().hops).result()
    finally:
        holder.stop()
        holder.join(timeout=10)

    return ListIterStats(
        mode=mode,
        clients=clients,
        elements=elements,
        hops=hops,
        client_sums=sums,
        expected_sum=elements * (elements - 1) // 2,
        torn_pairs=torn,
        pairs=pairs,
    )


def _run_clients(n: int, body) -> list[int]:
    out: list[int] = []
    threads = [
        threading.Thread(target=body, args=(out,), name=f"client-{i}")
        for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out

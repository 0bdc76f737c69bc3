"""The machine's speed, measured in the same run as the workload.

The reference host is shared, and its speed flips between two states for
seconds at a time: one fixed piece of interpreter work takes about 11 ms in
some seconds and 19 ms in others.  Raw times of the same op then spread by
13 % to 22 % of their median across runs, and a longer run does not help.
So the run also times a fixed reference burst of plain interpreter work all
through the run, and scales its times by ``REFERENCE_S / t``, where ``t`` is
the trimmed mean of the burst's times.  A scaled time reads as the time on
a host where the burst takes ``REFERENCE_S``.  Raw times are printed next to
the scaled ones.  The program never runs inside the burst, so a change to
the program cannot move the scale.
"""

from __future__ import annotations

import threading
from time import perf_counter

from common import trimmed_mean

REFERENCE_S = 0.002  # the reference burst's time on the reference machine
EVERY_S = 0.04  # time one burst this often


class _Node:
    __slots__ = ("kind", "kids", "tag")

    def __init__(self, kind: str, kids: tuple, tag: int) -> None:
        self.kind = kind
        self.kids = kids
        self.tag = tag


def _tree(depth: int, tag: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), tag)
    return _Node("app", (_tree(depth - 1, 2 * tag), _tree(depth - 1, 2 * tag + 1)), tag)


def _leaves(node: _Node, into: set) -> int:
    if node.kind == "leaf":
        into.add(node.tag % 997)
        return 1
    return 1 + sum(_leaves(kid, into) for kid in node.kids)


def reference() -> int:
    """Fixed interpreter work of the kinds the program does: building and
    walking a tree of small objects recursively, sets and frozensets, and a
    dict keyed by tuples that grows tuples."""
    table: dict[tuple, tuple] = {}
    for r in range(2):
        seen: set[int] = set()
        _leaves(_tree(8, r), seen)
        frozen = frozenset(seen)
        for i in range(800):
            key = (i % 389, frozen if i % 50 == 0 else i, ("x", i % 7))
            table[key] = table.get(key, ()) + (i,)
    return len(table)


class Speed:
    """Reference timings taken through a run; their trimmed mean sets the
    scale.

    With ``background`` a daemon thread times one reference burst every
    ``EVERY_S`` for the whole run, so the samples spread over the ops in
    proportion to their time, however long one op is.  Without it (for
    workloads that time thread hand-offs, which a sampler thread would
    delay) the run calls :meth:`between_ops` after each op.
    """

    def __init__(self, background: bool) -> None:
        self.took: list[float] = []
        self.at = 0.0
        self._stop = threading.Event()
        self._thread = (
            threading.Thread(target=self._sample_until_stopped, name="speed", daemon=True)
            if background else None
        )

    def sample(self) -> None:
        t0 = perf_counter()
        reference()
        self.at = perf_counter()
        self.took.append(self.at - t0)

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(EVERY_S):
            self.sample()

    def start(self) -> None:
        self.sample()
        if self._thread is not None:
            self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.sample()

    def between_ops(self) -> None:
        if self._thread is None and perf_counter() - self.at >= EVERY_S:
            self.sample()

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """The scale from samples ``first`` to ``last`` (default: all)."""
        return REFERENCE_S / trimmed_mean(self.took[first:last])

    def reference_ms(self) -> float:
        return trimmed_mean(self.took) * 1e3

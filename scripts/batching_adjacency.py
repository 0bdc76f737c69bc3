#!/usr/bin/env python3
"""Measure, across every interleaving, what atomic batching buys.

Two clients talk to an object bestowed by the root actor.  Client 1 issues
two mutate operations; client 2 issues one allocation.  In the unbatched
program client 1 sends two separate messages, so client 2's operation can
land between them; in the batched program client 1's ``atomic`` block
ships both operations as one message.

On each program's state graph, ``explore.batch_adjacency`` counts the
maximal scheduler paths that keep client 1's operations adjacent in the
owner's event order, and prints a schedule that splits them, if any.  It
exits 1 when a batched path splits them or the batched program has no paths.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bestow.explore import BatchAdjacency, batch_adjacency, explore
from bestow.semantics import initial_heap
from bestow.surface import compile_program
from bestow.typecheck import type_of

UNBATCHED = """
val obj = new p;
val b = bestow obj;
val c1 = new c;
val c2 = new c;
c1 ! \\x:p. { b ! \\y:p. y.mutate(); b ! \\y:p. y.mutate() };
c2 ! \\x:p. b ! \\y:p. new p
"""

BATCHED = """
val obj = new p;
val b = bestow obj;
val c1 = new c;
val c2 = new c;
c1 ! \\x:p. atomic y <- b { y ! \\z:p. z.mutate(); y ! \\z:p. z.mutate() };
c2 ! \\x:p. b ! \\y:p. new p
"""


def measure(src: str) -> tuple[int, BatchAdjacency]:
    """(states, adjacency of the root's mutates) for one program."""
    core = compile_program(src)
    type_of(core)
    space = explore(initial_heap(core), canonical=False)
    if space.truncated:
        raise RuntimeError("exploration truncated; raise the bounds")
    return len(space.states), batch_adjacency(space, 0, lambda ev: ev.rule == "mutate")


def main() -> int:
    for name, src in [("unbatched", UNBATCHED), ("batched", BATCHED)]:
        t0 = time.perf_counter()
        states, result = measure(src)
        total = result.adjacent + result.violated
        dt = time.perf_counter() - t0
        share = f"{100 * result.adjacent / total:.1f}%" if total else "n/a"
        print(
            f"{name:9s}: {states} states, {total} maximal paths "
            f"({share} adjacent) [{dt:.2f}s] — {result}"
        )
        if name == "batched" and (result.violated or not total):
            print("FAIL: the batched program does not keep its operations adjacent")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measure, across every interleaving, what atomic batching buys.

Two clients talk to an object bestowed by the root actor.  Client 1 issues
two mutate operations; client 2 issues one allocation.  In the unbatched
program client 1 sends two separate messages, so client 2's operation can
land between them; in the batched program client 1's ``atomic`` block
ships both operations as one message.

The script enumerates every maximal scheduler path of both programs and
reports how many keep client 1's operations adjacent in the owner's
event order.  It exits 1 when a batched path breaks adjacency or the
batched program has no paths at all.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bestow.explore import explore, maximal_paths
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


def adjacency_stats(src: str) -> tuple[int, int, int]:
    """(states, adjacent paths, violated paths) for one program."""
    core = compile_program(src)
    type_of(core)
    space = explore(initial_heap(core), canonical=False)
    if space.truncated:
        raise RuntimeError("exploration truncated; raise the bounds")
    adjacent = violated = 0
    for path in maximal_paths(space):
        owner_ops = [
            e.event.rule
            for e in path
            if e.event.actor == 0 and e.event.rule in ("mutate", "new-passive")
        ]
        first = owner_ops.index("mutate")
        last = len(owner_ops) - 1 - owner_ops[::-1].index("mutate")
        if all(op == "mutate" for op in owner_ops[first : last + 1]):
            adjacent += 1
        else:
            violated += 1
    return len(space.states), adjacent, violated


def main() -> int:
    """Exit 1 unless the batched program keeps client 1's operations
    adjacent on every one of at least one maximal path."""
    status = 0
    for name, src in [("unbatched", UNBATCHED), ("batched", BATCHED)]:
        t0 = time.perf_counter()
        states, adjacent, violated = adjacency_stats(src)
        total = adjacent + violated
        dt = time.perf_counter() - t0
        share = f"{100 * adjacent / total:.1f}%" if total else "n/a"
        print(
            f"{name:9s}: {states} states, {total} maximal paths — "
            f"{adjacent} adjacent, {violated} violated "
            f"({share} adjacent) [{dt:.1f}s]"
        )
        if name == "batched" and (violated or not total):
            print("FAIL: the batched program does not keep its operations adjacent")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Well-formedness of running heaps.

A heap is well formed when the actors' local heaps partition the allocated
locations and every actor is internally consistent: it owns its own ``this``
location and every bare location it mentions, every actor id it mentions is
allocated, every bestowed reference points into its owner's local heap, its
current expression is typable, and every queued message is a deliverable
function over the passive type.

Queued messages are checked as plain functions (not with the stricter rule
for send expressions): a forwarded message for a bestowed reference embeds
the owner's bare location, which is fine once it sits in the owner's queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .syntax import (
    Actor,
    Heap,
    Lambda,
    Passive,
    Val,
    actor_ids_in,
    bestowed_in,
    locs_in,
    render_expr,
)
from .typecheck import TypeCheckError, TypeEnv, check, check_value


@dataclass(frozen=True)
class WfViolation:
    """``rule`` names the clause that failed; ``subject`` locates it."""

    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.detail}"


@dataclass(frozen=True)
class WfReport:
    violations: tuple[WfViolation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "well-formed"
        return "\n".join(str(v) for v in self.violations)


def wf_queue(heap: Heap, ident: int, actor: Actor) -> list[WfViolation]:
    """Every queued message must be a typable function over passives."""
    out: list[WfViolation] = []
    for pos, msg in enumerate(actor.queue):
        subject = f"actor {ident}, queue[{pos}]"
        if not isinstance(msg, Lambda) or not isinstance(msg.param_type, Passive):
            out.append(
                WfViolation(
                    "wf-queue-message",
                    subject,
                    f"message {render_expr(msg)} is not a function over p",
                )
            )
            continue
        try:
            check_value(TypeEnv(), msg)
        except TypeCheckError as err:
            out.append(
                WfViolation(
                    "wf-queue-message",
                    subject,
                    f"message does not typecheck: {err.message}",
                )
            )
    return out


def wf_actor(heap: Heap, ident: int) -> list[WfViolation]:
    """All per-actor clauses; assumes ``ident`` is in the heap."""
    a = heap.actors[ident]
    subject = f"actor {ident}"
    out: list[WfViolation] = []

    if a.this_loc not in a.local_heap:
        out.append(
            WfViolation(
                "wf-actor",
                subject,
                f"its own location {a.this_loc} is not in its local heap",
            )
        )

    # Every mentioned bare location (current expression and queued messages)
    # must be locally owned, every actor id must be allocated, and every
    # bestowed reference must resolve into its owner's local heap.
    mentioned = [("current expression", a.current)]
    mentioned += [(f"queue[{i}]", Val(m)) for i, m in enumerate(a.queue)]
    for where, e in mentioned:
        for loc in sorted(locs_in(e)):
            if loc not in a.local_heap:
                out.append(
                    WfViolation(
                        "wf-actor",
                        subject,
                        f"{where} mentions location {loc} outside its local heap",
                    )
                )
        for other in sorted(actor_ids_in(e)):
            if other not in heap.actors:
                out.append(
                    WfViolation(
                        "wf-actor",
                        subject,
                        f"{where} mentions unallocated actor id {other}",
                    )
                )
        for loc, owner in sorted(bestowed_in(e)):
            if owner not in heap.actors:
                out.append(
                    WfViolation(
                        "wf-actor",
                        subject,
                        f"{where} holds a reference bestowed by "
                        f"unallocated actor {owner}",
                    )
                )
            elif loc not in heap.actors[owner].local_heap:
                out.append(
                    WfViolation(
                        "wf-actor",
                        subject,
                        f"{where} holds a bestowed reference to location {loc}, "
                        f"which actor {owner} does not own",
                    )
                )

    try:
        check(TypeEnv(), a.current)
    except TypeCheckError as err:
        out.append(
            WfViolation(
                "wf-actor",
                subject,
                f"current expression does not typecheck: {err.message}",
            )
        )

    out.extend(wf_queue(heap, ident, a))
    return out


def wf_heap(heap: Heap) -> WfReport:
    """Check the whole system; returns a report listing all violations."""
    out: list[WfViolation] = []
    for a, b in combinations(sorted(heap.actors), 2):
        shared = heap.actors[a].local_heap & heap.actors[b].local_heap
        if shared:
            out.append(
                WfViolation(
                    "wf-heap",
                    f"actors {a} and {b}",
                    f"local heaps overlap on location(s) {sorted(shared)}",
                )
            )
    for ident in sorted(heap.actors):
        out.extend(wf_actor(heap, ident))
    return WfReport(tuple(out))


def assert_wf(heap: Heap) -> None:
    report = wf_heap(heap)
    if not report.ok:
        raise ValueError(f"heap is not well-formed:\n{report}")

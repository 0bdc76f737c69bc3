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
from functools import cached_property
from itertools import combinations
from typing import Callable, TypeAlias

from .syntax import (
    Actor,
    ActorId,
    BestowedLoc,
    Expr,
    Heap,
    Lambda,
    Loc,
    Passive,
    Value,
    render_expr,
    render_template,
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


class TermFacts:
    """What one running term mentions, worked out once.

    ``slots`` lists the numbers of its runtime names in preorder, location
    ``l`` as ``l`` and actor id ``i`` as ``~i``, so one map renames both;
    ``template`` renders it renamed (see ``render_template``), ``text`` as
    it is.  ``locs``, ``ids`` and ``bestowed`` list, sorted, its bare
    locations, actor ids and bestowed ``(loc, owner)`` pairs; ``error``
    says why it does not typecheck in the empty environment, or is None.
    """

    def __init__(self, term: Expr | Value) -> None:
        self.term = term
        self.template, names = render_template(term)
        self.slots = tuple(k for n in names for k in _codes(n))
        self.text = self.template % tuple(k if k >= 0 else ~k for k in self.slots)
        self.locs = tuple(sorted({n.loc for n in names if type(n) is Loc}))
        self.ids = tuple(sorted({n.ident for n in names if type(n) is ActorId}))
        self.bestowed = tuple(
            sorted({(n.loc, n.owner) for n in names if type(n) is BestowedLoc})
        )

    @cached_property
    def error(self) -> str | None:
        try:
            (check_value if isinstance(self.term, Value) else check)(TypeEnv(), self.term)
        except TypeCheckError as err:
            return err.message
        return None


def _codes(n: Value) -> tuple[int, ...]:
    t = type(n)
    if t is Loc:
        return (n.loc,)
    return (~n.ident,) if t is ActorId else (n.loc, ~n.owner)


# A string, so that no typing cache keeps this module's classes alive.
Facts: TypeAlias = "Callable[[Expr | Value], TermFacts]"


def wf_queue(
    heap: Heap, ident: int, actor: Actor, facts: Facts = TermFacts
) -> list[WfViolation]:
    """Every queued message must be a typable function over passives."""
    out: list[WfViolation] = []
    for pos, msg in enumerate(actor.queue):
        if not isinstance(msg, Lambda) or not isinstance(msg.param_type, Passive):
            detail = f"message {render_expr(msg)} is not a function over p"
        elif facts(msg).error is not None:
            detail = f"message does not typecheck: {facts(msg).error}"
        else:
            continue
        out.append(WfViolation("wf-queue-message", f"actor {ident}, queue[{pos}]", detail))
    return out


def wf_actor(heap: Heap, ident: int, facts: Facts = TermFacts) -> list[WfViolation]:
    """All per-actor clauses; assumes ``ident`` is in the heap."""
    a = heap.actors[ident]
    subject = f"actor {ident}"
    out: list[WfViolation] = []

    def bad(detail: str) -> None:
        out.append(WfViolation("wf-actor", subject, detail))

    if a.this_loc not in a.local_heap:
        bad(f"its own location {a.this_loc} is not in its local heap")

    # Every mentioned bare location (current expression and queued messages)
    # must be locally owned, every actor id must be allocated, and every
    # bestowed reference must resolve into its owner's local heap.
    mentioned = [("current expression", a.current)]
    mentioned += [(f"queue[{i}]", m) for i, m in enumerate(a.queue)]
    for where, e in mentioned:
        f = facts(e)
        for loc in f.locs:
            if loc not in a.local_heap:
                bad(f"{where} mentions location {loc} outside its local heap")
        for other in f.ids:
            if other not in heap.actors:
                bad(f"{where} mentions unallocated actor id {other}")
        for loc, owner in f.bestowed:
            if owner not in heap.actors:
                bad(f"{where} holds a reference bestowed by unallocated actor {owner}")
            elif loc not in heap.actors[owner].local_heap:
                bad(
                    f"{where} holds a bestowed reference to location {loc}, "
                    f"which actor {owner} does not own"
                )

    error = facts(a.current).error
    if error is not None:
        bad(f"current expression does not typecheck: {error}")

    out.extend(wf_queue(heap, ident, a, facts))
    return out


def wf_heap(heap: Heap, facts: Facts = TermFacts) -> WfReport:
    """Check the whole system; returns a report listing all violations.
    Heaps checked with one fact table pay once for each term they share."""
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
        out.extend(wf_actor(heap, ident, facts))
    return WfReport(tuple(out))


def assert_wf(heap: Heap) -> None:
    report = wf_heap(heap)
    if not report.ok:
        raise ValueError(f"heap is not well-formed:\n{report}")

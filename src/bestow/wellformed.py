"""Well-formedness of running heaps, and the per-term and per-actor facts
that keys and checks share.

A heap is well formed when the actors' local heaps partition the allocated
locations and every actor is internally consistent: it owns its own ``this``
location and every bare location it mentions, every actor id it mentions is
allocated, every bestowed reference points into its owner's local heap, its
current expression is typable, and every queued message is a deliverable
function over the passive type.

Each term and each actor keeps its facts on itself (``facts``): a record
is worked out once per object and lives as long as the object does.  An
actor's own clauses, those that read only that actor, are judged once per
actor object too; the two that read other actors (allocated ids, bestowed
owners) and disjointness are judged by ``wf_heap`` against each heap.

Queued messages are checked as plain functions (not with the stricter rule
for send expressions): a forwarded message for a bestowed reference embeds
the owner's bare location, which is fine once it sits in the owner's queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

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
    memo,
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


def facts(x: Actor | Expr | Value) -> ActorFacts | TermFacts:
    """The record of an actor state (``ActorFacts``) or of a term
    (``TermFacts``), worked out once per object."""
    return memo(x, "_facts", ActorFacts if type(x) is Actor else TermFacts)


def _type_error(term: Expr | Value) -> str | None:
    """Why ``term`` does not typecheck in the empty environment, or None."""
    try:
        (check_value if isinstance(term, Value) else check)(TypeEnv(), term)
    except TypeCheckError as err:
        return err.message
    return None


class TermFacts:
    """What one running term mentions, worked out once.

    ``slots`` lists the numbers of its runtime names in preorder, location
    ``l`` as ``l`` and actor id ``i`` as ``~i``, so one map renames both;
    ``template`` renders it renamed (see ``render_template``), ``text`` as
    it is.  ``locs``, ``ids`` and ``bestowed`` list, sorted, its bare
    locations, actor ids and bestowed ``(loc, owner)`` pairs.
    """

    def __init__(self, term: Expr | Value) -> None:
        self.template, names = render_template(term)
        self.slots = tuple(k for n in names for k in _codes(n))
        self.text = self.template % tuple(k if k >= 0 else ~k for k in self.slots)
        self.locs = tuple(sorted({n.loc for n in names if type(n) is Loc}))
        self.ids = tuple(sorted({n.ident for n in names if type(n) is ActorId}))
        self.bestowed = tuple(
            sorted({(n.loc, n.owner) for n in names if type(n) is BestowedLoc})
        )


def _codes(n: Value) -> tuple[int, ...]:
    t = type(n)
    if t is Loc:
        return (n.loc,)
    return (~n.ident,) if t is ActorId else (n.loc, ~n.owner)


class ActorFacts:
    """What one actor state contributes to keys and the checks.

    ``terms`` are the facts of its current expression and then of its
    queued messages; ``slots`` lists its own location and then those terms'
    slot codes, in the order the explorer's renaming scans them; ``lh`` is
    its local heap, sorted.  ``text`` is ``render()``, its key fragment as
    it is.  The rule its move fires is ``semantics.poised``'s, memoized on
    the actor itself.
    """

    def __init__(self, a: Actor) -> None:
        self.terms = (facts(a.current), *map(facts, a.queue))
        self.slots = (a.this_loc, *chain.from_iterable(f.slots for f in self.terms))
        self.lh = tuple(sorted(a.local_heap))
        self.text = self.render()

    def render(self, number: dict[int, int] | None = None) -> str:
        """The key fragment after the actor id, each slot code replaced by
        its value in ``number``; as it is (the cached term texts) if None."""
        if number is None:
            this, lh, texts = self.slots[0], self.lh, [f.text for f in self.terms]
        else:
            get = number.__getitem__
            this, lh = get(self.slots[0]), sorted(map(get, self.lh))
            texts = [f.template % tuple(map(get, f.slots)) for f in self.terms]
        current, *queue = texts
        return f"{this} (lh {' '.join(map(str, lh))}) (q {' '.join(queue)}) {current})"


def _own_clauses(a: Actor) -> tuple[tuple[str, str, str | tuple], ...]:
    """``a``'s wf clauses in report order, as ``(rule, suffix, detail)``;
    the subject is ``actor i`` and then ``suffix``.

    A clause that reads only ``a`` is judged here: ``detail`` is the
    violation's text.  One that reads other actors stays pending as
    ``(where, owner, loc)``, judged by ``wf_heap`` against each heap:
    ``owner`` must be allocated and, unless ``loc`` is None, own it.
    """
    terms = facts(a).terms
    out: list[tuple[str, str, str | tuple]] = []

    def bad(detail: str | tuple) -> None:
        out.append(("wf-actor", "", detail))

    if a.this_loc not in a.local_heap:
        bad(f"its own location {a.this_loc} is not in its local heap")
    wheres = ["current expression", *(f"queue[{i}]" for i in range(len(a.queue)))]
    for where, f in zip(wheres, terms):
        for loc in f.locs:
            if loc not in a.local_heap:
                bad(f"{where} mentions location {loc} outside its local heap")
        for other in f.ids:
            bad((where, other, None))
        for loc, owner in f.bestowed:
            bad((where, owner, loc))
    if (error := memo(a.current, "_error", _type_error)) is not None:
        bad(f"current expression does not typecheck: {error}")
    for pos, (msg, f) in enumerate(zip(a.queue, terms[1:])):
        if not isinstance(msg, Lambda) or not isinstance(msg.param_type, Passive):
            detail = f"message {f.text} is not a function over p"
        elif (error := memo(msg, "_error", _type_error)) is not None:
            detail = f"message does not typecheck: {error}"
        else:
            continue
        out.append(("wf-queue-message", f", queue[{pos}]", detail))
    return tuple(out)


def _judge(heap: Heap, where: str, owner: int, loc: int | None) -> str | None:
    """A pending clause's violation in ``heap`` (see ``_own_clauses``), or None."""
    if loc is None:
        if owner not in heap.actors:
            return f"{where} mentions unallocated actor id {owner}"
    elif owner not in heap.actors:
        return f"{where} holds a reference bestowed by unallocated actor {owner}"
    elif loc not in heap.actors[owner].local_heap:
        return (
            f"{where} holds a bestowed reference to location {loc}, "
            f"which actor {owner} does not own"
        )
    return None


def wf_heap(heap: Heap) -> WfReport:
    """Check the whole system; returns a report listing all violations.

    Local heaps must be disjoint, and each actor's clauses (see
    ``_own_clauses``, judged once per actor object) must hold in ``heap``.
    """
    out: list[WfViolation] = []
    for a, b in combinations(sorted(heap.actors), 2):
        shared = heap.actors[a].local_heap & heap.actors[b].local_heap
        if shared:
            detail = f"local heaps overlap on location(s) {sorted(shared)}"
            out.append(WfViolation("wf-heap", f"actors {a} and {b}", detail))
    for ident in sorted(heap.actors):
        for rule, suffix, detail in memo(heap.actors[ident], "_wf", _own_clauses):
            if type(detail) is tuple:
                detail = _judge(heap, *detail)
                if detail is None:
                    continue
            out.append(WfViolation(rule, f"actor {ident}{suffix}", detail))
    return WfReport(tuple(out))

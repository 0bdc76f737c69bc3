"""Well-formedness of running heaps, and the per-term and per-actor facts
that keys and checks share.

A heap is well formed when the actors' local heaps partition the allocated
locations and every actor is internally consistent: it owns its own ``this``
location and every bare location it mentions, every actor id it mentions is
allocated, every bestowed reference points into its owner's local heap, its
current expression is typable, and every queued message is a deliverable
function over the passive type.

Each term and each actor keeps its facts on itself, as the ``fact``
attributes declared here (``Expr.facts``, ``Expr.type_error``,
``Actor.facts`` and ``Actor.wf_clauses``): each is worked out once per
object and lives as long as the object does.  An actor's own clauses,
those that read only that actor, are its ``wf_clauses``; the two that read
other actors (allocated ids, bestowed owners) are judged by ``wf_heap``
against each heap, in one walk over its actors' clauses.  Disjointness
takes one size test on the union of the local heaps; only a heap that
fails it has its overlapping pairs listed.

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
    fact,
    render_template,
)
from .typecheck import TypeCheckError, TypeEnv, check


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


def _type_error(term: Expr) -> str | None:
    """``Expr.type_error``: why ``term`` does not typecheck in the empty
    environment, or None."""
    try:
        check(TypeEnv(), term)
    except TypeCheckError as err:
        return err.message
    return None


Expr.type_error = fact("type_error", _type_error)


class TermFacts:
    """What one running term mentions (``Expr.facts``), worked out once.

    ``slots`` lists the numbers of its runtime names in preorder, location
    ``l`` as ``l`` and actor id ``i`` as ``~i``, so one map renames both;
    ``template`` renders it renamed (see ``render_template``), ``text`` as
    it is.  ``locs``, ``ids`` and ``bestowed`` list, sorted, its bare
    locations, actor ids and bestowed ``(loc, owner)`` pairs.
    """

    def __init__(self, term: Expr) -> None:
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


Expr.facts = fact("facts", TermFacts)


class ActorFacts:
    """What one actor state contributes to keys and the checks.

    ``terms`` are the facts of its current expression and then of its
    queued messages; ``slots`` lists its own location and then those terms'
    slot codes, each once, in the order the explorer's renaming scans them
    (a repeat changes no numbering); ``lh`` is its local heap, sorted;
    ``numbering`` pairs the two, all the explorer's renaming reads.
    ``text`` is ``render()``, its key fragment as it is.  The rule its move
    fires is ``Actor.poised``, kept on the actor itself.
    """

    def __init__(self, a: Actor) -> None:
        self.terms = (a.current.facts, *[m.facts for m in a.queue])
        self.slots = tuple(
            dict.fromkeys((a.this_loc, *chain.from_iterable(f.slots for f in self.terms)))
        )
        self.lh = tuple(sorted(a.local_heap))
        self.numbering = self.slots, self.lh
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


Actor.facts = fact("facts", ActorFacts)


def _own_clauses(a: Actor) -> tuple[tuple[str, str, str | tuple], ...]:
    """``Actor.wf_clauses``: ``a``'s wf clauses in report order, as ``(rule, suffix, detail)``;
    the subject is ``actor i`` and then ``suffix``.

    A clause that reads only ``a`` is judged here: ``detail`` is the
    violation's text.  One that reads other actors stays pending as
    ``(where, owner, loc)``, judged by ``wf_heap`` against each heap:
    ``owner`` must be allocated and, unless ``loc`` is None, own it.
    """
    terms = a.facts.terms
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
    if (error := a.current.type_error) is not None:
        bad(f"current expression does not typecheck: {error}")
    for pos, (msg, f) in enumerate(zip(a.queue, terms[1:])):
        if not isinstance(msg, Lambda) or not isinstance(msg.param_type, Passive):
            detail = f"message {f.text} is not a function over p"
        elif (error := msg.type_error) is not None:
            detail = f"message does not typecheck: {error}"
        else:
            continue
        out.append(("wf-queue-message", f", queue[{pos}]", detail))
    return tuple(out)


Actor.wf_clauses = fact("wf_clauses", _own_clauses)


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


_WELL_FORMED = WfReport()


def wf_heap(heap: Heap) -> WfReport:
    """Check the whole system; returns a report listing all violations.

    Local heaps must be disjoint, and each actor's clauses (see
    ``_own_clauses``, judged once per actor object and read as
    ``Actor.wf_clauses``) must hold in ``heap``.
    The report lists each overlapping pair and then each actor's violations
    in clause order; the pairs are listed only when the union of the local
    heaps is smaller than their sizes' sum.  A well-formed heap gets the
    shared ``_WELL_FORMED``.
    """
    actors = heap.actors
    out: list[WfViolation] = []
    lhs = [a.local_heap for a in actors.values()]
    if len(frozenset().union(*lhs)) != sum(map(len, lhs)):
        for a, b in combinations(sorted(actors), 2):
            shared = actors[a].local_heap & actors[b].local_heap
            if shared:
                detail = f"local heaps overlap on location(s) {sorted(shared)}"
                out.append(WfViolation("wf-heap", f"actors {a} and {b}", detail))
    for ident in sorted(actors):
        for rule, suffix, detail in actors[ident].wf_clauses:
            if type(detail) is tuple:
                detail = _judge(heap, *detail)
                if detail is None:
                    continue
            out.append(WfViolation(rule, f"actor {ident}{suffix}", detail))
    return WfReport(tuple(out)) if out else _WELL_FORMED

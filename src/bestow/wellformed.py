"""Well-formedness of running heaps, and the per-term and per-actor facts
that keys, choices and checks share.

A heap is well formed when the actors' local heaps partition the allocated
locations and every actor is internally consistent: it owns its own ``this``
location and every bare location it mentions, every actor id it mentions is
allocated, every bestowed reference points into its owner's local heap, its
current expression is typable, and every queued message is a deliverable
function over the passive type.

A ``FactTable`` keeps one record per distinct term and per distinct actor
state.  An actor's record judges the clauses that read only that actor once
(``ActorFacts.wf``); the two that read other actors (allocated ids, bestowed
owners) and disjointness are judged by ``wf_heap`` against each heap.

Queued messages are checked as plain functions (not with the stricter rule
for send expressions): a forwarded message for a bestowed reference embeds
the owner's bare location, which is fine once it sits in the owner's queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    render_template,
)
from .semantics import SchedulerChoice, poised
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


class _cached(cached_property):
    """``cached_property`` minus the lock Python 3.11 takes on first reads."""

    def __get__(self, obj: object, cls: type | None = None) -> object:
        return obj.__dict__.setdefault(self.attrname, self.func(obj))


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

    @_cached
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


class ActorFacts:
    """What one actor state contributes to keys, choices and the checks.

    ``terms`` are the facts of its current expression and then of its
    queued messages; ``slots`` lists its own location and then those terms'
    slot codes, in the order the explorer's renaming scans them; ``lh`` is
    its local heap, sorted.  ``text`` is its key fragment after the actor
    id, as it is (not renamed).  ``kind`` is the choice it enables, if any,
    and ``touches`` the location that step would touch (see ``poised``).
    """

    def __init__(self, a: Actor, facts: FactTable) -> None:
        self.actor = a
        self.terms = (facts(a.current), *map(facts, a.queue))
        self.slots = (a.this_loc, *chain.from_iterable(f.slots for f in self.terms))
        self.lh = tuple(sorted(a.local_heap))
        current, *queue = self.terms
        lh = " ".join(map(str, self.lh))
        q = " ".join(f.text for f in queue)
        self.text = f"{a.this_loc} (lh {lh}) (q {q}) {current.text})"
        self.kind, self.touches = poised(a)

    @_cached
    def wf(self) -> tuple[tuple[str, str, str | tuple], ...]:
        """Its wf clauses in report order, as ``(rule, suffix, detail)``;
        the subject is ``actor i`` and then ``suffix``.

        A clause that reads only this actor is judged here: ``detail`` is
        the violation's text.  One that reads other actors stays pending as
        ``(where, owner, loc)``, judged by ``wf_heap`` against each heap:
        ``owner`` must be allocated and, unless ``loc`` is None, own it.
        """
        a = self.actor
        out: list[tuple[str, str, str | tuple]] = []

        def bad(detail: str | tuple) -> None:
            out.append(("wf-actor", "", detail))

        if a.this_loc not in a.local_heap:
            bad(f"its own location {a.this_loc} is not in its local heap")
        wheres = ["current expression", *(f"queue[{i}]" for i in range(len(a.queue)))]
        for where, f in zip(wheres, self.terms):
            for loc in f.locs:
                if loc not in a.local_heap:
                    bad(f"{where} mentions location {loc} outside its local heap")
            for other in f.ids:
                bad((where, other, None))
            for loc, owner in f.bestowed:
                bad((where, owner, loc))
        if self.terms[0].error is not None:
            bad(f"current expression does not typecheck: {self.terms[0].error}")
        for pos, (msg, f) in enumerate(zip(a.queue, self.terms[1:])):
            if not isinstance(msg, Lambda) or not isinstance(msg.param_type, Passive):
                detail = f"message {f.text} is not a function over p"
            elif f.error is not None:
                detail = f"message does not typecheck: {f.error}"
            else:
                continue
            out.append(("wf-queue-message", f", queue[{pos}]", detail))
        return tuple(out)


class FactTable:
    """Each distinct term's and actor state's facts, worked out once; call
    it on a term, or ``actor`` on an actor.

    Keyed by object identity; each entry holds its object, so no id is
    reused while the entry lives.  A successor shares most actors and terms
    with its parent, so keys, choices and checks pay only for what a step
    changed.  ``intern`` gives each actor state one object (its first), so
    equal actor states made apart share one record too.
    """

    def __init__(self) -> None:
        self.terms: dict[int, TermFacts] = {}
        self.actors: dict[int, ActorFacts] = {}
        self.firsts: dict[str, Actor] = {}

    def __call__(self, term: Expr | Value) -> TermFacts:
        f = self.terms.get(id(term))
        if f is None:
            f = self.terms[id(term)] = TermFacts(term)
        return f

    def actor(self, a: Actor) -> ActorFacts:
        f = self.actors.get(id(a))
        if f is None:
            f = self.actors[id(a)] = ActorFacts(a, self)
        return f

    def intern(self, a: Actor) -> Actor:
        """The first actor interned with ``a``'s state (its record's ``text``);
        only that one keeps a record."""
        f = self.actors.get(id(a)) or ActorFacts(a, self)
        first = self.firsts.setdefault(f.text, a)
        if first is a:
            self.actors[id(a)] = f
        return first

    def choices(self, heap: Heap) -> list[SchedulerChoice]:
        """``enabled_choices(heap)``, read from the actors' records."""
        kinds = ((i, self.actor(heap.actors[i]).kind) for i in sorted(heap.actors))
        return [SchedulerChoice(i, kind) for i, kind in kinds if kind is not None]


def _judge(heap: Heap, where: str, owner: int, loc: int | None) -> str | None:
    """A pending clause's violation in ``heap`` (see ``ActorFacts.wf``), or None."""
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


def wf_heap(heap: Heap, facts: FactTable | None = None) -> WfReport:
    """Check the whole system; returns a report listing all violations.

    Local heaps must be disjoint, and each actor's record (see
    ``ActorFacts.wf``) must hold in ``heap``.  Heaps checked with one fact
    table judge each actor state's own clauses once.
    """
    facts = FactTable() if facts is None else facts
    out: list[WfViolation] = []
    for a, b in combinations(sorted(heap.actors), 2):
        shared = heap.actors[a].local_heap & heap.actors[b].local_heap
        if shared:
            detail = f"local heaps overlap on location(s) {sorted(shared)}"
            out.append(WfViolation("wf-heap", f"actors {a} and {b}", detail))
    for ident in sorted(heap.actors):
        for rule, suffix, detail in facts.actor(heap.actors[ident]).wf:
            if type(detail) is tuple:
                detail = _judge(heap, *detail)
                if detail is None:
                    continue
            out.append(WfViolation(rule, f"actor {ident}{suffix}", detail))
    return WfReport(tuple(out))


def assert_wf(heap: Heap) -> None:
    report = wf_heap(heap)
    if not report.ok:
        raise ValueError(f"heap is not well-formed:\n{report}")

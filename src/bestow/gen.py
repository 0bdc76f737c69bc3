"""Random generation of well-typed source programs.

Generation is goal-directed: pick a goal type, then choose among the
productions that can inhabit it within the remaining size budget.  Message
bodies are generated under the same restricted environment the typechecker
uses, so every emitted program typechecks by construction (a property the
test suite re-verifies against the actual checker).

Only source forms are produced — no locations, actor ids or bestowed
references — so the output is suitable as the initial expression of a root
actor.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

from .syntax import (
    ActorType,
    App,
    Arrow,
    Bestow,
    Bestowed,
    Expr,
    Lambda,
    Mutate,
    NewActor,
    NewPassive,
    Passive,
    Send,
    Type,
    UnitType,
    UnitVal,
    Var,
)
from .typecheck import TypeEnv

DEFAULT_SIZE_BUDGET = 12
T = TypeVar("T")


# Each production's weight, where it fits the goal and the budget.
WEIGHTS = {
    "var": 4,
    "apply": 2,
    "send": 4,
    "mutate": 3,
    "bestow": 2,
    "new-passive": 3,
    "new-actor": 3,
    "unit": 2,
    "lambda": 3,
}
# Argument types considered when inventing an application.
ARG_TYPES: tuple[Type, ...] = (Passive(), ActorType(), UnitType(), Bestowed())
# Goal types for whole programs, with weights.
PROGRAM_GOALS: tuple[tuple[Type, int], ...] = (
    (UnitType(), 5),
    (Passive(), 2),
    (ActorType(), 2),
    (Bestowed(), 1),
)


def min_size(t: Type) -> int:
    """Smallest closed expression inhabiting ``t`` (in AST nodes)."""
    match t:
        case UnitType() | Passive() | ActorType():
            return 1
        case Bestowed():
            return 2  # bestow (new p)
        case Arrow(_, cod):
            return 1 + min_size(cod)
    raise TypeError(f"not a type: {t!r}")


def _minimal(env: TypeEnv, goal: Type, counter: list[int]) -> Expr:
    """The canonical smallest inhabitant of ``goal``."""
    for name, t in reversed(env.bindings):
        if t == goal:
            return Var(name)
    match goal:
        case UnitType():
            return UnitVal()
        case Passive():
            return NewPassive()
        case ActorType():
            return NewActor()
        case Bestowed():
            return Bestow(NewPassive())
        case Arrow(dom, cod):
            x = _fresh(counter)
            return Lambda(x, dom, _minimal(env.extend(x, dom), cod, counter))
    raise TypeError(f"not a type: {goal!r}")


def _fresh(counter: list[int]) -> str:
    counter[0] += 1
    return f"x{counter[0]}"


def _gen(
    rng: random.Random, env: TypeEnv, goal: Type, budget: int, counter: list[int]
) -> Expr:
    if budget <= min_size(goal):
        return _minimal(env, goal, counter)

    # Every production that fits.
    options: list[str] = []

    candidates = [name for name, t in env.bindings if t == goal]
    if candidates:
        options.append("var")

    match goal:
        case UnitType():
            options += ["unit", "mutate"]
            if budget >= 4:
                options.append("send")
        case Passive():
            options.append("new-passive")
        case ActorType():
            options.append("new-actor")
        case Bestowed():
            options.append("bestow")
        case Arrow(_, _):
            options.append("lambda")

    arg_candidates = [
        t for t in ARG_TYPES if budget >= 2 + min_size(goal) + min_size(t) + 1
    ]
    if arg_candidates:
        options.append("apply")

    match production := _draw(rng, [(p, WEIGHTS[p]) for p in options]):
        case "var":
            return Var(rng.choice(candidates))
        case "unit":
            return UnitVal()
        case "new-passive":
            return NewPassive()
        case "new-actor":
            return NewActor()
        case "mutate":
            return Mutate(_gen(rng, env, Passive(), budget - 1, counter))
        case "bestow":
            return Bestow(_gen(rng, env, Passive(), budget - 1, counter))
        case "lambda":
            assert isinstance(goal, Arrow)
            x = _fresh(counter)
            body = _gen(rng, env.extend(x, goal.dom), goal.cod, budget - 1, counter)
            return Lambda(x, goal.dom, body)
        case "send":
            return _gen_send(rng, env, budget, counter)
        case "apply":
            arg_t = rng.choice(arg_candidates)
            # Split what remains after the app node between function and
            # argument.
            rest = budget - 1
            fun_min = 1 + min_size(goal)
            fun_budget = rng.randint(fun_min, rest - min_size(arg_t))
            arg_budget = rest - fun_budget
            fun = _gen(rng, env, Arrow(arg_t, goal), fun_budget, counter)
            arg = _gen(rng, env, arg_t, arg_budget, counter)
            return App(fun, arg)
    raise AssertionError(f"unknown production {production!r}")


def _gen_send(
    rng: random.Random, env: TypeEnv, budget: int, counter: list[int]
) -> Expr:
    """A send: active target, message over p typed on the receiver."""
    target_t: Type = ActorType() if rng.random() < 0.7 else Bestowed()
    rest = budget - 2  # send node + message lambda node
    target_budget = rng.randint(min_size(target_t), max(min_size(target_t), rest - 1))
    body_budget = rest - target_budget
    target = _gen(rng, env, target_t, target_budget, counter)
    x = _fresh(counter)
    body_goal: Type = UnitType() if rng.random() < 0.7 else Passive()
    body_env = env.restrict_active().extend(x, Passive())
    body = _gen(rng, body_env, body_goal, max(body_budget, 1), counter)
    return Send(target, Lambda(x, Passive(), body))


def _draw(rng: random.Random, weighted: Sequence[tuple[T, int]]) -> T:
    """One of the items in ``weighted``, drawn by weight."""
    pick = rng.randrange(sum(w for _, w in weighted))
    for item, w in weighted:
        if pick < w:
            return item
        pick -= w
    raise AssertionError("the draw exceeds the total weight")


def generate_well_typed(
    seed: int, size_budget: int = DEFAULT_SIZE_BUDGET
) -> tuple[Expr, Type]:
    """A closed well-typed program and its type, from a seed; ``ValueError``
    if no program goal fits in ``size_budget``."""
    if all(min_size(goal) > size_budget for goal, _ in PROGRAM_GOALS):
        raise ValueError(f"no program goal fits in size budget {size_budget}")
    rng = random.Random(seed)
    goal = _draw(rng, PROGRAM_GOALS)
    while min_size(goal) > size_budget:
        goal = _draw(rng, PROGRAM_GOALS)
    expr = _gen(rng, TypeEnv(), goal, size_budget, [0])
    return expr, goal


__all__ = [
    "DEFAULT_SIZE_BUDGET",
    "generate_well_typed",
    "min_size",
]

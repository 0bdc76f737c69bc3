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
from dataclasses import dataclass

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
    Val,
    Var,
)
from .typecheck import TypeEnv

DEFAULT_SIZE_BUDGET = 12


@dataclass(frozen=True)
class GenConfig:
    """Production weights and limits for the generator."""

    var_weight: int = 4
    app_weight: int = 2
    send_weight: int = 4
    mutate_weight: int = 3
    bestow_weight: int = 2
    new_weight: int = 3
    unit_weight: int = 2
    lambda_weight: int = 3
    # Argument types considered when inventing an application.
    arg_types: tuple[Type, ...] = (Passive(), ActorType(), UnitType(), Bestowed())
    # Goal types for whole programs, with weights.
    program_goals: tuple[tuple[Type, int], ...] = (
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
            return Val(UnitVal())
        case Passive():
            return NewPassive()
        case ActorType():
            return NewActor()
        case Bestowed():
            return Bestow(NewPassive())
        case Arrow(dom, cod):
            x = _fresh(counter)
            return Val(Lambda(x, dom, _minimal(env.extend(x, dom), cod, counter)))
    raise TypeError(f"not a type: {goal!r}")


def _fresh(counter: list[int]) -> str:
    counter[0] += 1
    return f"x{counter[0]}"


def _gen(
    rng: random.Random,
    env: TypeEnv,
    goal: Type,
    budget: int,
    cfg: GenConfig,
    counter: list[int],
) -> Expr:
    if budget <= min_size(goal):
        return _minimal(env, goal, counter)

    # Collect (weight, thunk) pairs for every production that fits.
    options: list[tuple[int, str]] = []

    candidates = [name for name, t in env.bindings if t == goal]
    if candidates:
        options.append((cfg.var_weight, "var"))

    match goal:
        case UnitType():
            options.append((cfg.unit_weight, "unit"))
            if budget >= 2:
                options.append((cfg.mutate_weight, "mutate"))
            if budget >= 4:
                options.append((cfg.send_weight, "send"))
        case Passive():
            options.append((cfg.new_weight, "new-passive"))
        case ActorType():
            options.append((cfg.new_weight, "new-actor"))
        case Bestowed():
            if budget >= 2:
                options.append((cfg.bestow_weight, "bestow"))
        case Arrow(_, _):
            options.append((cfg.lambda_weight, "lambda"))

    arg_candidates = [
        t for t in cfg.arg_types if budget >= 2 + min_size(goal) + min_size(t) + 1
    ]
    if arg_candidates:
        options.append((cfg.app_weight, "apply"))

    if not options:
        return _minimal(env, goal, counter)

    total = sum(w for w, _ in options)
    pick = rng.randrange(total)
    production = ""
    for w, p in options:
        if pick < w:
            production = p
            break
        pick -= w

    match production:
        case "var":
            return Var(rng.choice(candidates))
        case "unit":
            return Val(UnitVal())
        case "new-passive":
            return NewPassive()
        case "new-actor":
            return NewActor()
        case "mutate":
            return Mutate(_gen(rng, env, Passive(), budget - 1, cfg, counter))
        case "bestow":
            return Bestow(_gen(rng, env, Passive(), budget - 1, cfg, counter))
        case "lambda":
            assert isinstance(goal, Arrow)
            x = _fresh(counter)
            body = _gen(rng, env.extend(x, goal.dom), goal.cod, budget - 1, cfg, counter)
            return Val(Lambda(x, goal.dom, body))
        case "send":
            return _gen_send(rng, env, budget, cfg, counter)
        case "apply":
            arg_t = rng.choice(arg_candidates)
            # Split what remains after the app node between function and
            # argument.
            rest = budget - 1
            fun_min = 1 + min_size(goal)
            fun_budget = rng.randint(fun_min, rest - min_size(arg_t))
            arg_budget = rest - fun_budget
            fun = _gen(rng, env, Arrow(arg_t, goal), fun_budget, cfg, counter)
            arg = _gen(rng, env, arg_t, arg_budget, cfg, counter)
            return App(fun, arg)
    raise AssertionError(f"unknown production {production!r}")


def _gen_send(
    rng: random.Random,
    env: TypeEnv,
    budget: int,
    cfg: GenConfig,
    counter: list[int],
) -> Expr:
    """A send: active target, message over p typed on the receiver."""
    target_t: Type = ActorType() if rng.random() < 0.7 else Bestowed()
    rest = budget - 2  # send node + message lambda node
    target_budget = rng.randint(min_size(target_t), max(min_size(target_t), rest - 1))
    body_budget = rest - target_budget
    target = _gen(rng, env, target_t, target_budget, cfg, counter)
    x = _fresh(counter)
    body_goal: Type = UnitType() if rng.random() < 0.7 else Passive()
    body_env = env.restrict_active().extend(x, Passive())
    body = _gen(rng, body_env, body_goal, max(body_budget, 1), cfg, counter)
    return Send(target, Lambda(x, Passive(), body))


def random_goal(rng: random.Random, cfg: GenConfig) -> Type:
    total = sum(w for _, w in cfg.program_goals)
    pick = rng.randrange(total)
    for t, w in cfg.program_goals:
        if pick < w:
            return t
        pick -= w
    return UnitType()


def generate_well_typed(
    seed: int,
    size_budget: int = DEFAULT_SIZE_BUDGET,
    config: GenConfig | None = None,
) -> tuple[Expr, Type]:
    """A closed well-typed program and its type, from a seed."""
    cfg = config or GenConfig()
    rng = random.Random(seed)
    goal = random_goal(rng, cfg)
    while min_size(goal) > size_budget:
        goal = random_goal(rng, cfg)
    expr = _gen(rng, TypeEnv(), goal, size_budget, cfg, [0])
    return expr, goal


__all__ = [
    "GenConfig",
    "DEFAULT_SIZE_BUDGET",
    "generate_well_typed",
    "min_size",
]

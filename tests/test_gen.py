"""The program generator: typed by construction, deterministic, varied."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bestow
from bestow.gen import DEFAULT_SIZE_BUDGET, generate_well_typed, min_size
from bestow.syntax import (
    ActorType,
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
    UnitType,
    free_vars,
    walk,
)
from bestow.typecheck import type_of


def size_of(e: Expr) -> int:
    match e:
        case Lambda(body=body):
            return 1 + size_of(body)
        case Send(t, m):
            return 1 + size_of(t) + size_of(m)
        case Mutate(t) | Bestow(inner=t):
            return 1 + size_of(t)
        case NewPassive() | NewActor():
            return 1
        case _:
            fun = getattr(e, "fun", None)
            if fun is not None:
                return 1 + size_of(e.fun) + size_of(e.arg)  # type: ignore[attr-defined]
            return 1  # Var


def test_min_size():
    assert min_size(UnitType()) == 1
    assert min_size(Passive()) == 1
    assert min_size(ActorType()) == 1
    assert min_size(Bestowed()) == 2
    assert min_size(Arrow(Passive(), Bestowed())) == 3
    assert min_size(Arrow(Passive(), Arrow(Passive(), UnitType()))) == 3


def test_deterministic_per_seed():
    for seed in range(30):
        a = generate_well_typed(seed)
        b = generate_well_typed(seed)
        assert a == b


def test_seeds_differ():
    programs = {str(generate_well_typed(s)[0]) for s in range(50)}
    assert len(programs) >= 25


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=1, max_value=14),
)
def test_generated_typechecks_and_is_closed(seed, budget):
    program, goal = generate_well_typed(seed, size_budget=budget)
    assert type_of(program) == goal
    assert free_vars(program) == frozenset()


@given(st.integers(min_value=0, max_value=5000))
def test_generated_has_no_runtime_values(seed):
    from bestow.syntax import ActorId, BestowedLoc, Loc

    program, _ = generate_well_typed(seed)
    for v in walk(program):
        assert not isinstance(v, (Loc, ActorId, BestowedLoc))


def test_size_tracks_budget():
    # the budget is an upper bound modulo the send production's fixed
    # overhead; no program should blow far past it
    for seed in range(300):
        for budget in (4, 8, 12):
            program, _ = generate_well_typed(seed, size_budget=budget)
            assert size_of(program) <= budget + 3


@pytest.mark.parametrize("budget", [0, -1, -3])
def test_a_budget_no_goal_fits_raises(budget):
    # Run apart, under a timeout, first: the goal draw once looped forever
    # here.  Only then in this process.
    env = {**os.environ, "PYTHONPATH": str(Path(bestow.__file__).parents[1])}
    code = f"from bestow.gen import generate_well_typed; generate_well_typed(0, size_budget={budget})"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=30
    )
    assert proc.returncode == 1
    assert b"ValueError: no program goal fits in size budget" in proc.stderr
    with pytest.raises(ValueError, match="no program goal fits in size budget"):
        generate_well_typed(0, size_budget=budget)
    assert generate_well_typed(0, size_budget=1)[1] in (UnitType(), Passive(), ActorType())


def test_all_forms_eventually_appear():
    seen: set[type] = set()
    for seed in range(400):
        program, _ = generate_well_typed(seed)
        stack = [program]
        while stack:
            e = stack.pop()
            seen.add(type(e))
            for name in ("fun", "arg", "target", "inner"):
                child = getattr(e, name, None)
                if isinstance(child, Expr):
                    stack.append(child)
            if isinstance(e, Send):
                stack.append(e.msg)
            if isinstance(e, Lambda):
                stack.append(e.body)
    assert {Send, Mutate, Bestow, NewPassive, NewActor}.issubset(seen)


def test_default_budget_importable():
    assert DEFAULT_SIZE_BUDGET == 12

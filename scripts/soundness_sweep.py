#!/usr/bin/env python3
"""Sweep random well-typed programs through the explorer's three checks.

For each seed: generate a program, confirm it typechecks at its declared
goal type, enumerate every scheduler interleaving, and verify progress,
preservation and race freedom on all reachable states.  Any failure prints
the program, the violated property and a shortest counterexample trace; the
program is printed in surface syntax, so ``bestow explore -`` reads it back.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bestow.explore import check_all, explore
from bestow.gen import generate_well_typed
from bestow.semantics import initial_heap
from bestow.surface import format_core
from bestow.typecheck import TypeCheckError, type_of


def sweep(cfg: argparse.Namespace) -> int:
    """Sweep as ``main``'s options say; 1 if any program fails, else 0."""
    t0 = time.perf_counter()
    failures = 0
    max_states_seen = 0
    for i in range(cfg.programs):
        seed = cfg.first_seed + i
        budget = cfg.min_budget + seed % (cfg.max_budget - cfg.min_budget + 1)
        program, goal = generate_well_typed(seed, size_budget=budget)
        try:
            t = type_of(program)
        except TypeCheckError as err:
            print(f"seed {seed}: generated program does not typecheck: {err}")
            print(f"  program: {format_core(program)}")
            failures += 1
            continue
        if t != goal:
            print(f"seed {seed}: goal type {goal} but checker says {t}")
            failures += 1
            continue
        space = explore(
            initial_heap(program),
            max_states=cfg.max_states,
            max_depth=cfg.max_depth,
        )
        max_states_seen = max(max_states_seen, len(space.states))
        if space.truncated:
            print(f"seed {seed}: exploration truncated at {len(space.states)} states")
            print(f"  program: {format_core(program)}")
            failures += 1
            continue
        for name, cx in check_all(space).items():
            if cx is not None:
                print(f"seed {seed}: {name} violated: {cx}")
                print(f"  program: {format_core(program)}")
                failures += 1
        if cfg.verbose and i % 100 == 0:
            print(f"... {i}/{cfg.programs} ({len(space.states)} states for seed {seed})")
    dt = time.perf_counter() - t0
    print(
        f"swept {cfg.programs} programs (budgets {cfg.min_budget}..{cfg.max_budget}) "
        f"in {dt:.1f}s; largest state space {max_states_seen}; failures: {failures}"
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--programs", type=int, default=1000)
    ap.add_argument("--min-budget", type=int, default=4)
    ap.add_argument("--max-budget", type=int, default=12)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--max-states", type=int, default=50_000)
    ap.add_argument("--max-depth", type=int, default=64)
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)
    if args.programs < 1:
        ap.error("--programs must be at least 1")
    if args.max_states < 0:
        ap.error("--max-states must not be negative")
    if args.max_depth < 0:
        ap.error("--max-depth must not be negative")
    if args.min_budget < 1:
        ap.error("--min-budget must be at least 1")
    if args.max_budget < args.min_budget:
        ap.error("--max-budget must be at least --min-budget")
    return sweep(args)


if __name__ == "__main__":
    sys.exit(main())

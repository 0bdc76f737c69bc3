"""Command-line interface.

Subcommands:

* ``check``    — parse, desugar and typecheck a program; print its type.
* ``run``      — execute a program to quiescence; optionally dump a trace.
* ``explore``  — enumerate all interleavings within a bound and verify
  progress, preservation and race freedom on every reachable state.
* ``desugar``  — print the elaborated core expression.

Exit codes: 0 success; 1 the program failed a check (type error, stuck
run, violated property); 2 the input could not be processed at all (parse
or desugar error, unreadable or non-UTF-8 input, negative count, unwritable
trace).  Output cut off by a closed stdout keeps the command's exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .explore import DEFAULT_MAX_DEPTH, DEFAULT_MAX_STATES, check_all, explore
from .semantics import (
    DEFAULT_FUEL,
    FuelExhaustedError,
    StuckError,
    events_to_jsonl,
    initial_heap,
    run_to_quiescence,
)
from .surface import DesugarError, ParseError, compile_program
from .syntax import Expr, Type, render_expr, render_heap, render_type
from .typecheck import TypeCheckError, type_of


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.buffer.read().decode()  # strict UTF-8, whatever the locale
    return Path(path).read_text()


def _load(path: str) -> Expr:
    try:
        src = _read_source(path)
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(2) from err
    try:
        return compile_program(src)
    except (ParseError, DesugarError) as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from err


def _load_typed(path: str) -> tuple[Expr, Type] | None:
    """``_load``, then typecheck: the program and its type, or None once
    the type error is printed (the command then exits 1)."""
    core = _load(path)
    try:
        return core, type_of(core)
    except TypeCheckError as err:
        print(f"type error: {err}", file=sys.stderr)
        return None


def count(text: str) -> int:
    """A count option's value: an integer, 0 or more."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text}")
    return int(text)


def _emit(line: str) -> None:
    """Print ``line``; once the reader has closed stdout, drop all output."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_trace(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        raise SystemExit(2) from err


def _cmd_check(args: argparse.Namespace) -> int:
    if (typed := _load_typed(args.file)) is None:
        return 1
    _emit(f"type: {render_type(typed[1])}")
    return 0


def _cmd_desugar(args: argparse.Namespace) -> int:
    core = _load(args.file)
    _emit(render_expr(core))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if (typed := _load_typed(args.file)) is None:
        return 1
    try:
        heap, trace = run_to_quiescence(
            initial_heap(typed[0]),
            seed=args.seed,
            fuel=args.fuel,
            lifo=args.lifo_queue,
        )
    except FuelExhaustedError as err:
        if args.trace:
            _write_trace(args.trace, events_to_jsonl(err.trace))
        print(f"error: {err}", file=sys.stderr)
        return 1
    except StuckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.trace:
        _write_trace(args.trace, events_to_jsonl(trace))
    _emit(f"steps: {len(trace)}")
    _emit(f"final: {render_heap(heap)}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    if (typed := _load_typed(args.file)) is None:
        return 1
    space = explore(
        initial_heap(typed[0]),
        max_states=args.bound,
        max_depth=args.depth,
        lifo=args.lifo_queue,
    )
    _emit(f"states: {len(space.states)}")
    _emit(f"edges: {len(space.edges)}")
    _emit(f"truncated: {'yes' if space.truncated else 'no'}")
    results = check_all(space)
    for name, counterexample in results.items():
        _emit(f"{name}: ok" if counterexample is None else f"{name}: FAIL — {counterexample}")
    return 0 if all(c is None for c in results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestow",
        description=(
            "Typecheck, run and exhaustively explore programs of an actor "
            "calculus with bestowed references"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a program")
    p_check.add_argument("file", help="source file, or - for stdin")
    p_check.set_defaults(fn=_cmd_check)

    p_desugar = sub.add_parser("desugar", help="print the core elaboration")
    p_desugar.add_argument("file", help="source file, or - for stdin")
    p_desugar.set_defaults(fn=_cmd_desugar)

    p_run = sub.add_parser("run", help="run a program to quiescence")
    p_run.add_argument("file", help="source file, or - for stdin")
    p_run.add_argument("--seed", type=int, default=None,
                       help="randomize scheduling with this seed")
    p_run.add_argument("--fuel", type=count, default=DEFAULT_FUEL,
                       help=f"max steps before giving up (default {DEFAULT_FUEL})")
    p_run.add_argument("--trace", metavar="PATH", default=None,
                       help="write the step trace as JSON lines to PATH")
    p_run.add_argument("--lifo-queue", action="store_true",
                       help="deliver newest queued message first")
    p_run.set_defaults(fn=_cmd_run)

    p_explore = sub.add_parser(
        "explore", help="enumerate interleavings and verify soundness properties"
    )
    p_explore.add_argument("file", help="source file, or - for stdin")
    p_explore.add_argument("--bound", type=count, default=DEFAULT_MAX_STATES,
                           help=f"max states to collect (default {DEFAULT_MAX_STATES})")
    p_explore.add_argument("--depth", type=count, default=DEFAULT_MAX_DEPTH,
                           help=f"max steps from the initial state (default {DEFAULT_MAX_DEPTH})")
    p_explore.add_argument("--lifo-queue", action="store_true",
                           help="deliver newest queued message first")
    p_explore.set_defaults(fn=_cmd_explore)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Long and deeply nested programs: no stage runs out of Python stack.

A ``val`` or ``;`` chain nests one applied lambda per statement, so a long
program is a deep term.  Every traversal must handle such terms at the
interpreter's default recursion limit, and the command line must keep its
exit codes (0, 1 or 2) on any input, however long or deeply nested.
"""

from __future__ import annotations

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bestow import syntax
from bestow.cli import main
from bestow.explore import state_key
from bestow.semantics import FuelExhaustedError, initial_heap, run_program
from bestow.surface import MAX_NESTING, ParseError, compile_program, parse_program
from bestow.syntax import (
    App,
    Lambda,
    Loc,
    Mutate,
    NewPassive,
    Passive,
    UnitType,
    UnitVal,
    Val,
    Var,
    fold,
    free_vars,
    rebuild,
    render_expr,
    render_heap,
    subst,
    walk,
)
from bestow.typecheck import TypeCheckError, type_of
from bestow.wellformed import wf_heap

LINKS = 10_000


def val_chain(n: int, tail: str | None = None) -> App:
    """``val x0 = new p; ...; val x{n-1} = new p; tail``, built as core
    terms without the front end; ``tail`` defaults to ``x{n-1}``."""
    e = Var(tail or f"x{n - 1}")
    for i in reversed(range(n)):
        e = App(Val(Lambda(f"x{i}", Passive(), e)), NewPassive())
    return e


@pytest.fixture(scope="module")
def chain():
    assert sys.getrecursionlimit() <= 1000 < LINKS
    return val_chain(LINKS)


def test_free_vars_on_long_chain(chain):
    assert free_vars(chain) == frozenset()
    assert free_vars(val_chain(LINKS, tail="y")) == {"y"}


def test_subst_on_long_chain(chain):
    open_chain = val_chain(LINKS, tail="y")
    out = subst(open_chain, "y", Loc(7))
    assert free_vars(out) == frozenset()
    assert render_expr(out).endswith("(loc 7)" + ") (new p))" * LINKS)
    assert subst(chain, "nonexistent", UnitVal()) is chain


def test_fold_rebuild_on_long_chain(chain):
    assert fold(chain, lambda v: v, rebuild) is chain
    closed = subst(val_chain(LINKS, tail="y"), "y", Loc(7))
    out = fold(closed, lambda v: Loc(8) if v == Loc(7) else v, rebuild)
    assert render_expr(out).endswith("(loc 8)" + ") (new p))" * LINKS)


def test_walk_on_long_chain(chain):
    assert sum(1 for v in walk(chain) if isinstance(v, Lambda)) == LINKS


def test_render_expr_on_long_chain(chain):
    opening = "".join(f"(app (fn (x{i} : p) " for i in range(LINKS))
    closing = ") (new p))" * LINKS
    assert render_expr(chain) == opening + f"x{LINKS - 1}" + closing


def test_type_of_long_chain(chain):
    assert type_of(chain) == Passive()


def test_canonicalize_and_wf_on_long_chain(chain):
    heap = initial_heap(chain)
    assert state_key(heap) == render_heap(heap)
    assert wf_heap(heap).ok


def test_run_program_on_long_chain(chain):
    with pytest.raises(FuelExhaustedError) as exc:
        run_program(chain, fuel=10)
    assert [ev.rule for ev in exc.value.trace] == ["new-passive", "apply"] * 5


def test_run_program_runs_long_chain_to_quiescence(chain):
    heap, trace = run_program(chain)
    assert len(trace) == 2 * LINKS
    assert trace[-1].rule == "apply"
    assert render_expr(heap.actors[0].current) == f"(loc {LINKS})"


def late_use_chain(n: int) -> App:
    """``val x0 = new p; ...; val x{n-1} = new p; x0.mutate(); ...;
    x{n-1}.mutate()`` as core terms: every name is used after all bindings."""
    e = Mutate(Var(f"x{n - 1}"))
    for i in reversed(range(n - 1)):
        e = App(Val(Lambda("_seq", UnitType(), e)), Mutate(Var(f"x{i}")))
    for i in reversed(range(n)):
        e = App(Val(Lambda(f"x{i}", Passive(), e)), NewPassive())
    return e


def test_substitution_work_on_a_late_use_chain_is_linear(monkeypatch):
    # Each step used to copy the path down to every later use of its name:
    # 3n² nodes over a run.  A pending body costs a few nodes per step.
    def nodes_built(n: int) -> int:
        built = 0

        def counting(real):
            def f(*args):
                nonlocal built
                built += 1
                return real(*args)

            return f

        with monkeypatch.context() as m:
            m.setattr(syntax, "rebuild", counting(syntax.rebuild))
            m.setattr(syntax, "_pend", counting(syntax._pend))
            _, trace = run_program(late_use_chain(n))
        assert [ev.touched_loc for ev in trace if ev.rule == "mutate"] == list(range(1, n + 1))
        return built

    small, large = nodes_built(500), nodes_built(1000)
    assert 0 < small and large < 3 * small


def test_ill_typed_bound_and_later_statement_reports_the_later_one():
    # The bound expression `o.mutate().mutate()` and the final send to a
    # passive are both ill-typed; the chain's bodies are checked first.
    filler = "val k = new p;\n" * 1000
    src = (
        "val o = new p; val u = o.mutate().mutate();\n"
        + filler
        + "val r = bestow o; o ! \\x:p. x"
    )
    with pytest.raises(TypeCheckError) as exc:
        type_of(compile_program(src))
    assert exc.value.rule == "e-send"
    assert exc.value.message == (
        "send target has type p, expected an active type (c or (B p))"
    )
    assert render_expr(exc.value.expr) == "(send o (fn (x : p) x))"


# --------------------------------------------------------------------------
# The command line
# --------------------------------------------------------------------------


def run_cli(argv: list[str], src: str) -> tuple[int, str]:
    """``main(argv + ["-"])`` on ``src`` as standard input: the exit code
    and what went to standard error."""
    bytes_in = io.TextIOWrapper(io.BytesIO(src.encode()), encoding="utf-8")
    stdin, sys.stdin = sys.stdin, bytes_in
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "-"])
            except SystemExit as exit:
                code = exit.code
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


LONG = "val o = new p;\n" + "o.mutate();\n" * 1998 + "o\n"


@pytest.mark.parametrize(
    "argv", [["check"], ["desugar"], ["run"], ["explore", "--depth", "8"]]
)
def test_cli_accepts_2000_statements(argv):
    assert run_cli(argv, LONG) == (0, "")


@pytest.mark.parametrize("command", ["check", "desugar", "run", "explore"])
def test_cli_rejects_deep_nesting_with_exit_2(command):
    code, err = run_cli([command], "(" * 10_000 + "new p" + ")" * 10_000)
    assert code == 2
    assert "nested more than" in err


def test_parser_depth_error_points_at_the_token():
    with pytest.raises(ParseError) as exc:
        parse_program("(" * 2_000 + "new p" + ")" * 2_000)
    assert exc.value.pos == (1, MAX_NESTING + 1)


# Statements for long chains, and wrappers that nest one level each.
STATEMENTS = [
    "new p",
    "new c",
    "val o = new p",
    "o.mutate()",
    "val b = bestow o",
    "b ! \\x:p. x.mutate()",
    "val a = new c",
    "a ! \\x:p. x.mutate()",
    "o",
    "u ! \\x:p. x",
]
NESTS = [
    ("(", ")"),
    ("{ ", " }"),
    ("{ new p; ", " }"),
    ("bestow ", ""),
    ("\\x:p. ", ""),
    ("a ! \\x:p. ", ""),
    ("", ".mutate()"),
    ("(\\y:p. y) ", ""),
]
COMMANDS = [
    ["check"],
    ["desugar"],
    ["run", "--fuel", "400"],
    ["explore", "--depth", "6", "--bound", "200"],
]

long_chains = st.builds(
    lambda stmts, k: ";\n".join(stmts * k),
    st.lists(st.sampled_from(STATEMENTS), min_size=1, max_size=6),
    st.integers(min_value=60, max_value=400),
)
deep_nests = st.builds(
    lambda layers, core: "".join(o for o, _ in layers)
    + core
    + "".join(c for _, c in reversed(layers)),
    st.lists(st.sampled_from(NESTS), min_size=1, max_size=3 * MAX_NESTING),
    st.sampled_from(["new p", "x", "o", "()"]),
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(long_chains, deep_nests), st.sampled_from(COMMANDS))
def test_cli_exit_code_is_0_1_or_2(src, argv):
    code, _ = run_cli(argv, "val o = new p; val a = new c;\n" + src)
    assert code in (0, 1, 2)

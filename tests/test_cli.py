"""The `bestow` command: exit codes, output shapes, trace files."""

from __future__ import annotations

import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bestow
from bestow.cli import main

GOOD = "val a = new c;\na ! \\x:p. x.mutate()\n"
ILL_TYPED = "val x = new p;\nx ! \\y:p. y\n"  # send to a passive target
UNPARSEABLE = "val = x\n"
BAD_ATOMIC = "val a = new c; atomic y <- a { new p }\n"


@pytest.fixture
def src(tmp_path):
    def write(text: str) -> str:
        f = tmp_path / "prog.bst"
        f.write_text(text)
        return str(f)

    return write


def test_check_ok(src, capsys):
    assert main(["check", src(GOOD)]) == 0
    assert capsys.readouterr().out == "type: Unit\n"


def test_check_type_error_exits_1(src, capsys):
    assert main(["check", src(ILL_TYPED)]) == 1
    err = capsys.readouterr().err
    assert "type error" in err and "e-send" in err


def test_parse_error_exits_2(src, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", src(UNPARSEABLE)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_desugar_error_exits_2(src, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["desugar", src(BAD_ATOMIC)])
    assert exc.value.code == 2
    assert "batch-shape" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(tmp_path / "absent.bst")])
    assert exc.value.code == 2
    assert "cannot read" in capsys.readouterr().err


# Not UTF-8: a lone continuation byte, then a truncated multi-byte lead.
NOT_UTF8 = b"val a = new c;\n\x80\xff\xfe\xc3"


def test_non_utf8_file_exits_2(tmp_path, capsys):
    f = tmp_path / "binary.bst"
    f.write_bytes(NOT_UTF8)
    with pytest.raises(SystemExit) as exc:
        main(["check", str(f)])
    assert exc.value.code == 2
    assert f"error: cannot read {f}:" in capsys.readouterr().err


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A bytes-backed stdin that, like a real one, decodes leniently."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_non_utf8_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(NOT_UTF8))
    with pytest.raises(SystemExit) as exc:
        main(["check", "-"])
    assert exc.value.code == 2
    assert "error: cannot read -:" in capsys.readouterr().err


def test_non_utf8_stdin_under_c_locale_exits_2():
    # Python decodes a real stdin with surrogateescape under the C locale, so
    # a text read would hand the parser lone surrogates instead of failing.
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(Path(bestow.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bestow.cli", "check", "-"],
        input=b"new p \xb2\xff", capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: cannot read -:")


def test_closed_output_pipe_drops_the_rest_quietly(tmp_path):
    # `run` prints a short line, then a final heap of about 110 KB, more
    # than a pipe holds: closing the pipe after the first line cuts it off.
    prog = tmp_path / "actors.bestow"
    prog.write_text(";\n".join(f"val k{i} = new c" for i in range(3000)))
    env = {**os.environ, "PYTHONPATH": str(Path(bestow.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bestow.cli", "run", str(prog)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    assert proc.stdout.readline() == b"steps: 5999\n"  # unbuffered: one line
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 0


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", _stdin(b"new p"))
    assert main(["check", "-"]) == 0
    assert capsys.readouterr().out == "type: p\n"


def test_desugar_prints_core(src, capsys):
    assert main(["desugar", src("val x = new p; x")]) == 0
    out = capsys.readouterr().out
    assert out == "(app (fn (x : p) x) (new p))\n"


def test_run_ok(src, capsys):
    assert main(["run", src(GOOD)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("steps: 6\n")
    assert "final: (heap" in out


def test_run_rejects_ill_typed(src, capsys):
    assert main(["run", src(ILL_TYPED)]) == 1
    assert "type error" in capsys.readouterr().err


def test_run_writes_jsonl_trace(src, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["run", src(GOOD), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert [e["rule"] for e in events] == [
        "new-actor",
        "apply",
        "send-actor",
        "actor-msg",
        "apply",
        "mutate",
    ]
    assert [e["step"] for e in events] == list(range(6))
    assert set(events[0]) == {"step", "actor", "rule", "loc"}


def test_run_stuck_exits_1(src, capsys, mutate_never_fires):
    assert main(["run", src("val o = new p; o.mutate()\n")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: actor 0 stuck: ")


def test_run_fuel_exhaustion_exits_1_and_dumps_partial_trace(
    src, tmp_path, capsys
):
    trace = tmp_path / "partial.jsonl"
    code = main(["run", src(GOOD), "--fuel", "2", "--trace", str(trace)])
    assert code == 1
    assert "fuel" in capsys.readouterr().err
    assert len(trace.read_text().splitlines()) == 2


@pytest.mark.parametrize("fuel", ["1000", "2"])  # the run ends; fuel runs out
def test_run_unwritable_trace_exits_2(src, tmp_path, capsys, fuel):
    trace = str(tmp_path / "absent" / "t.jsonl")
    with pytest.raises(SystemExit) as exc:
        main(["run", src(GOOD), "--fuel", fuel, "--trace", trace])
    assert exc.value.code == 2
    assert f"error: cannot write {trace}" in capsys.readouterr().err


def test_run_seed_is_deterministic(src, capsys):
    path = src(GOOD)
    assert main(["run", path, "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["run", path, "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_run_lifo_queue_changes_delivery_order(src, tmp_path, capsys):
    # two messages to the same actor: an allocation and a mutation
    prog = src(
        "val a = new c;\n"
        "val s1 = a ! \\x:p. new p;\n"
        "a ! \\x:p. x.mutate()\n"
    )
    fifo, lifo = tmp_path / "fifo.jsonl", tmp_path / "lifo.jsonl"
    assert main(["run", prog, "--trace", str(fifo)]) == 0
    assert main(["run", prog, "--lifo-queue", "--trace", str(lifo)]) == 0
    capsys.readouterr()

    def delivered(path):
        rules = [json.loads(l)["rule"] for l in path.read_text().splitlines()]
        return [r for r in rules if r in ("new-passive", "mutate")]

    assert delivered(fifo) == ["new-passive", "mutate"]
    assert delivered(lifo) == ["mutate", "new-passive"]


def test_explore_ok(src, capsys):
    assert main(["explore", src(GOOD)]) == 0
    out = capsys.readouterr().out
    assert "states:" in out
    assert "truncated: no" in out
    assert "progress: ok" in out
    assert "preservation: ok" in out
    assert "race-freedom: ok" in out


def test_readme_explore_sample_prints_what_the_readme_shows(src, capsys):
    """The README's `explore` example: the first fenced block after its
    introduction is the program, the second what `bestow explore` prints."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("`explore` enumerates every reachable state", 1)[1].split("```")
    program, shown = (block.partition("\n")[2] for block in (blocks[1], blocks[3]))
    assert len(shown.splitlines()) == 6
    assert main(["explore", src(program)]) == 0
    assert capsys.readouterr().out == shown


# Three clients each send two mutates to one bestowed object (3x2).
CONTENDED = "val obj = new p;\nval ref = bestow obj;\n" + ";\n".join(
    [f"val k{i} = new c" for i in range(3)]
    + [f"k{i} ! \\x:p. {{ ref ! \\y:p. y.mutate(); ref ! \\y:p. y.mutate() }}" for i in range(3)]
)


def test_explore_exits_1_when_a_check_fails(src, capsys, sender_queue_mutant):
    """A semantic bug that queues bestowed sends on the sender breaks
    preservation and race freedom; each failure prints its replayable
    schedule and the command exits 1."""
    assert main(["explore", src(CONTENDED), "--depth", "96"]) == 1
    out = capsys.readouterr().out
    after = r" after (\d+) steps \(schedule:((?: \d+:(?:pop|step))+)\)$"
    assert "progress: ok" in out.splitlines()
    for line in (
        r"preservation: FAIL — ill-formed state: \[wf-actor\] actor \d+: .*",
        r"race-freedom: FAIL — actors \d+ and \d+ can both touch location \d+",
    ):
        found = re.search("^" + line + after, out, re.M)
        assert found is not None, out
        assert int(found.group(1)) == len(found.group(2).split()) > 0


def test_explore_reports_truncation(src, capsys):
    assert main(["explore", src(GOOD), "--bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "truncated: yes" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--bound", "-1"],
        ["explore", "--depth", "-1"],
        ["run", "--fuel", "-1"],
    ],
)
def test_negative_counts_exit_2(src, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, src(GOOD)])
    assert exc.value.code == 2
    assert f"argument {argv[1]}: expected a count >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["explore", "--bound", "0"], ["explore", "--depth", "0"]])
def test_zero_counts_stay_valid(src, capsys, argv):
    assert main([*argv, src(GOOD)]) == 0
    assert "truncated: yes" in capsys.readouterr().out


def test_explore_rejects_ill_typed(src, capsys):
    assert main(["explore", src(ILL_TYPED)]) == 1
    assert "type error" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_sweep_prints_failing_programs_the_cli_reads(monkeypatch, capsys):
    """The soundness sweep prints a failing program in surface syntax:
    ``bestow explore -`` reads it back (exit 0 or 1, never 2)."""
    script = runpy.run_path(str(Path(__file__).parent.parent / "scripts/soundness_sweep.py"))
    check_all = script["check_all"]
    failed = []

    def one_failure(space):
        results = check_all(space)
        if not failed:
            results["race-freedom"] = "injected"
            failed.append(space)
        return results

    monkeypatch.setitem(script["main"].__globals__, "check_all", one_failure)
    assert script["main"](["--programs", "4", "--first-seed", "8"]) == 1
    out = capsys.readouterr().out
    assert "seed 8: race-freedom violated: injected" in out
    printed = [line for line in out.splitlines() if line.startswith("  program: ")]
    assert len(printed) == 1
    monkeypatch.setattr("sys.stdin", _stdin(printed[0].removeprefix("  program: ").encode()))
    try:
        code = main(["explore", "-"])
    except SystemExit as exit:
        code = exit.code
    assert code in (0, 1), capsys.readouterr().err


@pytest.mark.parametrize(
    "budgets",
    [["--min-budget", "5", "--max-budget", "4"], ["--min-budget", "6", "--max-budget", "4"],
     ["--min-budget", "0"], ["--programs", "0"], ["--programs", "-3"],
     ["--max-states", "-1"], ["--max-depth", "-1"]],
)
def test_sweep_rejects_a_budget_range_with_no_program(budgets, capsys):
    """A minimum above the maximum leaves no budget to sweep, no program fits
    a budget below 1, a sweep of no program checks nothing and a negative
    bound truncates every space: each exits 2, naming its option, before
    any program is generated."""
    script = runpy.run_path(str(Path(__file__).parent.parent / "scripts/soundness_sweep.py"))
    with pytest.raises(SystemExit) as exc:
        script["main"](["--programs", "1", *budgets])
    assert exc.value.code == 2
    assert budgets[0] in capsys.readouterr().err

"""The `bestow` command: exit codes, output shapes, trace files."""

from __future__ import annotations

import json

import pytest

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


def test_non_utf8_stdin_exits_2(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    with pytest.raises(SystemExit) as exc:
        main(["check", "-"])
    assert exc.value.code == 2
    assert "error: cannot read -:" in capsys.readouterr().err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("new p"))
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

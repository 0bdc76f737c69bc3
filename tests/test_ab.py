"""The A/B script's verdict rule, its rotation of roles over directories,
and its exit code on bad input."""

from __future__ import annotations

import json
import runpy
import subprocess
from pathlib import Path

import pytest

AB = runpy.run_path(str(Path(__file__).parent.parent / "scripts/ab.py"))
LATENCY = {"name": "latency_ms", "better": "lower", "bound": 0.2}

BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def judged(head, aa2=None, base=BASE):
    """``latency_ms`` judged with ``base`` on both BASE sides but ``aa2``."""
    return AB["judge"](LATENCY, {"ab:base": base, "ab:head": head,
                                 "aa:base": base, "aa:base2": aa2 or base})


def test_ten_clear_wins_make_a_claim():
    m = judged([x - 1 for x in BASE])
    assert (m["verdict"], m["worse"], m["won"], m["unresolved"]) == ("claim", False, 10, False)


@pytest.mark.parametrize("case", ["nine pairs", "eight wins", "A/A gap", "inside IQR", "A/A"])
def test_no_claim(case):
    head = [x - 1 for x in BASE]
    aa2 = None
    if case == "nine pairs":
        m = judged(head[:9], base=BASE[:9])
    else:
        if case == "eight wins":
            head[0] = head[1] = 11.0
        elif case == "A/A gap":
            aa2 = [x + 2 for x in BASE]
        elif case == "inside IQR":
            head = [x - 0.05 for x in BASE]
        else:
            head = list(reversed(BASE))
        m = judged(head, aa2)
    assert m["verdict"] == "no claim"
    assert not m["worse"]


def test_ten_clear_losses_are_worse():
    m = judged([x + 1 for x in BASE])
    assert (m["verdict"], m["worse"], m["won"]) == ("no claim", True, 0)


def test_spread_past_the_bound_is_unresolved_unless_every_run_is_better():
    wide = [5.0, 15.0] * 5
    assert judged(wide, base=wide)["unresolved"]
    assert not judged([x / 10 for x in wide], base=wide)["unresolved"]


def test_a_revision_git_cannot_resolve_exits_2():
    assert AB["main"](["no-such-revision", "--workload", "runtime-shared-object"]) == 2


@pytest.mark.parametrize("flags", [["--pairs", "0"], ["--seconds", "0"], ["--workload", "nope"]])
def test_bad_arguments_exit_2(flags):
    with pytest.raises(SystemExit) as exc:
        AB["main"](["HEAD", "--workload", "runtime-shared-object", *flags])
    assert exc.value.code == 2


def test_roles_rotate_over_the_directories(tmp_path, monkeypatch):
    """Over three pairs each role runs once from each directory, and each
    run sees its role's tree: BASE's file for base and base2, HEAD's for head."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args: str) -> str:
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, check=True, capture_output=True, text=True).stdout
    git("init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [LATENCY]}))
    for side in ("base", "head"):
        (repo / "side.txt").write_text(side)
        git("add", "-A")
        git("commit", "-q", "-m", side)

    def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
        side = (tree / "side.txt").read_text()
        return {"seed": seed, "attempted": 1, "metrics": {"latency_ms": 1.0},
                "detail": {"side": float(side == "head")}}

    env = AB["main"].__globals__
    monkeypatch.setitem(env, "ROOT", repo)
    monkeypatch.setitem(env, "run_once", run_once)
    assert AB["main"](["HEAD~1", "HEAD", "--workload", "w", "--pairs", "3", "--seconds", "1"]) == 0
    runs = json.loads((repo / "BENCH_w.json").read_text())["runs"]
    for r in runs:
        assert r["detail"]["side"] == (r["side"] == "head")
    placed = {(r["side"], r["dir"]) for r in runs}
    assert placed == {(side, f"tree{n}") for side in AB["ROLES"] for n in range(3)}
    # base runs in both sets of a pair, from one directory.
    assert len({(r["pair"], r["side"], r["dir"]) for r in runs}) == 9

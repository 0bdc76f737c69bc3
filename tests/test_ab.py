"""The A/B script's verdict rule and its exit code on bad input."""

from __future__ import annotations

import runpy
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

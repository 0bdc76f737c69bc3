#!/usr/bin/env python3
"""A/B runs of the benchmark: one revision against another, pair by pair.

    python3 scripts/ab.py BASE [HEAD] --workload W [--pairs 10] [--seconds 25] [--seed 1]

Three worktrees sit side by side in a temporary directory, made with
``git worktree add --detach``; two hold BASE and one HEAD.  Without a HEAD
argument, HEAD is the current checkout as it stands, uncommitted edits and
untracked files included.  Each pair runs ``perfbench/run.py --trace 0``
once from BASE and once from HEAD with the same seed, and the side that
runs first alternates from pair to pair.  Beside each A/B pair runs an A/A
pair, BASE against its second copy (BASE2), laid out the same way, so the
A/A gap shows how far two checkouts of the same code read apart.  A
directory's place moves its figures too, so the roles rotate over the
directories from pair to pair (``git read-tree -u --reset``): over any
three pairs each role runs once from each directory.  Every pair gets a
seed of its own, counting up from ``--seed``.

For every end-to-end metric in ``BENCHMARK.json`` the script prints both
medians, both sides' quartiles, the pairs HEAD won and the A/A gap (the
distance between the medians of the A/A sides).  Its verdict on a metric
is ``claim`` only with at least 10 pairs, when HEAD is better in at least
9 in 10 of them and the distance between the medians exceeds both BASE's
interquartile range and the A/A gap; otherwise it is ``no claim``.  The
same rule with HEAD worse marks a metric ``worse``.  A metric whose
interquartile range on either side exceeds its bound, relative to the
median, is marked ``unresolved``, unless every HEAD run reads better than
every BASE run.  The report's verdict is ``claim`` when
some metric is claimed and none is worse.

Every raw value goes to ``BENCH_<workload>.json`` at the root of the
checkout, each run with the directory it ran from, along with both commit
ids, whether HEAD had uncommitted edits, ``nproc``, the Python version and
the settings.  The worktrees are removed however the script ends.  Exit
codes: 0 when every run was correct; 1 when a run fails, reports
``correct: false`` or a failed op (the script stops there and writes no
report); 2 on bad arguments or a revision git cannot resolve.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_PAIRS = 10  # fewer pairs never support a claim
ROLES = ("base", "base2", "head")  # pair i runs role n from directory (n + i) % 3
RULE = ("claim: >= 10 pairs, HEAD better in >= 9 in 10, and |median gap| > "
        "BASE's IQR and > the A/A gap; worse: the same with HEAD worse")


class RunFailed(Exception):
    """A benchmark run exited non-zero, printed no result, or reported a
    wrong output or a failed op."""


def git(*args: str, cwd: Path | None = None, env: dict | None = None) -> str:
    """``git args`` run in ``cwd`` (the checkout if None); its stdout, stripped."""
    return subprocess.run(["git", *args], cwd=cwd or ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout_tree(index: Path) -> str:
    """The id of the tree the checkout holds now, untracked files included,
    built in a scratch ``index`` so the checkout's own index is untouched."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def resolve(rev: str) -> str | None:
    try:
        return git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    except subprocess.CalledProcessError:
        return None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run from ``tree``: its end-to-end
    metrics and detail values, by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # Each tree imports its own src/; an inherited path could mix them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=20 * seconds + 600)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{' '.join(cmd)} in {tree} timed out") from exc
    try:
        *_, detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    except (ValueError, TypeError):
        detail = result = None
    if proc.returncode or result is None:
        raise RunFailed(f"{' '.join(cmd)} in {tree} exited {proc.returncode} with no "
                        f"result:\n{proc.stderr[-2000:]}")
    if result["correct"] is not True or result["failed"]:
        raise RunFailed(f"{' '.join(cmd)} in {tree} reported correct={result['correct']} "
                        f"failed={result['failed']}")
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "detail": {k: v["value"] for k, v in detail["detail"].items()},
    }


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def judge(metric: dict, sides: dict[str, list[float]]) -> dict:
    """One metric's summary and verdict over the pair-aligned run values."""
    sign = 1 if metric["better"] == "higher" else -1
    base, head = sides["ab:base"], sides["ab:head"]
    b_med, h_med = statistics.median(base), statistics.median(head)
    (b_q1, b_q3), (h_q1, h_q3) = quartiles(base), quartiles(head)
    gap = h_med - b_med
    aa_gap = abs(statistics.median(sides["aa:base2"]) - statistics.median(sides["aa:base"]))
    n = len(base)
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    lost = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    clear = n >= CLAIM_PAIRS and abs(gap) > b_q3 - b_q1 and abs(gap) > aa_gap
    apart = min(head) > max(base) if sign > 0 else max(head) < min(base)

    def spread(q1: float, q3: float, med: float) -> float:
        return (q3 - q1) / abs(med) if med else 0.0

    return {
        "base_median": b_med, "head_median": h_med,
        "change": gap / b_med if b_med else 0.0,
        "base_q1": b_q1, "base_q3": b_q3, "head_q1": h_q1, "head_q3": h_q3,
        "won": won, "pairs": n, "aa_gap": aa_gap,
        "verdict": "claim" if clear and sign * gap > 0 and 10 * won >= 9 * n else "no claim",
        "worse": clear and sign * gap < 0 and 10 * lost >= 9 * n,
        "unresolved": not apart and max(spread(b_q1, b_q3, b_med),
                                        spread(h_q1, h_q3, h_med)) > metric["bound"],
    }


def report(metrics: dict[str, dict], detail: dict[str, dict]) -> None:
    print(f"{'metric':<22}{'base':>11}{'head':>11}{'change':>9}  {'base q1-q3':<21}"
          f"{'head q1-q3':<21}{'won':>6}{'A/A gap':>10}  verdict")
    for name, m in metrics.items():
        flags = "".join(f", {f}" for f in ("worse", "unresolved") if m[f])
        print(f"{name:<22}{m['base_median']:>11.5g}{m['head_median']:>11.5g}{m['change']:>+9.1%}  "
              f"{m['base_q1']:>9.5g}-{m['base_q3']:<11.5g}{m['head_q1']:>9.5g}-{m['head_q3']:<11.5g}"
              f"{m['won']:>3}/{m['pairs']:<2}{m['aa_gap']:>10.3g}  {m['verdict']}{flags}")
    print("detail medians:")
    for name, d in detail.items():
        change = d["head_median"] / d["base_median"] - 1 if d["base_median"] else 0.0
        print(f"  {name:<24}{d['base_median']:>12.5g}{d['head_median']:>12.5g}{change:>+9.1%}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", metavar="BASE")
    ap.add_argument("head", metavar="HEAD", nargs="?",
                    help="a revision; the current checkout, edits included, when left out")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("--pairs must be at least 1 and --seconds positive")

    base_sha = resolve(args.base)
    head_sha = resolve(args.head or "HEAD")
    if base_sha is None or head_sha is None:
        print(f"ab: git cannot resolve {args.base if base_sha is None else args.head!r}",
              file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    trees: list[Path] = []
    dirty = False
    try:
        for n in range(len(ROLES)):
            trees.append(tmp / f"tree{n}")
            git("worktree", "add", "--detach", str(trees[-1]), base_sha)
        base_tree = git("rev-parse", f"{base_sha}^{{tree}}")
        head_tree = git("rev-parse", f"{head_sha}^{{tree}}")
        if args.head is None:
            edited = checkout_tree(tmp / "index")
            dirty = edited != head_tree
            head_tree = edited
        content = {"base": base_tree, "base2": base_tree, "head": head_tree}

        runs: list[dict] = []
        for i in range(args.pairs):
            where = {role: trees[(n + i) % len(trees)] for n, role in enumerate(ROLES)}
            for role, path in where.items():
                git("read-tree", "-u", "--reset", content[role], cwd=path)
            for k, (kind, sides) in enumerate([("ab", ("base", "head")), ("aa", ("base", "base2"))]):
                seed = args.seed + 2 * i + k
                for side in sides if i % 2 == 0 else sides[::-1]:
                    run = run_once(where[side], args.workload, seed, args.seconds)
                    runs.append({"pair": i, "set": kind, "side": side,
                                 "dir": where[side].name, **run})
                    shown = " ".join(f"{m}={v:.5g}" for m, v in run["metrics"].items())
                    print(f"pair {i} {kind} {side:<5} {where[side].name} seed {seed}: {shown}",
                          file=sys.stderr, flush=True)
    except RunFailed as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"ab: {' '.join(exc.cmd)} failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        for path in trees:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    def values(field: str, name: str) -> dict[str, list[float]]:
        return {s: [r[field][name] for r in runs if f"{r['set']}:{r['side']}" == s]
                for s in ("ab:base", "ab:head", "aa:base", "aa:base2")}

    metrics = {m["name"]: judge(m, values("metrics", m["name"]))
               for m in spec["end_to_end"]}
    detail = {}
    for name in runs[0]["detail"]:
        sides = values("detail", name)
        detail[name] = {"base_median": statistics.median(sides["ab:base"]),
                        "head_median": statistics.median(sides["ab:head"])}
    claimed = [n for n, m in metrics.items() if m["verdict"] == "claim"]
    worse = [n for n, m in metrics.items() if m["worse"]]
    verdict = "claim" if claimed and not worse else "no claim"
    report(metrics, detail)
    print(f"verdict: {verdict} (claimed: {', '.join(claimed) or 'none'}; "
          f"worse: {', '.join(worse) or 'none'})")

    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps({
        "workload": args.workload,
        "base": {"rev": args.base, "commit": base_sha},
        "head": {"rev": args.head or "working tree", "commit": head_sha, "dirty": dirty},
        "host": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "trace": 0},
        "rule": RULE,
        "verdict": verdict,
        "claimed": claimed,
        "worse": worse,
        "metrics": metrics,
        "detail": detail,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

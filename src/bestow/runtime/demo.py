"""Runnable demos for the concurrent runtime (``bestow-examples``)."""

from __future__ import annotations

import argparse
import sys
import time

from .listiter import expected_hops, run_list_iterator


def _cmd_list_iterator(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    stats = run_list_iterator(args.clients, args.elements, args.mode)
    dt = time.perf_counter() - t0

    want = expected_hops(args.mode, args.clients, args.elements)
    print(f"mode:            {stats.mode}")
    print(f"clients:         {stats.clients}")
    print(f"elements:        {stats.elements}")
    print(f"node visits:     {stats.hops} (closed form: {want})")
    if stats.mode == "atomic-pairs":
        print(f"pairs drawn:     {stats.pairs}")
        print(f"torn pairs:      {stats.torn_pairs}")
        total = sum(stats.client_sums)
        print(f"sum of reads:    {total} (expected {stats.expected_sum})")
        ok = stats.hops == want and stats.torn_pairs == 0 and total == stats.expected_sum
    else:
        sums_ok = all(s == stats.expected_sum for s in stats.client_sums)
        print(f"per-client sums: {stats.client_sums} (each expected {stats.expected_sum})")
        ok = stats.hops == want and sums_ok
    print(f"wall time:       {dt:.3f}s")
    print("result:          " + ("ok" if ok else "MISMATCH"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestow-examples",
        description="Concurrent demos for the bestow runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "list-iterator",
        help="clients reading an actor-owned linked list three different ways",
    )
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--elements", type=int, default=100)
    p.add_argument(
        "--mode",
        choices=["get", "bestowed-iterator", "atomic-pairs"],
        default="get",
    )
    p.set_defaults(fn=_cmd_list_iterator)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # No client or no element would check nothing; exit 2, not a verdict.
    if args.clients < 1:
        parser.error("--clients must be at least 1")
    if args.elements < 1:
        parser.error("--elements must be at least 1")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

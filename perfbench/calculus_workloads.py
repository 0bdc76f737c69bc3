"""The three batch workloads over the calculus: explorer, sweep, front end.

Each workload builds its inputs from the seed in ``prepare`` (part of the
timed set-up) and then runs ``op`` repeatedly; one op is one unit of the
work a user waits for.  Every op checks its outputs against values that do
not come from the code under test: the seed's state and edge counts for the
contended shapes, the generator's own goal type for the sweep, and a closed
form for the front end's type and step count.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from time import perf_counter
from typing import Any

from common import OpResult, deep_size, median

# Calculus modules, named by their layer.
CALCULUS = ["surface", "typecheck", "semantics", "wellformed", "explore", "gen"]


def instrument_calculus(tracer: Any, mods: dict[str, Any]) -> None:
    """Wrap the calculus' public functions at every module that calls them.

    ``typecheck.check`` is recursive, so it is wrapped only where other
    modules call it (the desugarer's binder typing and the wf checks).
    """
    every = [mods[m] for m in CALCULUS]
    sem, exp, tc = mods["semantics"], mods["explore"], mods["typecheck"]
    probes = [
        (mods["surface"], ["tokenize", "parse_program", "desugar", "compile_program"]),
        (tc, ["type_of"]),
        (sem, ["initial_heap", "step_system", "enabled_choices", "run_program",
               "run_to_quiescence"]),
        (mods["wellformed"], ["wf_heap", "assert_wf"]),
        (exp, ["explore", "canonicalize", "check_all", "check_progress",
               "check_preservation", "check_race_freedom"]),
        (mods["gen"], ["generate_well_typed"]),
    ]
    for mod, names in probes:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(mod, name, None)
            if fn is not None:
                tracer.wrap_everywhere(every, fn, f"{layer}.{name}")
    if hasattr(exp, "state_key"):
        tracer.wrap(exp, "state_key", "explore.state_key", measure=deep_size)
    if hasattr(tc, "check"):
        tracer.wrap_everywhere(every, tc.check, "typecheck.check", skip_home=True)


class _Calculus:
    """What the three calculus workloads share."""

    modules = CALCULUS
    ROUND = 1  # ops per round; runs stop on a round boundary
    THREADED = False  # the speed sampler may run beside the ops

    def instrument(self, tracer: Any, mods: dict[str, Any]) -> None:
        instrument_calculus(tracer, mods)

    def units(self, ops: list[OpResult]) -> float:
        """Per-layer figures are per op."""
        return len(ops)


def _per_unit(stats: dict, name: str, units: float, attr: str = "total") -> float:
    st = stats.get(name)
    return getattr(st, attr) / units if st is not None else 0.0


# --------------------------------------------------------------------------
# explore-contended
# --------------------------------------------------------------------------


class ExploreContended(_Calculus):
    """C client actors each send k ``mutate``s to one bestowed object.

    Two shapes, wide 3x2 and deep 2x4, are explored canonically with explicit
    bounds and then checked for progress, preservation and race freedom.
    One op is one shape's verdict; the ops alternate between the shapes,
    and a round is one op of each.  The seed picks the binder names and the
    order of the shapes, which leave the state graph unchanged up to
    renaming.
    """

    name = "explore-contended"
    ROUND = 2
    # shape -> (clients, sends per client, states, edges) at the seed.
    SHAPES = {"wide": (3, 2, 2039, 6237), "deep": (2, 4, 1409, 3619)}
    TERMINAL_STATES = 1  # every interleaving ends in the same quiescent state
    MAX_DEPTH = 96
    MAX_STATES = 20_000

    def units(self, ops: list[OpResult]) -> float:
        """Per-layer figures are per round."""
        return len(ops) / self.ROUND

    @staticmethod
    def source(clients: int, sends: int, rng: random.Random) -> str:
        tag = rng.randrange(10_000)
        obj, ref, x, y = f"obj{tag}", f"ref{tag}", f"x{tag}", f"y{tag}"
        lines = [f"val {obj} = new p", f"val {ref} = bestow {obj}"]
        lines += [f"val k{i}_{tag} = new c" for i in range(clients)]
        body = "; ".join([f"{ref} ! \\{y}:p. {y}.mutate()"] * sends)
        lines += [f"k{i}_{tag} ! \\{x}:p. {{ {body} }}" for i in range(clients)]
        return ";\n".join(lines)

    def prepare(self, mods: dict[str, Any], seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        heaps = {}
        for shape, (clients, sends, _, _) in self.SHAPES.items():
            expr = mods["surface"].compile_program(self.source(clients, sends, rng))
            mods["typecheck"].type_of(expr)
            heaps[shape] = mods["semantics"].initial_heap(expr)
        order = sorted(heaps)
        rng.shuffle(order)
        return {"heaps": heaps, "order": order, "next": 0}

    def op(self, mods: dict[str, Any], inp: dict[str, Any], tracer: Any) -> OpResult:
        explore = mods["explore"]
        shape = inp["order"][inp["next"] % len(inp["order"])]
        inp["next"] += 1
        if tracer is not None:
            tracer.tag = shape
        res = OpResult(attempted=1, data={"shape": shape})
        _, _, want_states, want_edges = self.SHAPES[shape]
        t0 = perf_counter()
        try:
            space = explore.explore(
                inp["heaps"][shape], max_depth=self.MAX_DEPTH, max_states=self.MAX_STATES
            )
            verdicts = explore.check_all(space)
        except Exception:  # noqa: BLE001 — counted, the run carries on
            res.fail(wrong=False)
            return res
        res.data["verdict"] = perf_counter() - t0
        res.data["states"] = len(space.states)
        res.data["edges"] = len(space.edges)
        terminal = sum(1 for k in space.states if not space.successors(k))
        if (
            space.truncated
            or any(v is not None for v in verdicts.values())
            or (len(space.states), len(space.edges)) != (want_states, want_edges)
            or terminal != self.TERMINAL_STATES
        ):
            res.fail(wrong=True)
        return res

    def end_to_end(self, ops: list[OpResult], inp: dict, typical: Any) -> tuple[dict, dict]:
        """Time to verdict is the sum over the shapes of each one's typical
        time, as ``typical`` takes it from the ops' times."""
        per_shape = {
            shape: typical([o.data["verdict"] for o in ops
                            if o.data["shape"] == shape and "verdict" in o.data])
            for shape in self.SHAPES
        }
        verdict = sum(per_shape.values())
        detail = {"verdict_s": (verdict, "s")}
        for shape, t in per_shape.items():
            detail[f"verdict_{shape}_s"] = (t, "s")
        return {"latency_ms": verdict * 1e3, "throughput_per_s": len(per_shape) / verdict}, detail

    def layers(self, stats: dict, ops: list[OpResult], tracer: Any, mods: dict, inp: dict) -> dict:
        out = calculus_layers(stats, ops, tracer, self.units(ops))
        out["explore.bytes_per_state"] = self.bytes_per_state(mods, inp)
        return out

    def bytes_per_state(self, mods: dict, inp: dict) -> float:
        """Bytes the wide shape's state space holds, per state, measured
        with ``tracemalloc`` outside the timed spans."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = mods["explore"].explore(
                inp["heaps"]["wide"], max_depth=self.MAX_DEPTH, max_states=self.MAX_STATES
            )
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return held / len(space.states)


def calculus_layers(stats: dict, ops: list[OpResult], tracer: Any, n: float) -> dict[str, float]:
    """Layer metrics every calculus workload reports, per ``n`` units of
    work (rounds or programs)."""
    key = stats.get("explore.state_key")
    explore_s = _per_unit(stats, "explore.explore", n)
    states = sum(o.data.get("states", 0) for o in ops) / n
    return {
        "explore.canonicalize_calls": _per_unit(stats, "explore.canonicalize", n, "calls"),
        "explore.canonicalize_s": _per_unit(stats, "explore.canonicalize", n),
        "explore.key_s": _per_unit(stats, "explore.state_key", n, "self"),
        "explore.key_bytes_avg": tracer.sums["explore.state_key"] / key.calls if key else 0.0,
        "explore.states": states,
        "explore.edges": sum(o.data.get("edges", 0) for o in ops) / n,
        "explore.states_per_s": states / explore_s if explore_s else 0.0,
        "explore.check_progress_s": _per_unit(stats, "explore.check_progress", n),
        "explore.check_preservation_s": _per_unit(stats, "explore.check_preservation", n),
        "explore.check_race_s": _per_unit(stats, "explore.check_race_freedom", n),
        "wellformed.wf_calls": _per_unit(stats, "wellformed.wf_heap", n, "calls"),
        "wellformed.wf_s": _per_unit(stats, "wellformed.wf_heap", n),
        "semantics.step_calls": _per_unit(stats, "semantics.step_system", n, "calls"),
        "semantics.step_s": _per_unit(stats, "semantics.step_system", n),
        "semantics.enabled_calls": _per_unit(stats, "semantics.enabled_choices", n, "calls"),
        "semantics.enabled_s": _per_unit(stats, "semantics.enabled_choices", n),
        "gen.generate_s": _per_unit(stats, "gen.generate_well_typed", n),
        "typecheck.type_of_s": _per_unit(stats, "typecheck.type_of", n),
        "surface.tokenize_s": _per_unit(stats, "surface.tokenize", n),
        "surface.parse_s": _per_unit(stats, "surface.parse_program", n),
        "surface.desugar_s": _per_unit(stats, "surface.desugar", n),
    }


# --------------------------------------------------------------------------
# sweep-generated
# --------------------------------------------------------------------------


class SweepGenerated(_Calculus):
    """Seeded well-typed programs, budgets 4..12 in turn, through
    ``type_of``, ``explore`` and ``check_all``.  One op is ``BATCH``
    programs in a row, so the run keeps one record per batch rather than
    per program, and its memory does not grow with the machine's speed."""

    name = "sweep-generated"
    MIN_BUDGET, MAX_BUDGET = 4, 12
    BATCH = 100
    MAX_DEPTH = 64
    MAX_STATES = 50_000

    def prepare(self, mods: dict[str, Any], seed: int) -> dict[str, Any]:
        return {"first": seed * 1_000_003, "next": 0}

    def op(self, mods: dict[str, Any], inp: dict[str, Any], tracer: Any) -> OpResult:
        res = OpResult(data={"states": 0, "edges": 0, "branching": 0})
        times = []
        for _ in range(self.BATCH):
            t0 = perf_counter()
            if self.program(mods, inp, res):
                times.append(perf_counter() - t0)
        res.data["median"] = median(times)
        return res

    def program(self, mods: dict[str, Any], inp: dict[str, Any], res: OpResult) -> bool:
        i = inp["next"]
        inp["next"] += 1
        budget = self.MIN_BUDGET + i % (self.MAX_BUDGET - self.MIN_BUDGET + 1)
        res.attempted += 1
        try:
            program, goal = mods["gen"].generate_well_typed(inp["first"] + i, size_budget=budget)
            typ = mods["typecheck"].type_of(program)
            space = mods["explore"].explore(
                mods["semantics"].initial_heap(program),
                max_depth=self.MAX_DEPTH,
                max_states=self.MAX_STATES,
            )
            verdicts = mods["explore"].check_all(space)
        except Exception:  # noqa: BLE001 — counted, the run carries on
            res.fail(wrong=False)
            return False
        res.data["states"] += len(space.states)
        res.data["edges"] += len(space.edges)
        res.data["branching"] += any(len(space.successors(k)) > 1 for k in space.states)
        if typ != goal or space.truncated or any(v is not None for v in verdicts.values()):
            res.fail(wrong=True)
        return True

    def units(self, ops: list[OpResult]) -> float:
        """Per-layer figures are per program."""
        return len(ops) * self.BATCH

    def end_to_end(self, ops: list[OpResult], inp: dict, typical: Any) -> tuple[dict, dict]:
        """Latency is a batch's median program time; the rate is programs
        over a batch's time."""
        rate = self.BATCH / typical([o.wall for o in ops])
        return (
            {"latency_ms": typical([o.data["median"] for o in ops]) * 1e3,
             "throughput_per_s": rate},
            {"programs_per_s": (rate, "1/s")},
        )

    def layers(self, stats: dict, ops: list[OpResult], tracer: Any, mods: dict, inp: dict) -> dict:
        programs = self.units(ops)
        out = calculus_layers(stats, ops, tracer, programs)
        out["gen.branching_ratio"] = sum(o.data["branching"] for o in ops) / programs
        return out


# --------------------------------------------------------------------------
# frontend-long
# --------------------------------------------------------------------------

# Steps each statement kind takes in ``run_program``, as a non-final
# statement and as the final one.  A ``val`` binding or a sequenced statement
# adds one ``apply`` for its binder; a send to an actor costs send-actor,
# then actor-msg, apply and mutate on the receiver; a send through a
# bestowed reference also applies the forwarding wrapper on the owner.
STEPS = {
    "new p": (2, 1),
    "new c": (2, 1),
    "bestow": (2, 1),
    "send actor": (5, 4),
    "send bestowed": (6, 5),
}
FINAL_TYPE = {"new p": "p", "new c": "c", "bestow": "(B p)", "send actor": "Unit",
              "send bestowed": "Unit"}


def straight_line(n: int, rng: random.Random) -> tuple[str, int, str]:
    """A program of ``n`` statements, with its closed-form step count and
    type."""
    passives: list[str] = []
    refs: list[str] = []
    actors: list[str] = []
    stmts: list[str] = []
    steps = 0
    kind = ""
    for i in range(n):
        final = i == n - 1
        kinds = ["new p", "new c"] + ["bestow"] * bool(passives)
        kinds += ["send actor"] * 2 * bool(actors) + ["send bestowed"] * 2 * bool(refs)
        kind = rng.choice(kinds)
        if kind == "new p":
            expr, pool, stem = "new p", passives, "o"
        elif kind == "new c":
            expr, pool, stem = "new c", actors, "a"
        elif kind == "bestow":
            expr, pool, stem = f"bestow {rng.choice(passives)}", refs, "r"
        else:
            target = rng.choice(actors if kind == "send actor" else refs)
            expr, pool, stem = f"{target} ! \\x:p. x.mutate()", None, ""
        if pool is None or final:
            stmts.append(expr)
        else:
            name = f"{stem}{i}"
            pool.append(name)
            stmts.append(f"val {name} = {expr}")
        steps += STEPS[kind][final]
    return ";\n".join(stmts), steps, FINAL_TYPE[kind]


class FrontendLong(_Calculus):
    """Straight-line surface programs through parse, desugar, ``type_of``
    and ``run_program``.  One op is one round over a ladder of lengths plus
    two depth probes past the length where desugaring runs out of Python
    stack; the probes count as failures while that limit stands."""

    name = "frontend-long"
    modules = CALCULUS + ["syntax"]
    LADDER = (60, 120, 180, 240, 300)
    PROBES = (400, 600)

    def prepare(self, mods: dict[str, Any], seed: int) -> dict[str, Any]:
        rng = random.Random(seed)
        programs = [straight_line(n, rng) + (n, False) for n in self.LADDER]
        programs += [straight_line(n, rng) + (n, True) for n in self.PROBES]
        return {"programs": programs}

    def op(self, mods: dict[str, Any], inp: dict[str, Any], tracer: Any) -> OpResult:
        surface, sem = mods["surface"], mods["semantics"]
        render_type = mods["syntax"].render_type
        res = OpResult(data={"check": 0.0, "run": 0.0, "ladder": 0.0, "statements": 0})
        for src, steps, typ, n, probe in inp["programs"]:
            if tracer is not None:
                tracer.tag = "probe" if probe else "ladder"
            res.attempted += 1
            t0 = perf_counter()
            try:
                expr = surface.desugar(surface.parse_program(src))
                got_type = mods["typecheck"].type_of(expr)
                t1 = perf_counter()
                _, trace = sem.run_program(expr)
            except Exception:  # noqa: BLE001 — RecursionError included
                res.fail(wrong=False)
                continue
            t2 = perf_counter()
            if not probe:
                res.data["check"] += t1 - t0
                res.data["run"] += t2 - t1
                res.data["statements"] += n
                res.data["ladder"] += t2 - t0
            if render_type(got_type) != typ or len(trace) != steps:
                res.fail(wrong=True)
        return res

    def end_to_end(self, ops: list[OpResult], inp: dict, typical: Any) -> tuple[dict, dict]:
        ladder = typical([o.data["ladder"] for o in ops])
        return (
            {"latency_ms": ladder * 1e3, "throughput_per_s": sum(self.LADDER) / ladder},
            {
                "check_s": (typical([o.data["check"] for o in ops]), "s"),
                "run_s": (typical([o.data["run"] for o in ops]), "s"),
            },
        )

    def layers(self, stats: dict, ops: list[OpResult], tracer: Any, mods: dict, inp: dict) -> dict:
        return calculus_layers(stats, ops, tracer, self.units(ops))

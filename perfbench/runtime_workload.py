"""The runtime workload: one bestowed counter driven by several call patterns.

Each op is one round.  The round spawns a fresh owner actor, which bestows
a counter, and drives it as a closed loop: every client waits for its reply
before the next call.  The patterns are a synchronous ``perform``,
pipelined ``perform``s, ``atomic_batch``es of ten from two clients, and two
clients calling synchronous ``perform`` against each other.  The same
patterns then run against a ``LockedRef`` as the foil, and the round ends
with the list iterator's ``atomic-pairs`` mode.  A fresh owner per round and
medians over rounds keep one slow thread start from setting a run's figures.

Every result is checked: each ``perform`` returns the next counter value,
each batch's results are consecutive, the final counter equals the number
of ``perform``s, the lock counts one acquisition per call or batch, and the
list iterator's hops equal ``expected_hops``.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any

from common import Histogram, OpResult, median

MODULES = ["runtime.actors", "runtime.bestowed", "runtime.override",
           "runtime.locks", "runtime.listiter"]


class Counter:
    def __init__(self, start: int) -> None:
        self.n = start

    def inc(self) -> int:
        self.n += 1
        return self.n


class Owner:
    """The actor that owns the counter; built on its own thread."""

    def __init__(self, start: int) -> None:
        self.counter = Counter(start)


def _inc(counter: Counter) -> int:
    return counter.inc()


def _stamped_inc(counter: Counter) -> tuple[float, int]:
    """Stamp the moment the closure starts on the owner's thread."""
    return perf_counter(), counter.inc()


class RuntimeSharedObject:
    name = "runtime-shared-object"
    modules = MODULES
    ROUND = 1
    THREADED = True  # time the reference between rounds, not beside them
    SYNC = 200  # synchronous performs, one client
    PIPELINED = 200  # performs issued before any result is read
    CLIENTS = 2  # nproc on the reference machine
    BATCHES = 10  # per client, each of BATCH performs
    BATCH = 10
    CONTENDED = 100  # synchronous performs per client, clients racing
    ELEMENTS = 100  # list iterator size, drained in atomic pairs
    JOIN_TIMEOUT = 30.0

    def prepare(self, mods: dict[str, Any], seed: int) -> dict[str, Any]:
        """Start and stop one owner, so set-up includes an actor's start."""
        inp = {"start": seed * 1000, "sync": Histogram()}
        owner, ref = self._spawn(mods, inp["start"])
        ref.perform(_inc).result(timeout=self.JOIN_TIMEOUT)
        self._stop(owner)
        return inp

    def _spawn(self, mods: dict, start: int) -> tuple[Any, Any]:
        owner = mods["actors"].spawn(Owner, start)
        ref = owner.perform(lambda a: mods["bestowed"].bestow(a.counter)).result(
            timeout=self.JOIN_TIMEOUT
        )
        return owner, ref

    def _stop(self, owner: Any) -> None:
        owner.stop()
        owner.join(timeout=self.JOIN_TIMEOUT)

    # ------------------------------------------------------------------

    def op(self, mods: dict[str, Any], inp: dict[str, Any], tracer: Any) -> OpResult:
        res = OpResult()
        data = res.data
        start = inp["start"]
        performs = self.SYNC + self.PIPELINED + self._batched() + self._raced()
        owner, ref = self._spawn(mods, start)
        try:
            data["sync"] = self._sync(ref, start, res, tracer, "sync", inp["sync"])
            data["pipelined"] = self._pipelined(ref, res, tracer, "pipelined")
            data["batch"] = self._batches(mods, ref, res, tracer, "batch")
            data["contended"] = self._contended(ref, res, tracer, "contended")
            final = ref.perform(lambda c: c.n).result(timeout=self.JOIN_TIMEOUT)
            res.attempted += 1
            if final != start + performs:
                res.fail(wrong=True)
        finally:
            self._stop(owner)

        locked = mods["locks"].lock_bestow(Counter(start))
        t0 = perf_counter()
        self._sync(locked, start, res, tracer, "locked", None)
        self._pipelined(locked, res, tracer, "locked")
        self._batches(mods, locked, res, tracer, "locked")
        self._contended(locked, res, tracer, "locked")
        data["locked"] = perf_counter() - t0
        data["acquisitions"] = locked.lock.acquisitions
        res.attempted += 1
        if (locked.object.n != start + performs
                or locked.lock.acquisitions != self.SYNC + self.PIPELINED
                + self.CLIENTS * self.BATCHES + self._raced()):
            res.fail(wrong=True)

        self._list_pairs(mods, res, tracer)
        data["phases"] = sum(data[p] for p in ("sync", "pipelined", "batch", "contended", "locked"))
        data["performs"] = performs
        return res

    def _batched(self) -> int:
        return self.CLIENTS * self.BATCHES * self.BATCH

    def _raced(self) -> int:
        return self.CLIENTS * self.CONTENDED

    def _tag(self, tracer: Any, tag: str) -> None:
        if tracer is not None:
            tracer.tag = tag

    def _sync(self, ref: Any, start: int, res: OpResult, tracer: Any, tag: str,
              hist: Histogram | None) -> float:
        """Closed-loop calls from one client; keeps the round's median
        latency and wait, and every latency in ``hist``."""
        self._tag(tracer, tag)
        lat: list[float] = []
        waits: list[float] = []
        expect = start
        t_phase = perf_counter()
        for _ in range(self.SYNC):
            res.attempted += 1
            expect += 1
            t0 = perf_counter()
            try:
                stamp, value = ref.perform(_stamped_inc).result(timeout=self.JOIN_TIMEOUT)
            except Exception:  # noqa: BLE001 — counted, the run carries on
                res.fail(wrong=False)
                continue
            lat.append(perf_counter() - t0)
            waits.append(stamp - t0)
            if value != expect:
                res.fail(wrong=True)
        dt = perf_counter() - t_phase
        res.data[f"{tag}_p50"] = median(lat)
        res.data[f"{tag}_wait_p50"] = median(waits)
        if hist is not None:
            for x in lat:
                hist.add(x)
        return dt

    def _pipelined(self, ref: Any, res: OpResult, tracer: Any, tag: str) -> float:
        self._tag(tracer, tag)
        t0 = perf_counter()
        futures = [ref.perform(_inc) for _ in range(self.PIPELINED)]
        values = []
        for fut in futures:
            res.attempted += 1
            try:
                values.append(fut.result(timeout=self.JOIN_TIMEOUT))
            except Exception:  # noqa: BLE001 — counted, the run carries on
                res.fail(wrong=False)
        dt = perf_counter() - t0
        if values and values != list(range(values[0], values[0] + len(values))):
            res.fail(wrong=True)
        return dt

    def _batches(self, mods: dict, ref: Any, res: OpResult, tracer: Any, tag: str) -> float:
        self._tag(tracer, tag)
        atomic_batch = mods["override"].atomic_batch
        lock = threading.Lock()
        torn = [0]

        def client() -> None:
            for _ in range(self.BATCHES):
                try:
                    batch = atomic_batch(ref)
                    if tracer is None:
                        batch.__enter__()
                    else:
                        with tracer.span("override.begin"):
                            batch.__enter__()
                    try:
                        futures = [ref.perform(_inc) for _ in range(self.BATCH)]
                    finally:
                        if tracer is None:
                            batch.__exit__(None, None, None)
                        else:
                            with tracer.span("override.end"):
                                batch.__exit__(None, None, None)
                    values = [f.result(timeout=self.JOIN_TIMEOUT) for f in futures]
                except Exception:  # noqa: BLE001 — counted, the run carries on
                    with lock:
                        res.attempted += self.BATCH
                        res.fail(wrong=False)
                    continue
                with lock:
                    res.attempted += self.BATCH
                    if values != list(range(values[0], values[0] + self.BATCH)):
                        torn[0] += 1
                        res.fail(wrong=True)

        dt = self._clients(client)
        res.data.setdefault("torn_batches", 0)
        res.data["torn_batches"] += torn[0]
        return dt

    def _contended(self, ref: Any, res: OpResult, tracer: Any, tag: str) -> float:
        self._tag(tracer, tag)
        lock = threading.Lock()

        def client() -> None:
            last = None
            for _ in range(self.CONTENDED):
                try:
                    value = ref.perform(_inc).result(timeout=self.JOIN_TIMEOUT)
                except Exception:  # noqa: BLE001 — counted, the run carries on
                    with lock:
                        res.attempted += 1
                        res.fail(wrong=False)
                    continue
                with lock:
                    res.attempted += 1
                    if last is not None and value <= last:  # the counter only grows
                        res.fail(wrong=True)
                last = value

        return self._clients(client)

    def _clients(self, body: Any) -> float:
        threads = [threading.Thread(target=body, name=f"client-{i}") for i in range(self.CLIENTS)]
        t0 = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(self.JOIN_TIMEOUT)
        return perf_counter() - t0

    def _list_pairs(self, mods: dict, res: OpResult, tracer: Any) -> None:
        self._tag(tracer, "listiter")
        listiter = mods["listiter"]
        res.attempted += 1
        try:
            stats = listiter.run_list_iterator(self.CLIENTS, self.ELEMENTS, "atomic-pairs")
        except Exception:  # noqa: BLE001 — counted, the run carries on
            res.fail(wrong=False)
            return
        res.data["hops"] = stats.hops
        res.data["torn_pairs"] = stats.torn_pairs
        if (
            stats.hops != listiter.expected_hops("atomic-pairs", self.CLIENTS, self.ELEMENTS)
            or stats.torn_pairs
            or sum(stats.client_sums) != stats.expected_sum
            or stats.pairs != self.ELEMENTS // 2
        ):
            res.fail(wrong=True)

    # ------------------------------------------------------------------

    def end_to_end(self, ops: list[OpResult], inp: dict, typical: Any) -> tuple[dict, dict]:
        def rate(key: str, count: int) -> float:
            return count / typical([o.data[key] for o in ops])

        p50 = typical([o.data["sync_p50"] for o in ops])
        pct, p_tail = inp["sync"].tail()
        p_tail = typical([p_tail])
        detail = {
            "sync_p50_us": (p50 * 1e6, "us"),
            f"sync_p{pct:g}_us": (p_tail * 1e6, "us"),
            "sync_samples": (inp["sync"].total, "count"),
            "pipelined_ops_per_s": (rate("pipelined", self.PIPELINED), "1/s"),
            "batch_ops_per_s": (rate("batch", self._batched()), "1/s"),
            "contended_ops_per_s": (rate("contended", self._raced()), "1/s"),
            "locked_ops_per_s": (rate("locked", ops[0].data["performs"]), "1/s"),
        }
        return (
            {"latency_ms": p50 * 1e3, "throughput_per_s": rate("phases", 2 * ops[0].data["performs"])},
            detail,
        )

    def instrument(self, tracer: Any, mods: dict[str, Any]) -> None:
        actors = mods["actors"]
        every = [mods[m.rsplit(".", 1)[1]] for m in MODULES]
        for cls, attr, name in [
            (getattr(actors, "ActorRef", None), "perform", "actors.perform"),
            (getattr(actors, "Future", None), "result", "actors.result"),
            (getattr(actors, "OverrideToken", None), "resume", "actors.resume"),
            (getattr(mods["bestowed"], "BestowedRef", None), "perform", "bestowed.perform"),
            (getattr(mods["locks"], "LockedRef", None), "perform", "locks.perform"),
        ]:
            if cls is not None:
                tracer.wrap(cls, attr, name)
        for mod, name in [(actors, "spawn"), (actors, "override_queue"),
                          (mods["listiter"], "run_list_iterator")]:
            fn = getattr(mod, name, None)
            if fn is not None:
                tracer.wrap_everywhere(every, fn, f"{mod.__name__.rsplit('.', 1)[1]}.{name}")

    def units(self, ops: list[OpResult]) -> float:
        """Per-layer self times are per round."""
        return len(ops)

    def layers(self, stats: dict, ops: list[OpResult], tracer: Any, mods: dict, inp: dict) -> dict:
        bestowed = ("sync", "pipelined", "batch", "contended")
        by_tag = tracer.by_name(tags=bestowed)

        def us(table: dict, name: str) -> float:
            st = table.get(name)
            return median(st.durations) * 1e6 if st else 0.0

        return {
            "actors.post_us": us(by_tag, "actors.perform"),
            "actors.mailbox_wait_us": median([o.data["sync_wait_p50"] for o in ops]) * 1e6,
            "actors.result_wait_us": us(by_tag, "actors.result"),
            "bestowed.perform_us": us(by_tag, "bestowed.perform"),
            "override.begin_us": us(by_tag, "override.begin"),
            "override.end_us": us(by_tag, "override.end"),
            "override.torn_batches": sum(o.data["torn_batches"] for o in ops) / len(ops),
            "locks.acquisitions": median([o.data["acquisitions"] for o in ops]),
            "locks.perform_us": us(stats, "locks.perform"),
            "listiter.hops": median([o.data.get("hops", 0) for o in ops]),
            "listiter.torn_pairs": sum(o.data.get("torn_pairs", 0) for o in ops) / len(ops),
        }

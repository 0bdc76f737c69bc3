"""In-memory span tracer that times calls at the boundaries between modules.

The tracer never edits the program's source.  It swaps a module attribute
(a function, or a method on a class) for a timing wrapper, so every caller
that looks the name up at call time goes through the wrapper.  Because a
``from .x import f`` binds ``f`` in the importing module, the same function
can be wrapped where another module calls it while its own recursive calls
stay untouched.

Each span keeps its parent (the span open on the same thread when it
started), the benchmark's current tag and op number, and its start and end.
A span's self time is its duration minus the time covered by its children.
Spans stay in memory until :meth:`Tracer.write` runs at the end.
"""

from __future__ import annotations

import gzip
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Record layout; a list per span keeps the wrapper cheap.
NAME, TAG, OP, PARENT, THREAD, START, END, CHILD = range(8)


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, span_cap: int) -> None:
        self.spans: list[list[Any]] = []
        self.span_cap = span_cap
        self.tag = ""
        self.op = 0
        self.sums: dict[str, float] = defaultdict(float)
        self._stack = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    @property
    def full(self) -> bool:
        return len(self.spans) >= self.span_cap

    def _open(self, name: str) -> list[Any]:
        stack = getattr(self._stack, "open", None)
        if stack is None:
            stack = self._stack.open = []
        rec = [name, self.tag, self.op, stack[-1] if stack else None,
               threading.get_ident(), perf_counter(), 0.0, 0.0]
        stack.append(rec)
        return rec

    def _close(self, rec: list[Any]) -> None:
        rec[END] = perf_counter()
        self._stack.open.pop()
        parent = rec[PARENT]
        if parent is not None:
            parent[CHILD] += rec[END] - rec[START]
        self.spans.append(rec)

    def span(self, name: str) -> "_Span":
        """A ``with`` block timed as one span (for calls the benchmark
        makes through protocols, such as a context manager's enter/exit)."""
        return _Span(self, name)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Callable[[Any], float] | None = None,
    ) -> bool:
        """Replace ``owner.attr`` by a timing wrapper named ``name``.

        ``measure``, if given, maps each result to a number that is summed
        under ``name``.  Returns False when the attribute does not exist, so
        a probe on a function a later version removed reads as zero.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return False
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if measure is not None:
                tracer.sums[name] += measure(result)
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)
        return True

    def wrap_everywhere(self, modules: list[Any], fn: Any, name: str, *,
                        skip_home: bool = False, **kw: Any) -> None:
        """Wrap every binding of ``fn`` in ``modules``.  ``skip_home`` leaves
        the defining module's own binding alone, for recursive functions."""
        for mod in modules:
            if skip_home and mod.__name__ == fn.__module__:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.wrap(mod, attr, name, **kw)

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # ------------------------------------------------------------------
    # Aggregates

    def by_name(self, tags: tuple[str, ...] | None = None) -> dict[str, "Stat"]:
        """Per span name: calls, inclusive and self seconds, durations."""
        out: dict[str, Stat] = {}
        for s in self.spans:
            if tags is not None and s[TAG] not in tags:
                continue
            st = out.get(s[NAME])
            if st is None:
                st = out[s[NAME]] = Stat()
            d = s[END] - s[START]
            st.calls += 1
            st.total += d
            st.self += d - s[CHILD]
            st.durations.append(d)
        return out

    def write(self, path: Path, t0: float) -> None:
        """Write every span as CSV (times in seconds from ``t0``)."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,op,tag,thread,name,start,end,self\n")
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else ids[id(s[PARENT])]
                out.write(
                    f"{i},{parent},{s[OP]},{s[TAG]},{s[THREAD]},{s[NAME]},"
                    f"{s[START] - t0:.9f},{s[END] - t0:.9f},"
                    f"{s[END] - s[START] - s[CHILD]:.9f}\n"
                )


class Stat:
    __slots__ = ("calls", "total", "self", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.durations: list[float] = []


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.rec = self.tracer._open(self.name)

    def __exit__(self, *exc: object) -> None:
        self.tracer._close(self.rec)

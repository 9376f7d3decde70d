"""Span tracing from the benchmark's side of each layer boundary.

The traced run installs wrappers around the calls the program's layers
make into one another (class attributes patched for the run, restored
afterwards); nothing is added inside ``src/repro``.  Each wrapper opens a
span with a name, start, end, parent and request id, and charges its
duration minus its children's to its layer: that is the layer's self
time.  Counts and per-call durations are kept for every call; span
records are kept for one request in :data:`SAMPLE_EVERY` (and every span
with no request), bounded by :data:`MAX_SPANS`, and written out as JSONL
when the run ends.

A wrapper names the internal method it wraps.  When a later version of
the program renames one, the hook is listed in ``missing`` and its time
falls to the caller's layer instead of failing the run.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .common import pct, run_dir, share

#: Keep span records for request ids divisible by this.
SAMPLE_EVERY = 64
#: Hard cap on retained span records (memory bound of a traced run).
MAX_SPANS = 200_000

_perf = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "items", "durations", "spans")

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.spans: List[Tuple[int, int, str, int, float, float]] = []


def _request_id(args: Tuple[Any, ...]) -> Optional[int]:
    if len(args) < 2:
        return None
    arg = args[1]
    rid = getattr(arg, "query_id", None)
    if rid is None and isinstance(arg, (list, tuple)) and arg:
        rid = getattr(arg[0], "query_id", None)
    return rid


class Tracer:
    """Per-layer self time, counts and sampled spans for one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self.missing: List[str] = []

    # -- per-thread state ------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # -- span primitive ----------------------------------------------------
    def _run(self, key: str, fn: Callable[..., Any], args: Tuple[Any, ...],
             kwargs: Dict[str, Any], rid: Optional[int], keep: bool,
             items: int) -> Any:
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent[2] if parent is not None else 0
        frame = [0.0, next(self._ids), rid]
        stack.append(frame)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            elapsed = end - start
            state.self_s[key] = (state.self_s.get(key, 0.0) + elapsed
                                 - frame[0])
            state.calls[key] = state.calls.get(key, 0) + 1
            if items:
                state.items[key] = state.items.get(key, 0) + items
            if parent is not None:
                parent[0] += elapsed
            if keep:
                state.durations.setdefault(key, []).append(elapsed)
            if rid % SAMPLE_EVERY == 0 and len(state.spans) < MAX_SPANS:
                state.spans.append((frame[1],
                                    parent[1] if parent is not None else 0,
                                    key, rid, start, end))

    def call(self, key: str, fn: Callable[..., Any], *args: Any,
             rid: Optional[int] = None) -> Any:
        """Run ``fn(*args)`` inside a span (benchmark-side boundaries)."""
        return self._run(key, fn, args, {}, rid, False, 0)

    def count(self, key: str, amount: int) -> None:
        """Add ``amount`` to the item count of ``key`` (no span)."""
        state = self._state()
        state.items[key] = state.items.get(key, 0) + amount

    # -- patching ----------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` for the run; :meth:`uninstall` restores it."""
        self._patched.append((owner, attr, getattr(owner, attr),
                              attr in vars(owner)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, key: str, keep: bool = False,
             count_items: bool = False) -> None:
        """Patch ``owner.attr`` with a span wrapper charged to ``key``
        (``"<layer>:<op>"``)."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        run = self._run

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            items = len(args[1]) if count_items and len(args) > 1 else 0
            return run(key, original, args, kwargs, _request_id(args),
                       keep, items)

        self.patch(owner, attr, wrapper)

    def wrap_generator(self, owner: Any, attr: str, key: str) -> None:
        """Patch a generator-returning method so every ``next`` is a span."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = original(*args, **kwargs)
            while True:
                try:
                    item = tracer._run(key, next, (inner,), {}, None, False,
                                       0)
                except StopIteration:
                    return
                yield item

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------
    def _merged(self, field: str) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, value in getattr(state, field).items():
                if isinstance(value, list):
                    out.setdefault(key, []).extend(value)
                else:
                    out[key] = out.get(key, 0) + value
        return out

    def by_layer(self, field: str) -> Dict[str, Any]:
        """``self_s`` or ``calls`` summed per layer (the part of a key
        before ``:``)."""
        out: Dict[str, Any] = {}
        for key, value in self._merged(field).items():
            layer = key.split(":", 1)[0]
            out[layer] = out.get(layer, 0) + value
        return out

    def self_s(self, prefix: str) -> float:
        return sum(v for k, v in self._merged("self_s").items()
                   if k.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(v for k, v in self._merged("calls").items()
                   if k.startswith(prefix))

    def items(self, prefix: str) -> int:
        return sum(v for k, v in self._merged("items").items()
                   if k.startswith(prefix))

    def durations(self, prefix: str) -> List[float]:
        out: List[float] = []
        for key, values in self._merged("durations").items():
            if key.startswith(prefix):
                out.extend(values)
        return out

    def duration_pct_us(self, prefix: str, p: float) -> float:
        return pct(self.durations(prefix), p) * 1e6

    def write_spans(self, path: str) -> int:
        """Write retained spans as JSONL; returns the count written."""
        with self._states_lock:
            spans = [span for state in self._states for span in state.spans]
        spans.sort(key=lambda span: span[4])
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, key, rid, start, end in spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": key,
                    "request": rid, "start": start, "end": end}) + "\n")
        return len(spans)


def layer_table(title: str, self_by_layer: Dict[str, float],
                calls_by_layer: Dict[str, int], wall: float,
                notes: List[str]) -> str:
    """The "what took the time" table: self time per layer, largest first,
    plus the unattributed remainder, summing to the traced wall time."""
    rest = wall - sum(self_by_layer.values())
    lines = [f"### What took the time: {title}", "",
             "| layer | self s | share | calls |",
             "|---|---:|---:|---:|"]
    for layer, seconds in sorted(self_by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {layer} | {seconds:.4f} | {share(seconds, wall):.1%} "
                     f"| {calls_by_layer.get(layer, 0)} |")
    lines.append(f"| (unattributed) | {rest:.4f} | {share(rest, wall):.1%} | |")
    lines.append(f"| **traced wall** | {wall:.4f} | 100.0% | |")
    for note in notes:
        lines += ["", note]
    return "\n".join(lines) + "\n"


def write_report(tracer: Tracer, title: str, wall: float,
                 notes: List[str]) -> Dict[str, float]:
    """Write the spans and the layer table of a traced run under
    ``.bench_run/trace/`` (and print the table); returns the ``trace.*``
    metrics.  ``wall`` is the traced wall time the table adds up to."""
    by_layer = tracer.by_layer("self_s")
    by_layer.pop("bench", None)  # the benchmark's root span: unattributed
    if tracer.missing:
        notes = notes + ["Hooks not found (their time falls to the "
                         "caller): " + ", ".join(tracer.missing)]
    base = os.path.join(run_dir("trace"), title)
    spans = tracer.write_spans(base + ".spans.jsonl")
    table = layer_table(title, by_layer, tracer.by_layer("calls"), wall,
                        notes)
    with open(base + ".layers.md", "w", encoding="utf-8") as handle:
        handle.write(table)
    print(table)
    return {"trace.wall_s": wall,
            "trace.unattributed_s": wall - sum(by_layer.values()),
            "trace.spans_written": float(spans)}

"""Span recorder for the traced benchmark run.

Spans are recorded around the benchmark's calls into each layer of the
program (``src/repro`` is never edited): each span carries its name,
start, end, parent span and run id.  Spans stay in memory and are
written out once, when the run ends.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.

Counts are recorded at the same boundaries (:meth:`Tracer.count`), so
ratios such as passes per candidate are measured where the work
happens.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Mapping, Optional


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        record = {
            "name": name,
            "run": self.run_id,
            "parent": stack[-1] if stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    # -- analysis -------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name (children's cover subtracted)."""
        children: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            start, end = span["start"], span["end"]
            covered = _covered(
                [(max(c["start"], start), min(c["end"], end)) for c in children[span["id"]]]
            )
            totals[span["name"]] += (end - start) - covered
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span["name"]] += 1
        return dict(out)

    def to_dict(self) -> Dict[str, Any]:
        """Every span and count of the run, JSON-ready."""
        return {
            "run": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_seconds": self.self_seconds(),
        }


def maybe_span(tracer: Optional[Tracer], name: str) -> ContextManager:
    """``tracer.span(name)``, or nothing in an untraced run."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def traced(
    tracer: Tracer,
    name: Optional[str],
    fn: Callable,
    count: Optional[Callable[..., Mapping[str, float]]] = None,
) -> Callable:
    """``fn`` inside a span named ``name`` (no span when ``name`` is None);
    ``count(result, *args)`` returns boundary counts to add."""

    def wrapper(*args, **kwargs):
        with maybe_span(tracer if name is not None else None, name):
            result = fn(*args, **kwargs)
        if count is not None:
            for key, value in count(result, *args, **kwargs).items():
                tracer.count(key, value)
        return result

    return wrapper


class TracedProxy:
    """Stand-in for a layer object that spans the listed entry points.

    ``methods`` maps an attribute to its span name (``None``: counts
    only, no span).  Every other attribute -- ``price_batch``,
    ``parallel_safe``, ``state_dict``, counters -- is read from and
    written to the wrapped object, so the program takes the same code
    paths with or without the proxy.  ``call`` spans calls of a callable
    target.
    """

    def __init__(
        self,
        target: Any,
        tracer: Tracer,
        methods: Mapping[str, Optional[str]] = (),
        call: Optional[str] = None,
        counts: Mapping[str, Callable[..., Mapping[str, float]]] = (),
    ):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_methods", dict(methods))
        object.__setattr__(self, "_counts", dict(counts))
        object.__setattr__(
            self, "_call", traced(tracer, call, target) if call else target
        )

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._target, attr)
        if attr not in self._methods:
            return value
        return traced(
            self._tracer, self._methods[attr], value, self._counts.get(attr)
        )

    def __setattr__(self, attr: str, value: Any) -> None:
        setattr(self._target, attr, value)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

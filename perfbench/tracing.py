"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces public callables (module functions, class
methods) with wrappers that record one span per call — name, start,
end, parent span, operation id — and keeps the spans in memory until
the run ends.  A layer's self time is its span's duration minus the
time its child spans cover.  Nothing in the program changes: the
wrappers are installed for the traced pass only and removed after it.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with call wrapping."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: per-call hooks: span name -> callable(result, args) run after
        #: the wrapped call returns (used to capture engines, for example)
        self.on_return: Dict[str, Callable[[Any, tuple], None]] = {}
        self.on_call: Dict[str, Callable[[tuple], None]] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            hook = tracer.on_call.get(name)
            if hook is not None:
                hook(args)
            with tracer.span(name):
                result = original(*args, **kwargs)
            hook = tracer.on_return.get(name)
            if hook is not None:
                hook(result, args)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        """Put every wrapped callable back as it was."""
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def layer_times(self, op: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: total duration, self time and call count."""
        spans = self.spans
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span is not None and span.parent >= 0:
                child_time[span.parent] += span.duration
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0}
        )
        for index, span in enumerate(spans):
            if span is None or (op is not None and span.op != op):
                continue
            entry = totals[span.name]
            entry["total"] += span.duration
            entry["self"] += span.duration - child_time[index]
            entry["calls"] += 1
        return dict(totals)

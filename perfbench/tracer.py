"""Span recorder that wraps functions from outside the program under test.

A traced function becomes a wrapper that records one span per call: its
name, start, end and the span that was open when it was called.  Spans are
kept in memory and summarised per name:

- ``calls``: number of spans;
- ``total_s``: summed span durations, counting only spans that are not
  nested inside another span of the same name;
- ``self_s``: summed span durations minus the durations of their direct
  child spans.

The recorder is single-threaded: the program under test calls the wrapped
functions from one thread.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.names: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for ``fn``.

        ``observe(args, kwargs, result)`` runs after the span has ended, so
        its cost falls outside the span (but inside any enclosing one).
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, name: str, fn, containers, observe=None):
        """Replace every reference to ``fn`` in ``containers`` with one wrapper.

        A container is a module, a class or a dict.  Scanning every module
        of the program catches each namespace that did ``from .x import f``.
        """
        wrapper = self.wrap(name, fn, observe)
        for container in containers:
            entries = container if isinstance(container, dict) else vars(container)
            for key, value in list(entries.items()):
                if value is fn:
                    self._set(container, key, wrapper)
                    self._patches.append((container, key, fn))
        return wrapper

    def uninstall(self) -> None:
        """Put every replaced reference back, newest first."""
        while self._patches:
            container, key, fn = self._patches.pop()
            self._set(container, key, fn)

    @staticmethod
    def _set(container, key, value) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def reset(self) -> None:
        """Drop recorded spans; call only while no traced call is open."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name calls, self_s and total_s over the recorded spans."""
        if self._stack:
            raise RuntimeError("summary inside an open span")
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += end - start
        return stats

"""In-memory spans around the program's public entry points.

The traced run installs wrappers on the functions and methods each
layer exposes (``RStarTree.insert``, ``save_tree``, ``SpatialJoin.run``,
``JoinService.execute`` and so on), records one span per call — name,
start, end, parent span and request id — and restores the originals
when it ends.  Nothing inside the program is changed; a span covers
exactly the call the benchmark can see.

Calls that happen thousands of times per join (the governor's
``check``) are not recorded one by one: their count and busy time are
added to the innermost open span, which keeps the trace small and the
overhead bounded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "ctx", "attrs")

    def __init__(self, sid, name, start, parent, ctx):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ctx = ctx
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def rid(self):
        return self.ctx.get("rid") if self.ctx is not None else None

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                **self.attrs}


class SpanRecorder:
    """Collects spans from every thread; one recorder per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._restore: list = []
        self.enabled = False

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, ctx: dict | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ctx is None:
            ctx = parent.ctx if parent is not None else None
        with self._lock:
            self._next += 1
            span = Span(self._next, name, time.perf_counter(),
                        parent.sid if parent is not None else None, ctx)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, ctx: dict | None = None):
        """A span around a call made from the benchmark's own code."""
        if not self.enabled:
            yield None
            return
        span = self.open(name, ctx)
        try:
            yield span
        finally:
            self.close(span)

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- installing wrappers ----------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, ctx_fn=None,
             after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``ctx_fn(args, kwargs)`` may start a fresh request context for
        the span and its children; ``after(span, args, result)`` may
        annotate the span once the call returned.
        """
        original = owner.__dict__.get(attr)
        target = getattr(owner, attr)
        recorder = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return target(*args, **kwargs)
            ctx = ctx_fn(args, kwargs) if ctx_fn is not None else None
            span = recorder.open(name, ctx)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Add call count and busy seconds of ``owner.attr`` to the
        innermost open span as ``<key>_calls`` / ``<key>_s``."""
        original = owner.__dict__.get(attr)
        target = getattr(owner, attr)
        recorder = self
        calls, busy = key + "_calls", key + "_s"

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return target(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                span = recorder.current()
                if span is not None:
                    attrs = span.attrs
                    attrs[calls] = attrs.get(calls, 0) + 1
                    attrs[busy] = attrs.get(busy, 0.0) + (
                        time.perf_counter() - t0)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)        # was inherited
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, spans: list[Span]) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children run on the parent's thread, nested inside it, so their
        intervals never overlap one another.
        """
        covered: dict[int, float] = {}
        for child in self.spans:
            if child.parent is not None:
                covered[child.parent] = (covered.get(child.parent, 0.0)
                                         + child.seconds)
        return [s.seconds - covered.get(s.sid, 0.0) for s in spans]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

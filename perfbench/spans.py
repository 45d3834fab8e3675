"""Spans around the calls the benchmark makes into ``wcslp``.

The program itself is not edited: a ``Tracer`` replaces module attributes by
timing wrappers and puts the originals back on ``remove``.  Each point is
named by (module, attribute); a point whose attribute does not exist, for
example after a refactor renamed it, is skipped, so its layer metrics are
absent instead of the run failing.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Records (name, start, end, parent) spans in memory.

    ``keep`` maps a span name to a callback ``keep(args, kwargs, result)``
    whose return value is appended to ``kept[name]``, so per-call facts such
    as solver iteration counts are taken where the call happens.
    """

    def __init__(self, keep=None):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.kept: dict[str, list] = defaultdict(list)
        self._keep = dict(keep or {})
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.installed: set[str] = set()     # span names ever wrapped

    def install(self, points) -> None:
        """Wrap ``getattr(module, attr)`` for each (module, attr, span name)."""
        for module, attr, name in points:
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, name))
            self.installed.add(name)
            self._patches.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def span(self, name: str):
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        keep = self._keep.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep is not None:
                self.kept[name].append(keep(args, kwargs, result))
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the spans as tab-separated rows: name, start, end, parent."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer, self._name = tracer, name

    def __enter__(self):
        self._span = self._tracer._open(self._name)
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._span)

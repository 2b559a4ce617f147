"""In-memory span tracer that wraps functions from outside the program.

A span is ``[name, start, end, parent, excluded]``: perf_counter seconds,
the index of the enclosing span (-1 at top level), and the time the bench's
own counting hooks spent while the span was open.  Hook time is excluded
from every enclosing span, so counting never shows up as layer time; the
wrapper's own bookkeeping does, and the bench reports it as the tracing
overhead.  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []      # patch sites the program lacks
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._in_hook = False

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is the module or class where callers look the name up.
        ``name`` is the span name, or a function of (args, kwargs) giving
        it.  ``before(tracer, args, kwargs)`` and ``after(tracer, args,
        kwargs, result)`` are counting hooks whose time is excluded from
        the open spans.
        """
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        fn = vars(owner)[attr]
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self._in_hook:            # a hook's own calls are not spans
                return fn(*args, **kwargs)
            if before is not None:
                self._hook(before, args, kwargs)
            idx = len(spans)
            label = name(args, kwargs) if callable(name) else name
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                self._hook(after, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def _hook(self, hook, *args) -> None:
        t0 = clock()
        self._in_hook = True
        try:
            hook(self, *args)
        finally:
            self._in_hook = False
        dt = clock() - t0
        for i in self._stack:
            self.spans[i][4] += dt

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()

    # -- aggregation -------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start - excl for _, start, end, _, excl in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= dur[i]
        return own

    def totals(self, key_of) -> dict[str, float]:
        """Seconds per key, where ``key_of(span name)`` maps a span to a
        key or None.  A span nested inside another span of the same key is
        not counted again."""
        dur = self.durations()
        keys = [key_of(s[0]) for s in self.spans]
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            key = keys[i]
            if key is None:
                continue
            p = span[3]
            while p >= 0 and keys[p] != key:
                p = self.spans[p][3]
            if p < 0:
                out[key] = out.get(key, 0.0) + dur[i]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        by_name: dict[str, list[float]] = {}
        for span, d, s in zip(self.spans, self.durations(), own):
            agg = by_name.setdefault(span[0], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += d
            agg[2] += s
        path.write_text(json.dumps({
            "spans": [[n, a, b, p] for n, a, b, p, _ in self.spans],
            "by_name": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                        for k, v in sorted(by_name.items())},
            "counts": dict(self.counts),
            "missing_patch_sites": self.missing,
        }))

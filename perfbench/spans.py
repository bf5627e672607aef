"""Spans recorded from outside a program, and the self times derived from them.

A `Tracer` swaps module attributes (the names callers look up, such as
`ticketlab.lottery.train`) for timing wrappers, keeps every span in
memory, and restores the originals afterwards. A span's self time is its
duration minus the durations of its direct children; calls are made from
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

# note(args, kwargs, result) -> extra fields for the span, called after it closes.
Note = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the calling span in Tracer.spans; -1 for a root
    notes: dict = field(default_factory=dict)


def span_name(fn) -> str:
    """`<module>.<function>` after the package prefix, e.g. `nn.train`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self) -> None:
        end = time.perf_counter()
        self.spans[self._stack.pop()].end = end

    @contextmanager
    def span(self, name: str, **notes):
        self._open(name).notes.update(notes)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, note: Optional[Note] = None):
        name = span_name(fn)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if note is not None:
                span.notes.update(note(args, kwargs, result))
            return result

        return timed

    @contextmanager
    def patched(self, targets: Iterable[tuple[object, str]], notes: dict[str, Note]):
        """Wrap each `owner.attr` for the duration of the block, then restore it."""
        mark = len(self._patches)
        try:
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, notes.get(span_name(original))))
            yield
        finally:
            while len(self._patches) > mark:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def totals_by_name(spans: list[Span], own: list[float], indices: Iterable[int]) -> dict[str, float]:
    """Summed self time per span name over the given span indices."""
    totals: dict[str, float] = {}
    for i in indices:
        totals[spans[i].name] = totals.get(spans[i].name, 0.0) + own[i]
    return totals


def to_json(spans: list[Span], own: list[float]) -> list[dict]:
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "self": own[i],
            **{k: v for k, v in s.notes.items() if isinstance(v, (int, float, str))},
        }
        for i, s in enumerate(spans)
    ]

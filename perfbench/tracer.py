"""Spans and counters recorded from outside the netwake package.

A ``Tracer`` replaces a function under the name its caller looks it up
by, for example ``netwake.montecarlo.build_rgg``, for the life of a
``with`` block. Nothing inside the package is edited, and a wrapper only
passes its arguments through, so the random streams are consumed exactly
as without it. Spans stay in memory until the run reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    """One call: layer name, clock readings, the span that caused it and
    the request (replicate or sweep cell) it belongs to."""

    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Patch functions, record spans and counts, restore on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.request = 0
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, span: str | None = None, on_return=None) -> None:
        """Replace ``module.attr``.

        With ``span`` set, each call records a span of that name. After each
        call, ``on_return(tracer, args, result)`` runs outside the span.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                record = Span(span, 0.0, 0.0, self._open[-1] if self._open else None, self.request)
                self._open.append(len(self.spans))
                self.spans.append(record)
                record.start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record.end = time.perf_counter()
                    self._open.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def seconds(self, name: str) -> list[float]:
        """Durations of every span with this name, in call order."""
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children run on the same thread inside the parent, one after the
        other, so their durations never overlap and simply add up.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        return [s.seconds - child_time[i] for i, s in enumerate(self.spans) if s.name == name]

"""In-memory span recording for the traced run.

A span is ``(name, start, end, parent, run)``: ``parent`` indexes the
enclosing span (``-1`` for a root) and ``run`` groups the spans of one
request, pass or detect call. Spans are kept in a list and written out once,
at the end of the run. A layer's self time is its span's duration minus the
time its child spans cover; a root span's self time is the part of the run
no layer claims, reported as ``unattributed``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        parent = recorder.stack[-1] if recorder.stack else -1
        self.index = len(recorder.spans)
        recorder.spans.append([self.name, perf_counter(), 0.0, parent, recorder.run])
        recorder.stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self.recorder
        recorder.spans[self.index][2] = perf_counter()
        recorder.stack.pop()


class SpanRecorder:
    """Collects spans; ``span(name)`` is a context manager around one call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0

    def span(self, name: str) -> _Span:
        """A context manager recording one span named ``name``."""
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (roots keep their own name)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def wall(self) -> float:
        """Summed duration of the root spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def overhead_ratio(self) -> float:
        """Recording cost of this recorder's spans as a share of the traced wall time.

        The cost of one span is measured here, on a probe recorder, so the
        ratio is not swamped by run-to-run noise the way the difference of
        two separately timed runs would be.
        """
        probe = SpanRecorder()
        count = 20_000
        started = perf_counter()
        for _ in range(count):
            with probe.span("probe"):
                pass
        per_span = (perf_counter() - started) / count
        return len(self.spans) * per_span / self.wall()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NO_SPAN = _NoSpan()


class NullRecorder:
    """The untraced stand-in: ``span`` records nothing."""

    def span(self, name: str) -> _NoSpan:
        """A context manager that records nothing."""
        return _NO_SPAN

"""In-memory spans around the benchmark's calls into the aclayers layers.

Every call the benchmark makes into the library goes through `Tracer.call`.
With recording on, each op gets one span and each layer call one child span
(name, start, end, parent, op id); the spans stay in memory until the run
ends. With recording off, the tracer only remembers the layer entered last,
so that a failure can still be attributed to the layer that raised it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.layer = ""
        self._op = -1
        self._op_span: int | None = None

    @contextmanager
    def op(self, op_id: int, name: str):
        """Span around one op; layer calls inside it become its children."""
        self._op = op_id
        self.layer = ""
        if not self.enabled:
            yield
            return
        span = Span(name, time.perf_counter(), 0.0, None, op_id)
        self.spans.append(span)
        self._op_span = len(self.spans) - 1
        try:
            yield
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._op_span = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as the layer call `name`."""
        self.layer = name
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(name, time.perf_counter(), 0.0, self._op_span, self._op)
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations.

    The layer calls of an op run one after another on one thread, so child
    spans never overlap and their durations simply add up.
    """
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out

"""Per-layer tracing for the benchmark's traced run.

Everything here lives in the benchmark, outside the program: spans are
recorded around calls *into* each layer's public functions, and the
array layer is observed through :class:`TimingBackend`, an
:class:`~repro.backend.ArrayBackend` handed to the program through its
public ``backend=`` argument.  Nothing here touches an RNG, so a traced
operation returns results bitwise equal to an untraced one with the same
seed (the runner checks this on every traced operation).

A :class:`Tracer` keeps one record per operation: per span name the
inclusive time, the self time (inclusive minus the time covered by
child spans) and the call count, plus named counters.  Spans nest on a
stack, which is all a single-threaded run needs.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.backend import NumpyBackend

__all__ = ["Tracer", "TimingBackend", "patched"]


class Tracer:
    """In-memory span and counter recorder, one record per operation.

    ``records`` holds one ``(spans, counters)`` pair per closed operation:
    ``spans`` maps a span name to ``[inclusive s, self s, calls]``.
    """

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self._op: Dict[str, List[float]] = {}
        self._counters: Dict[str, float] = {}
        self.records: List[Tuple[Dict[str, List[float]], Dict[str, float]]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            slot = self._op.setdefault(name, [0.0, 0.0, 0])
            slot[0] += elapsed
            slot[1] += elapsed - frame[0]
            slot[2] += 1

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` of the current operation."""
        self._counters[name] = self._counters.get(name, 0) + value

    def end_operation(self) -> None:
        """Close the current operation's record and start a fresh one."""
        self.records.append((self._op, self._counters))
        self._op, self._counters = {}, {}

    def discard_operation(self) -> None:
        """Drop whatever the current operation recorded."""
        self._op, self._counters = {}, {}


class TimingBackend(NumpyBackend):
    """NumPy float64 backend that times and counts the engine's array calls.

    Every override calls the NumPy implementation unchanged, so results
    and RNG consumption are those of the default backend bit for bit.
    ``backend.gap_slots`` counts every gap value drawn and
    ``backend.sample_gaps_calls`` every draw (calls beyond one per batch
    are top-up rounds).
    """

    name = "numpy"

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(dtype=np.float64, accum_dtype=np.float64)
        self.tracer = tracer

    def uniform(self, rng, shape):
        return self.tracer.span("backend.uniform", super().uniform, rng, shape)

    def sample_gaps(self, pitch, shape, rng, out=None):
        self.tracer.count("backend.gap_slots", int(np.prod(shape)))
        self.tracer.count("backend.sample_gaps_calls")
        return self.tracer.span(
            "backend.sample_gaps", super().sample_gaps, pitch, shape, rng, out
        )

    def cumsum(self, a, axis):
        return self.tracer.span("backend.cumsum", super().cumsum, a, axis)

    def clip(self, a, lo, hi):
        return self.tracer.span("backend.clip", super().clip, a, lo, hi)

    def searchsorted(self, a, v, side):
        return self.tracer.span(
            "backend.searchsorted", super().searchsorted, a, v, side
        )

    def take_pairs(self, a, rows, cols):
        return self.tracer.span(
            "backend.take_pairs", super().take_pairs, a, rows, cols
        )

    def prefix_sum(self, values, size=None):
        return self.tracer.span(
            "backend.prefix_sum", super().prefix_sum, values, size
        )

    def __reduce__(self):  # pragma: no cover - traced runs stay in-process
        raise TypeError("TimingBackend records into an in-process tracer")


def _wrap(tracer: Tracer, span_name: str, fn: Callable, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.span(span_name, fn, *args, **kwargs)
        if after is not None:
            # A span of its own keeps counting out of the callers' self time.
            tracer.span("trace.bookkeeping", after, result, *args, **kwargs)
        return result

    return wrapper


@contextmanager
def patched(tracer: Tracer, targets) -> Iterator[None]:
    """Wrap functions in spans for the duration of the block.

    ``targets`` holds ``(owner, attribute, span_name, after)`` tuples:
    ``owner`` is the module or class the caller looks the attribute up
    on, ``after`` an optional ``after(result, *args, **kwargs)`` hook for
    counters.  A classmethod is wrapped inside its descriptor, so it stays
    a classmethod.  Every original is restored on exit,
    in reverse order, even when the block raises.
    """
    saved = []
    try:
        for owner, attribute, span_name, after in targets:
            raw = vars(owner)[attribute]
            saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, span_name, raw.__func__, after))
            else:
                wrapped = _wrap(tracer, span_name, raw, after)
            setattr(owner, attribute, wrapped)
        yield
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)

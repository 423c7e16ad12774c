"""Per-layer attribution for the traced run, recorded from outside.

The traced run wraps the program's public calls (class methods and the
module-level helpers the serving daemon calls) for the duration of one
workload and restores them afterwards.  Each wrapped call is a span of
its layer: the layer's *busy* time is the sum of its span durations,
its *self* time is busy time minus the part covered by nested spans of
other wrapped calls, so the self times of all layers plus the untraced
remainder add up to the timed phase.

Spans are not kept one by one: the hot layer (``resolve_shares``) runs
millions of times per workload, so each thread folds its spans into
per-layer (calls, busy, self) totals as they close.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Tuple

_now = time.perf_counter


class LayerClock:
    """Busy and self time per layer, from nested wrapped calls.

    Every thread keeps its own span stack and totals, so wrapped calls
    from the serving feeder thread and the query thread never share
    mutable state; :meth:`totals` merges them.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._per_thread: List[Dict[str, List[float]]] = []
        self._register = threading.Lock()

    def _state(self) -> Tuple[List[List[float]], Dict[str, List[float]]]:
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack = []
            local.totals = {}
            with self._register:
                self._per_thread.append(local.totals)
            return local.stack, local.totals

    def enter(self) -> None:
        """Open a span on this thread's stack."""
        stack, _totals = self._state()
        # [start, time covered by child spans]
        stack.append([_now(), 0.0])

    def leave(self, layer: str) -> float:
        """Close the innermost span as ``layer``; returns its duration."""
        stack, totals = self._state()
        start, child = stack.pop()
        duration = _now() - start
        if stack:
            stack[-1][1] += duration
        entry = totals.get(layer)
        if entry is None:
            totals[layer] = [1.0, duration, duration - child]
        else:
            entry[0] += 1.0
            entry[1] += duration
            entry[2] += duration - child
        return duration

    def charge(self, layer: str, duration: float) -> None:
        """Record a finished leaf span of ``duration`` under ``layer``."""
        stack, totals = self._state()
        if stack:
            stack[-1][1] += duration
        entry = totals.get(layer)
        if entry is None:
            totals[layer] = [1.0, duration, duration]
        else:
            entry[0] += 1.0
            entry[1] += duration
            entry[2] += duration

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """layer -> (calls, busy seconds, self seconds), all threads."""
        merged: Dict[str, List[float]] = {}
        with self._register:
            sources = list(self._per_thread)
        for source in sources:
            for layer, (calls, busy, self_s) in list(source.items()):
                entry = merged.setdefault(layer, [0.0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += self_s
        return {layer: (int(calls), busy, self_s)
                for layer, (calls, busy, self_s) in merged.items()}

    def busy(self, layer: str) -> float:
        return self.totals().get(layer, (0, 0.0, 0.0))[1]


def timed_call(clock: LayerClock, layer: str,
               function: Callable[..., Any]) -> Callable[..., Any]:
    """``function`` wrapped so each call is a span of ``layer``."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        clock.enter()
        try:
            return function(*args, **kwargs)
        finally:
            clock.leave(layer)

    wrapper.__wrapped__ = function  # type: ignore[attr-defined]
    return wrapper


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> object:
        """Set ``owner.name = value``; returns the previous value."""
        previous = getattr(owner, name)
        self._undo.append((owner, name, previous))
        setattr(owner, name, value)
        return previous

    def wrap(self, owner: object, name: str, clock: LayerClock,
             layer: str) -> None:
        """Time every call of ``owner.name`` as a span of ``layer``."""
        self.replace(owner, name, timed_call(clock, layer,
                                             getattr(owner, name)))

    def undo(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            setattr(owner, name, previous)


def calibrate_span_cost(rounds: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call (median of 5)."""
    clock = LayerClock()

    def noop() -> None:
        return None

    wrapped = timed_call(clock, "calibration", noop)
    samples = []
    for _ in range(5):
        start = _now()
        for _ in range(rounds):
            noop()
        direct = _now() - start
        start = _now()
        for _ in range(rounds):
            wrapped()
        samples.append(max(0.0, (_now() - start - direct) / rounds))
    samples.sort()
    return samples[len(samples) // 2]


def format_table(title: str, rows: List[Tuple[str, int, float, float]],
                 timed_s: float) -> str:
    """Layer table: calls, busy, self, and self as a share of the phase."""
    lines = [title,
             f"  {'layer':<30}{'calls':>11}{'busy s':>11}{'self s':>11}"
             f"{'self %':>9}"]
    for layer, calls, busy, self_s in rows:
        share = 100.0 * self_s / timed_s if timed_s > 0 else 0.0
        lines.append(f"  {layer:<30}{calls:>11d}{busy:>11.3f}"
                     f"{self_s:>11.3f}{share:>8.1f}%")
    return "\n".join(lines)

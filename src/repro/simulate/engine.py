"""Minimal discrete-event simulation engine.

A heap of ``(time, sequence, handle)`` entries drives the simulation.
The sequence number breaks ties between events at one instant: they run
in the order they were scheduled.  Events can be cancelled;
cancellation invalidates the handle, so stale heap entries are skipped
lazily when popped.

A caller can also take an event's sequence number now and push the
event later (:meth:`SimulationEngine.reserve_sequence` and
:meth:`SimulationEngine.schedule_reserved`).  The fluid network uses
this to keep a single wake-up event for its earliest flow completion
while every completion keeps the tie-break it would have had as an
event of its own.  A reserved ``(time, sequence)`` pair must sit in the
heap at most once: to re-arm a cancelled event at the same pair, clear
its ``cancelled`` flag instead of pushing it again, so that the heap
never has to compare two handles.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import SimulationError


class EventHandle:
    """Handle of a scheduled event; keeps enough state to cancel it."""

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Cancel the event (a no-op if it already fired)."""
        self.cancelled = True


class SimulationEngine:
    """Time-ordered execution of callbacks."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    def reserve_sequence(self) -> int:
        """Take the tie-break number of an event to be pushed later."""
        return next(self._sequence)

    def schedule_reserved(
        self, time: float, sequence: int, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Push *callback(*args)* at *time* with a reserved *sequence* number.

        The event runs where an event scheduled at *time* when
        *sequence* was reserved would have run.
        """
        now = self._now
        if time < now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {now}"
            )
        if now > time:
            time = now
        handle = EventHandle(time, callback, args)
        heapq.heappush(self._heap, (time, sequence, handle))
        return handle

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule *callback(*args)* at simulated *time*.

        *time* must not be in the past.  Returns a cancellable handle.
        """
        return self.schedule_reserved(time, next(self._sequence), callback, *args)

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule *callback* after *delay* seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_reserved(
            self._now + delay, next(self._sequence), callback, *args
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none is left."""
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time
            self._processed += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (or *until* / *max_events* is hit)."""
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while heap:
            entry = pop(heap)
            time, _, handle = entry
            if handle.cancelled:
                continue
            if until is not None and time > until:
                heapq.heappush(heap, entry)
                self._now = until
                return
            self._now = time
            self._processed += 1
            handle.callback(*handle.args)
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "this usually indicates a livelock in the model"
                )

"""Minimal discrete-event core for the EXAALT simulator."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["EventLoop"]


class EventLoop:
    """Priority-queue event loop over virtual time."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` virtual seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        heapq.heappush(self._queue, (self.now + delay, next(self._counter), action))

    def run_until(self, t_end: float) -> None:
        """Process events until virtual time ``t_end``."""
        while self._queue and self._queue[0][0] <= t_end:
            t, _, action = heapq.heappop(self._queue)
            self.now = t
            action()
        self.now = max(self.now, t_end)

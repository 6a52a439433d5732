"""Always-on queue accounting.

The :class:`DepthSeries` is the one tally of a queue set: both queue
organisations update it once per push or pop, so current depths, push
counts and peaks are available *without* an attached event subscriber.
The run context's queue picks, the online adapter (Section 7) and the
serving controller read backlog from here rather than probing queue
internals, and the queue set's ``stats()`` (the run's
:class:`~repro.core.queues.QueueStats`) is a view of it; the full
``(time, depth)`` series is derived from the
:class:`~repro.obs.events.QueuePush` / :class:`~repro.obs.events.QueuePop`
event stream when an observer is attached (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

from typing import Iterable


class DepthSeries:
    """Per stage: queued items now, items pushed so far, peak depth."""

    __slots__ = ("current", "pushed", "peak")

    def __init__(self, stages: Iterable[str]) -> None:
        self.current: dict[str, int] = {name: 0 for name in stages}
        self.pushed: dict[str, int] = dict.fromkeys(self.current, 0)
        self.peak: dict[str, int] = dict.fromkeys(self.current, 0)

    def push(self, stage: str, n: int) -> int:
        """Account ``n`` items entering ``stage``; returns the new depth.
        Pushes only grow a queue, so the peak is checked once per batch."""
        depth = self.current[stage] + n
        self.current[stage] = depth
        self.pushed[stage] += n
        if depth > self.peak[stage]:
            self.peak[stage] = depth
        return depth

    def pop(self, stage: str, n: int) -> int:
        """Account ``n`` items leaving ``stage``; returns the new depth."""
        depth = self.current[stage] - n
        self.current[stage] = depth
        return depth

    def total(self, stages: Iterable[str]) -> int:
        current = self.current
        return sum(current[s] for s in stages)

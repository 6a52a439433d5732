"""Always-on queue-depth accounting.

The :class:`DepthSeries` is the canonical backlog ledger of a queue set:
both queue organisations update it on every push/pop, so current depths
are available *without* an attached event subscriber.  The run
context's queue picks, the online adapter (Section 7) and the serving
controller read backlog from here rather than probing queue internals;
the full ``(time, depth)`` series is derived from the
:class:`~repro.obs.events.QueuePush` / :class:`~repro.obs.events.QueuePop`
event stream when an observer is attached (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

from typing import Iterable


class DepthSeries:
    """Current queued-item counts per stage."""

    __slots__ = ("current",)

    def __init__(self, stages: Iterable[str]) -> None:
        self.current: dict[str, int] = {name: 0 for name in stages}

    def push(self, stage: str, n: int = 1) -> int:
        """Account ``n`` items entering ``stage``; returns the new depth."""
        depth = self.current[stage] + n
        self.current[stage] = depth
        return depth

    def pop(self, stage: str, n: int) -> int:
        """Account ``n`` items leaving ``stage``; returns the new depth."""
        depth = self.current[stage] - n
        self.current[stage] = depth
        return depth

    def total(self, stages: Iterable[str]) -> int:
        current = self.current
        return sum(current[s] for s in stages)

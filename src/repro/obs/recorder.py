"""Event recorder: collects a run's event stream and serialises it.

The recorder is the standard :class:`~repro.obs.events.EventBus`
subscriber.  It keeps events in emission order and offers a *canonical*
serialisation in which the process-global block / launch / stream ids
are renumbered densely by first appearance — two identical runs then
produce **byte-identical** streams even though the global id counters
kept running between them (the determinism test relies on this).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Type

#: Field names holding process-global ids that must be normalised.
_ID_FIELDS = ("block_id", "launch_id", "stream_id")


class EventRecorder:
    """Appends every event to an in-order list."""

    def __init__(self) -> None:
        self.events: list = []

    def __call__(self, event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, event_type: Type) -> list:
        return [e for e in self.events if isinstance(e, event_type)]

    # ------------------------------------------------------------------
    # Canonical serialisation.
    # ------------------------------------------------------------------
    def canonical_rows(self) -> list[tuple]:
        """Field tuples (kind first) with global ids renumbered by first
        appearance."""
        remap: dict[str, dict[int, int]] = {name: {} for name in _ID_FIELDS}
        rows: list[tuple] = []
        for event in self.events:
            row = [event.kind]
            for f in fields(event):
                value = getattr(event, f.name)
                if f.name in remap:
                    ids = remap[f.name]
                    value = ids.setdefault(value, len(ids))
                row.append(value)
            rows.append(tuple(row))
        return rows

    def canonical_lines(self) -> list[str]:
        """One tab-separated text line per event, ids normalised.

        Floats are rendered with :func:`repr` so equal values always
        serialise identically; the determinism test compares the joined
        lines of two runs byte for byte.
        """
        lines = []
        for row in self.canonical_rows():
            lines.append(
                "\t".join(
                    repr(v) if isinstance(v, float) else str(v) for v in row
                )
            )
        return lines

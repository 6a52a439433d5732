"""Text Gantt chart of per-SM compute activity.

Every SM emits a :class:`~repro.obs.events.ComputeSegment` for each
completed compute interval of a block that took simulated time, so an
attached :class:`~repro.obs.Observer` records the run's SM activity as
``(sm_id, kernel, start, end, work)`` events.  :func:`render_timeline`
turns those events into a terminal Gantt chart — one row per SM, one
column per time bucket, showing which kernel dominated each bucket::

    observer = Observer().attach(device)
    model.run(pipeline, device, executor, items)
    segments = observer.recorder.of_type(ComputeSegment)
    print(render_timeline(segments, device.spec.num_sms))

This is how the examples visualise the difference between, say, a
megakernel (every SM runs the same fused kernel) and a coarse pipeline
(SMs partitioned per stage).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..obs.events import ComputeSegment

#: Symbols assigned to kernels in the timeline, in appearance order.
_GLYPHS = "#*+o@%=&$~^!123456789"


def render_timeline(
    segments: Sequence[ComputeSegment],
    num_sms: int,
    width: int = 72,
    clock_ghz: Optional[float] = None,
) -> str:
    """A text Gantt chart: rows are SMs, columns are time buckets.

    ``segments`` are a run's compute segments in emission order.  Each
    bucket shows the glyph of the kernel with the most busy time in it,
    ``.`` for idle.  A legend maps glyphs to kernel names in order of
    first appearance.
    """
    start = min((s.start for s in segments), default=0.0)
    end = max((s.end for s in segments), default=0.0)
    if end <= start:
        return "(no activity recorded)"
    bucket = (end - start) / width
    glyph_of: dict[str, str] = {}
    for segment in segments:
        if segment.kernel not in glyph_of:
            glyph_of[segment.kernel] = _GLYPHS[len(glyph_of) % len(_GLYPHS)]
    # busy[sm][column][kernel] -> cycles
    busy: list[list[dict[str, float]]] = [
        [dict() for _ in range(width)] for _ in range(num_sms)
    ]
    for segment in segments:
        # Clamp both ends: a segment starting exactly at the span end
        # (or fed in from outside the recorded span) must not index past
        # the last column.
        first = max(0, min(width - 1, int((segment.start - start) / bucket)))
        last = min(width - 1, int((segment.end - start) / bucket))
        for column in range(first, last + 1):
            b0 = start + column * bucket
            b1 = b0 + bucket
            overlap = min(segment.end, b1) - max(segment.start, b0)
            if overlap > 0:
                cell = busy[segment.sm_id][column]
                cell[segment.kernel] = cell.get(segment.kernel, 0.0) + overlap

    lines = []
    for sm_id in range(num_sms):
        row = []
        for column in range(width):
            cell = busy[sm_id][column]
            if not cell:
                row.append(".")
            else:
                top = max(cell, key=lambda k: cell[k])
                row.append(glyph_of[top])
        lines.append(f"SM{sm_id:02d} |{''.join(row)}|")

    if clock_ghz is not None:
        total_us = (end - start) / (clock_ghz * 1000.0)
        lines.append(f"      0 {'-' * (width - 10)} {total_us:.0f} us")
    legend = "  ".join(
        f"{glyph}={kernel}" for kernel, glyph in glyph_of.items()
    )
    lines.append(f"legend: {legend}  .=idle")
    return "\n".join(lines)

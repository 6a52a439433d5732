"""Exporters: Chrome/Perfetto ``trace.json`` and plain JSON.

The Chrome trace maps the simulator onto Perfetto's process/thread
model the way the acceptance tooling expects:

* **pid = SM id** — one "process" per streaming multiprocessor, so the
  UI groups all activity of one SM together;
* **tid = block id** (normalised by first appearance) — one "thread"
  per thread block, carrying its residency span and every compute
  segment as nested slices;
* **queue-depth counter tracks** — one ``ph: "C"`` counter per stage
  queue on a dedicated ``queues`` process, so backlog is plotted as a
  filled series alongside the slices;
* host-side work (launches, syncs, memcpys, adaptation decisions) lives
  on a dedicated ``host`` process.

Timestamps convert to microseconds (Chrome's ``ts`` unit) using the
device spec's clock.  Open the file at https://ui.perfetto.dev or
``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Sequence

#: Synthetic pids for the non-SM tracks (far above any real SM count).
QUEUES_PID = 10_000
HOST_PID = 10_001
REQUESTS_PID = 10_002

#: Category of the request flow events (``ph: s/t/f``): each request's
#: stage visits are chained by one flow whose id is the request id, so
#: Perfetto draws arrows following the request across queue hops.
REQUEST_FLOW_CAT = "request"


def chrome_trace(
    events: Sequence,
    spec,
    label: str = "",
) -> dict:
    """Build a Chrome-trace dict (``json.dump``-ready) from events."""
    to_us = spec.cycles_to_us
    trace_events: list[dict] = []
    seen_sms: set[int] = set()
    block_tids: dict[int, int] = {}
    launch_ids: dict[int, int] = {}
    #: Open residency spans: block_id -> (sm_id, kernel, start).
    resident: dict[int, tuple[int, str, float]] = {}
    #: Request ids with at least one emitted span (flow-start bookkeeping).
    request_flows: set[int] = set()
    seen_requests = False

    def tid_of(block_id: int) -> int:
        return block_tids.setdefault(block_id, len(block_tids))

    def close_residency(block_id: int, end: float) -> None:
        sm_id, kernel, start = resident.pop(block_id)
        trace_events.append(
            {
                "name": f"block:{kernel}",
                "cat": "residency",
                "ph": "X",
                "ts": to_us(start),
                "dur": to_us(end - start),
                "pid": sm_id,
                "tid": tid_of(block_id),
            }
        )

    max_t = 0.0
    for event in events:
        kind = event.kind
        if event.t > max_t:
            max_t = event.t
        if kind == "compute":
            seen_sms.add(event.sm_id)
            trace_events.append(
                {
                    "name": event.kernel,
                    "cat": "compute",
                    "ph": "X",
                    "ts": to_us(event.start),
                    "dur": to_us(event.t - event.start),
                    "pid": event.sm_id,
                    "tid": tid_of(event.block_id),
                    "args": {"work": event.work},
                }
            )
        elif kind == "block_admit":
            seen_sms.add(event.sm_id)
            resident[event.block_id] = (event.sm_id, event.kernel, event.t)
        elif kind == "block_exit":
            if event.block_id in resident:
                close_residency(event.block_id, event.t)
        elif kind == "queue_push" or kind == "queue_pop":
            trace_events.append(
                {
                    "name": f"queue:{event.stage}",
                    "cat": "queue",
                    "ph": "C",
                    "ts": to_us(event.t),
                    "pid": QUEUES_PID,
                    "args": {"depth": event.depth},
                }
            )
        elif kind == "kernel_launch":
            launch_ids[event.launch_id] = len(launch_ids)
            trace_events.append(
                {
                    "name": f"launch:{event.kernel}",
                    "cat": "host",
                    "ph": "i",
                    "s": "p",
                    "ts": to_us(event.t),
                    "pid": HOST_PID,
                    "tid": 0,
                    "args": {
                        "launch": launch_ids[event.launch_id],
                        "blocks": event.num_blocks,
                    },
                }
            )
        elif kind == "kernel_retire":
            trace_events.append(
                {
                    "name": f"retire:{event.kernel}",
                    "cat": "host",
                    "ph": "i",
                    "s": "p",
                    "ts": to_us(event.t),
                    "pid": HOST_PID,
                    "tid": 0,
                    "args": {
                        "launch": launch_ids.get(event.launch_id, -1)
                    },
                }
            )
        elif kind == "host_sync":
            trace_events.append(
                {
                    "name": f"sync:{event.source}",
                    "cat": "host",
                    "ph": "X",
                    "ts": to_us(event.t),
                    "dur": to_us(event.cycles),
                    "pid": HOST_PID,
                    "tid": 1,
                }
            )
        elif kind == "memcpy":
            trace_events.append(
                {
                    "name": f"memcpy:{event.direction}",
                    "cat": "host",
                    "ph": "X",
                    "ts": to_us(event.t),
                    "dur": to_us(event.cycles),
                    "pid": HOST_PID,
                    "tid": 2,
                    "args": {"bytes": event.num_bytes},
                }
            )
        elif kind == "req_arrive":
            seen_requests = True
            trace_events.append(
                {
                    "name": f"arrive:{event.stage}",
                    "cat": "request",
                    "ph": "i",
                    "s": "t",
                    "ts": to_us(event.t),
                    "pid": REQUESTS_PID,
                    "tid": event.rid,
                }
            )
        elif kind == "req_span":
            # One slice per stage visit on the request's own track, plus
            # a flow event chaining consecutive visits: "s" opens the
            # flow on the request's first visit, "t" continues it on
            # every later one.  The visit's queue wait is carried in
            # args so Perfetto shows the wait/service split.
            seen_requests = True
            ts = to_us(event.dequeue_t)
            trace_events.append(
                {
                    "name": event.stage,
                    "cat": "request",
                    "ph": "X",
                    "ts": ts,
                    "dur": to_us(event.t - event.dequeue_t),
                    "pid": REQUESTS_PID,
                    "tid": event.rid,
                    "args": {
                        "request": event.rid,
                        "queue_wait_us": to_us(
                            event.dequeue_t - event.enqueue_t
                        ),
                    },
                }
            )
            first = event.rid not in request_flows
            request_flows.add(event.rid)
            trace_events.append(
                {
                    "name": f"req:{event.rid}",
                    "cat": REQUEST_FLOW_CAT,
                    "ph": "s" if first else "t",
                    "id": event.rid,
                    "ts": ts,
                    "pid": REQUESTS_PID,
                    "tid": event.rid,
                }
            )
        elif kind == "req_done":
            seen_requests = True
            trace_events.append(
                {
                    "name": f"req:{event.rid}",
                    "cat": REQUEST_FLOW_CAT,
                    "ph": "f",
                    "bp": "e",
                    "id": event.rid,
                    "ts": to_us(event.t),
                    "pid": REQUESTS_PID,
                    "tid": event.rid,
                }
            )
        elif kind == "req_shed":
            seen_requests = True
            trace_events.append(
                {
                    "name": f"shed:{event.stage}",
                    "cat": "request",
                    "ph": "i",
                    "s": "t",
                    "ts": to_us(event.t),
                    "pid": REQUESTS_PID,
                    "tid": event.rid,
                }
            )
        elif kind == "adaptation":
            trace_events.append(
                {
                    "name": "online-adaptation",
                    "cat": "host",
                    "ph": "i",
                    "s": "g",
                    "ts": to_us(event.t),
                    "pid": HOST_PID,
                    "tid": 0,
                    "args": {
                        "freed_sms": list(event.freed_sms),
                        "stages": list(event.stages),
                        "backlog": event.backlog,
                    },
                }
            )

    # Close residency spans still open when the stream ended.
    for block_id in list(resident):
        close_residency(block_id, max_t)

    metadata: list[dict] = []
    for sm_id in sorted(seen_sms):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": sm_id,
                "args": {"name": f"SM{sm_id}"},
            }
        )
        metadata.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": sm_id,
                "args": {"sort_index": sm_id},
            }
        )
    metadata.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": QUEUES_PID,
            "args": {"name": "queues"},
        }
    )
    metadata.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": HOST_PID,
            "args": {"name": "host"},
        }
    )
    if seen_requests:
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": REQUESTS_PID,
                "args": {"name": "requests"},
            }
        )

    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "device": spec.name,
            "clock_ghz": spec.clock_ghz,
        },
    }


def write_chrome_trace(
    path: str, events: Sequence, spec, label: str = ""
) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(events, spec, label=label), handle)


def write_report_json(path: str, report) -> None:
    """Serialise a :class:`~repro.obs.report.RunReport` (or a mapping of
    them, already ``to_dict``-ed) to ``path``."""
    payload = report.to_dict() if hasattr(report, "to_dict") else report
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

"""Section 8.5 extension: queue organisations on the queue-heaviest app.

The paper identifies queue overhead as VersaPipe's main residual cost —
most visibly on Reyes, whose 272-byte items make every queue operation
expensive — and suggests distributed queues as the remedy.  This benchmark
compares the shared single-queue-per-stage organisation against per-SM
shards with work stealing, under the megakernel model (whose every task
touches a queue).  Each parameter set is recorded once and every run
replays that recording, outputs checked.
"""

from repro.core.models import MegakernelModel
from repro.gpu import K20C
from repro.harness.runner import run_cell
from repro.harness.tracecache import TraceCache
from repro.workloads import reyes
from repro.workloads.registry import get_workload


def compare():
    spec = get_workload("reyes")
    params = reyes.ReyesParams()
    cache = TraceCache()
    return {
        mode: run_cell(
            spec, MegakernelModel(queue_mode=mode), K20C, params, cache=cache
        ).result
        for mode in ("shared", "distributed")
    }


def test_queue_scheme_ablation(benchmark):
    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    print("\n=== Queue organisations on Reyes (megakernel, K20c) ===")
    for mode, result in results.items():
        moved = sum(q.bytes_moved for q in result.queue_stats.values())
        print(
            f"  {mode:12s}: {result.time_ms:8.3f} ms, "
            f"{moved / 1024:.0f} KiB through queues"
        )

    shared = results["shared"]
    distributed = results["distributed"]
    # Identical work either way.
    assert len(shared.outputs) == len(distributed.outputs)
    # Distributed shards remove cross-SM contention on pushes/pops; with
    # steals priced in, the end-to-end time must not regress materially
    # and typically improves on the 272-byte-item workload.
    assert distributed.time_ms <= shared.time_ms * 1.05


def compare_item_sizes():
    """Section 8.5's other remedy: shrink the queued item itself."""
    spec = get_workload("reyes")
    results = {}
    for compact in (False, True):
        params = reyes.ReyesParams(compact_items=compact)
        cell = run_cell(
            spec, MegakernelModel(), K20C, params, cache=TraceCache()
        )
        results["48B handle" if compact else "272B patch"] = cell.result
    return results


def test_item_size_ablation(benchmark):
    results = benchmark.pedantic(compare_item_sizes, rounds=1, iterations=1)
    print("\n=== Queue item size on Reyes (megakernel, K20c) ===")
    for label, result in results.items():
        moved = sum(q.bytes_moved for q in result.queue_stats.values())
        print(
            f"  {label:12s}: {result.time_ms:8.3f} ms, "
            f"{moved / 1024:.0f} KiB through queues"
        )
    full = results["272B patch"]
    compact = results["48B handle"]
    moved_full = sum(q.bytes_moved for q in full.queue_stats.values())
    moved_compact = sum(
        q.bytes_moved for q in compact.queue_stats.values()
    )
    assert moved_compact < moved_full / 4
    assert compact.time_ms < full.time_ms

"""Section 8.4: Dynamic Parallelism vs VersaPipe on Reyes.

The paper measures DP at 110.6 ms on K20c vs 7.7 ms for VersaPipe — "over
10 times longer ... due to the large launching overhead of DP".  We run
the same comparison: every emitted patch/grid spawns a device-side child
kernel.  VersaPipe is the Table 2 column (:func:`~repro.harness.runner
.run_versapipe`); both runs replay one recording and check its outputs.
"""

from repro.core.models import DynamicParallelismModel
from repro.gpu import K20C
from repro.harness.runner import run_cell, run_versapipe
from repro.harness.tracecache import TraceCache
from repro.workloads import reyes
from repro.workloads.registry import get_workload


def compare():
    spec = get_workload("reyes")
    params = reyes.ReyesParams()
    cache = TraceCache()
    dp = run_cell(spec, DynamicParallelismModel(), K20C, params, cache=cache)
    vp = run_versapipe(spec, K20C, params, cache=cache)
    return dp.result, vp.result


def test_dynamic_parallelism_reyes(benchmark):
    dp, vp = benchmark.pedantic(compare, rounds=1, iterations=1)
    slowdown = dp.time_ms / vp.time_ms
    print("\n=== Section 8.4: Dynamic Parallelism on Reyes (K20c) ===")
    print(f"  Dynamic Parallelism: {dp.time_ms:9.2f} ms "
          f"({dp.extras['child_launches']} child launches, "
          f"max depth {dp.extras['max_depth']})")
    print(f"  VersaPipe:           {vp.time_ms:9.2f} ms")
    print(f"  slowdown: {slowdown:.1f}x   (paper: 110.6 ms vs 7.7 ms, >10x)")

    # The paper's claim: DP is over an order of magnitude slower.
    assert slowdown > 10.0
    # And the mechanism: one child launch per dynamically created item.
    total_tasks = sum(s.tasks for s in dp.stage_stats.values())
    initial = len(reyes.base_patches(reyes.ReyesParams()))
    assert dp.extras["child_launches"] == total_tasks - initial

"""Ablations of the design choices DESIGN.md calls out.

1. Data-item granularity (Section 6): the paper notes that for CFD,
   "combining 1024 elements into one composite data item yields much
   better performance than using a single data item" — we sweep chunk
   sizes and check queue traffic falls and time improves with batching.
2. Task-scheduler policy (Section 5): deepest-first vs round-robin vs
   FIFO on the recursive Reyes pipeline — deepest-first bounds queue
   growth.
3. Online adaptation (Section 7): refilling freed SMs from backlogged
   groups must never hurt, and helps stage-imbalanced coarse plans.
"""

from repro.core.config import GroupConfig, PipelineConfig
from repro.core.executor import FunctionalExecutor
from repro.core.models import HybridModel, MegakernelModel
from repro.gpu import GPUDevice, K20C
from repro.workloads import cfd, reyes
from repro.workloads.registry import get_workload


def test_ablation_item_granularity(benchmark):
    """CFD with composite items vs fine-grained items (Section 6)."""
    spec = get_workload("cfd")

    def sweep():
        results = {}
        # Same total cells (4096), different item granularities.
        for chunk_cells, chunks in ((128, 32), (512, 8), (1024, 4)):
            params = cfd.CFDParams(
                num_chunks=chunks,
                chunk_cells=chunk_cells,
                outer_iterations=20,
            )
            pipe = spec.build_pipeline(params)
            device = GPUDevice(K20C)
            result = MegakernelModel().run(
                pipe,
                device,
                FunctionalExecutor(pipe),
                spec.initial_items(params),
            )
            queue_ops = sum(
                q.enqueued for q in result.queue_stats.values()
            )
            results[chunk_cells] = (result.time_ms, queue_ops)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n=== Ablation: CFD data-item granularity (4096 cells total) ===")
    for chunk_cells, (time_ms, ops) in sorted(results.items()):
        print(f"  {chunk_cells:5d} cells/item: {time_ms:8.3f} ms, "
              f"{ops} queue ops")
    # Bigger composite items -> fewer queue operations (paper's point).
    ops_by_size = [results[c][1] for c in (128, 512, 1024)]
    assert ops_by_size[0] > ops_by_size[1] > ops_by_size[2]


def test_ablation_scheduler_policy(benchmark):
    """Queue-drain policies on the recursive Reyes pipeline."""
    spec = get_workload("reyes")
    params = reyes.ReyesParams(num_base_patches=16, split_threshold=48.0)

    def sweep():
        results = {}
        for policy in ("deepest_first", "fifo", "round_robin"):
            pipe = spec.build_pipeline(params)
            device = GPUDevice(K20C)
            result = MegakernelModel(policy=policy).run(
                pipe,
                device,
                FunctionalExecutor(pipe),
                spec.initial_items(params),
            )
            peak = max(q.peak_length for q in result.queue_stats.values())
            results[policy] = (result.time_ms, peak)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n=== Ablation: task-scheduler policy (Reyes megakernel) ===")
    for policy, (time_ms, peak) in results.items():
        print(f"  {policy:14s}: {time_ms:8.3f} ms, peak queue {peak}")
    # All policies must complete with identical work; times stay within 2x.
    times = [t for t, _ in results.values()]
    assert max(times) < 2.0 * min(times)
    # Deepest-first bounds queue growth at least as well as FIFO.
    assert results["deepest_first"][1] <= results["fifo"][1] * 1.5


def test_ablation_online_adaptation(benchmark):
    """A stage-imbalanced coarse plan: adaptation refills the SMs of the
    early stage once it drains."""
    spec = get_workload("reyes")
    params = reyes.ReyesParams(num_base_patches=16, split_threshold=48.0)

    def plan(adapt):
        return PipelineConfig(
            groups=(
                GroupConfig(
                    stages=("split",),
                    model="megakernel",
                    sm_ids=tuple(range(0, 6)),
                ),
                GroupConfig(
                    stages=("dice",),
                    model="megakernel",
                    sm_ids=tuple(range(6, 11)),
                ),
                GroupConfig(
                    stages=("shade",),
                    model="megakernel",
                    sm_ids=tuple(range(11, 13)),
                ),
            ),
            online_adaptation=adapt,
        )

    def run(adapt):
        pipe = spec.build_pipeline(params)
        device = GPUDevice(K20C)
        result = HybridModel(plan(adapt)).run(
            pipe, device, FunctionalExecutor(pipe), spec.initial_items(params)
        )
        spec.check_outputs(params, result.outputs)
        return result

    def sweep():
        return run(False), run(True)

    static, adaptive = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n=== Ablation: online adaptation (imbalanced coarse Reyes) ===")
    print(f"  static   : {static.time_ms:8.3f} ms")
    print(
        f"  adaptive : {adaptive.time_ms:8.3f} ms "
        f"({adaptive.extras.get('online_adaptations', 0)} adaptations)"
    )
    assert adaptive.extras.get("online_adaptations", 0) >= 1
    # Adaptation must help (or at worst be neutral) on this plan.
    assert adaptive.time_ms <= static.time_ms * 1.02

"""Auto-tuner evaluation (Section 7).

Not a paper table per se, but the paper's core deliverable: "VersaPipe
will automatically assemble the stages into a hybrid execution model and
configure it to achieve the best performance."  We verify the offline
tuner, run on the Reyes and LDPC pipelines, finds a plan at least as fast
as both the single-model alternatives and the hand-written
(paper-described) configuration; that its canonical report does not
depend on the worker count or the search cache; and that the dominance
bound holds on every candidate of the paper-scale search spaces.
"""

import json
import math
import os

import pytest

from repro.core.models import HybridModel, MegakernelModel
from repro.core.tuner.offline import OfflineTuner, TunerOptions, _replay_config
from repro.core.tuner.profiler import profile_pipeline
from repro.core.tuner.space import throughput_bound_cycles
from repro.gpu import K20C
from repro.harness.runner import run_cell, tune_workload
from repro.harness.tracecache import TraceCache
from repro.workloads import ldpc, reyes
from repro.workloads.registry import get_workload

#: Machine-readable tuner results, written at the repo root; CI requires
#: them to equal the committed baseline.
_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_tuner.json",
)

#: The Figure-11 search spaces the parallel benchmark sweeps.
_SEARCH_CASES = [
    ("reyes", reyes.ReyesParams(num_base_patches=16, split_threshold=48.0)),
    ("ldpc", ldpc.LDPCParams(num_frames=12, iterations=8)),
]

_SEARCH_OPTS = dict(max_configs=80, include_kbk_groups=False)


def tune_and_compare(name, params):
    """Tune on the workload's one recording, then replay it (outputs
    checked) under the tuned plan, the megakernel and the described plan."""
    spec = get_workload(name)
    cache = TraceCache()
    report = tune_workload(
        name,
        K20C,
        params,
        options=TunerOptions(max_configs=80, include_kbk_groups=False),
        cache=cache,
    ).report

    def run(model):
        return run_cell(spec, model, K20C, params, cache=cache).time_ms

    tuned_ms = run(HybridModel(report.best_config))
    mega_ms = run(MegakernelModel())
    paper_cfg_ms = run(
        HybridModel(
            spec.versapipe_config(spec.build_pipeline(params), K20C, params)
        )
    )
    return report, tuned_ms, mega_ms, paper_cfg_ms


@pytest.mark.parametrize(
    "name,params",
    [
        (
            "reyes",
            reyes.ReyesParams(num_base_patches=16, split_threshold=48.0),
        ),
        ("ldpc", ldpc.LDPCParams(num_frames=12, iterations=8)),
    ],
)
def test_tuner_beats_alternatives(benchmark, name, params):
    report, tuned_ms, mega_ms, paper_cfg_ms = benchmark.pedantic(
        tune_and_compare, args=(name, params), rounds=1, iterations=1
    )
    print(f"\n=== Auto-tuner on {name} (K20c) ===")
    print(f"  {report.summary()}")
    print(f"  tuned plan run : {tuned_ms:8.3f} ms")
    print(f"  megakernel     : {mega_ms:8.3f} ms")
    print(f"  described plan : {paper_cfg_ms:8.3f} ms")

    assert math.isfinite(report.best_time_ms)
    # The search space contains the all-stage megakernel plan, so a correct
    # tuner can never do meaningfully worse than it; small slack covers the
    # online-adaptation run-time differences.
    assert tuned_ms <= mega_ms * 1.10
    assert tuned_ms <= paper_cfg_ms * 1.10


def test_tuner_prunes_with_timeout(benchmark):
    """The Figure 10 timeout scheme must discard slow candidates cheaply."""
    params = ldpc.LDPCParams(num_frames=8, iterations=5)
    spec = get_workload("ldpc")
    pipeline = spec.build_pipeline(params)
    profile, trace = profile_pipeline(
        pipeline, K20C, spec.initial_items(params)
    )

    def tune():
        tuner = OfflineTuner(
            pipeline,
            K20C,
            trace,
            profile=profile,
            options=TunerOptions(max_configs=60),
        )
        return tuner.tune()

    report = benchmark.pedantic(tune, rounds=1, iterations=1)
    pruned = sum(1 for e in report.evaluated if not math.isfinite(e.time_ms))
    print(
        f"\n=== Tuner pruning: {report.num_evaluated} evaluated, "
        f"{pruned} pruned by timeout/invalid ==="
    )
    assert pruned > 0


def _tune(name, params, workers, cache_dir=None):
    options = TunerOptions(
        workers=workers, cache_dir=cache_dir, **_SEARCH_OPTS
    )
    return tune_workload(name, K20C, params, options=options).report


def _payload_bytes(report):
    return json.dumps(report.canonical_payload(), sort_keys=True)


def test_parallel_tuner_cache_invariance(benchmark, tmp_path):
    """The race-to-deadline search in four legs per workload: cold at
    ``workers=1`` without a search cache, cold at ``workers=4`` into a
    fresh cache, then warm at ``workers=1`` and at ``workers=4`` on it.

    The canonical report must be byte-identical across all four legs,
    and the warm legs must hit the one stored search.  The ``workers=1`` cold
    leg's winner time and prune counts land in ``BENCH_tuner.json``;
    every leaf there is deterministic, so CI requires it to equal the
    committed baseline.  The search's host time is measured by
    perfbench's ``tune_race`` workload, not here.
    """

    def sweep():
        legs = {}
        for name, params in _SEARCH_CASES:
            cache_dir = str(tmp_path / f"cache-{name}")
            legs[name] = [
                _tune(name, params, workers=1),
                _tune(name, params, workers=4, cache_dir=cache_dir),
                _tune(name, params, workers=1, cache_dir=cache_dir),
                _tune(name, params, workers=4, cache_dir=cache_dir),
            ]
        return legs

    legs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    bench_json = {"workloads": {}}
    print("\n=== Race-to-deadline tuner (K20c, fig11 search spaces) ===")
    for name, (cold, *others) in legs.items():
        print(f"  {name:8s} {cold.summary()}")
        # The canonical report is a pure function of the candidate
        # space: byte-identical across worker counts and cache states.
        reference = _payload_bytes(cold)
        for leg in others:
            assert _payload_bytes(leg) == reference
        # The cold-parallel leg stores the search once; the warm legs
        # read it back instead of racing.
        assert (others[0].cache_hits, others[0].cache_misses) == (0, 1)
        for warm in others[1:]:
            assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        bench_json["workloads"][name] = {
            "best_time_ms": cold.best_time_ms,
            "num_evaluated": cold.num_evaluated,
            "num_completed": cold.num_completed,
            "num_dominated": cold.num_dominated,
        }
    with open(_BENCH_JSON, "w") as handle:
        json.dump(bench_json, handle, indent=2, sort_keys=True)


def test_dominance_sound_at_paper_scale():
    """Both dominance cuts are sound only while
    ``throughput_bound_cycles`` lower-bounds every replay.  On the
    paper-scale spaces of perfbench's ``tune_race`` (ldpc, cfd and
    rasterization, budget 80, ``workers=1``), every completed candidate
    took at least its bound, and every candidate the cut marked
    ``dominated``, replayed to the end without a deadline, is no faster
    than the winner and no faster than its own bound."""
    print("\n=== Dominance soundness (K20c, paper scale, budget 80) ===")
    for name in ("ldpc", "cfd", "rasterization"):
        spec = get_workload(name)
        params = spec.default_params()
        tuned = tune_workload(
            name, K20C, params,
            options=TunerOptions(max_configs=80, workers=1),
            cache=TraceCache(),
        )
        report = tuned.report
        pipeline = spec.build_pipeline(params)
        for e in report.evaluated:
            if e.outcome not in ("completed", "dominated"):
                continue
            cycles = e.cycles
            if e.outcome == "dominated":
                ms, cycles = _replay_config(
                    pipeline, K20C, tuned.trace, e.config
                )
                assert ms >= report.best_time_ms, (name, e.config.describe())
            bound = throughput_bound_cycles(
                pipeline, K20C, tuned.profile, e.config
            )
            assert cycles >= bound, (name, e.outcome, e.config.describe())
        print(
            f"  {name:14s} {report.num_completed:3d} completed, "
            f"{report.num_dominated:3d} dominated replayed: no bound violated"
        )

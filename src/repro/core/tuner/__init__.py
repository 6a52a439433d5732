"""The VersaPipe auto-tuner (Section 7).

Three parts, mirroring Figure 2's *Auto Tuner* box:

* :mod:`profiler` — the profiling component: records one execution trace
  and collects per-stage workload characteristics (task counts, costs, and
  the key metric: the maximum number of blocks per SM for each stage);
* :mod:`space` + :mod:`offline` — the offline tuner: enumerates stage
  groupings (contiguous neighbours only), per-group models, SM mappings and
  fine block mappings with the paper's pruning rules, and measures each
  candidate by trace replay under a shrinking timeout (Figure 10);
* online adaptation lives in :class:`repro.core.models.hybrid.OnlineAdapter`
  and is enabled on the tuned configuration.
"""

from .cache import CachedEvaluation
from .offline import EvaluatedConfig, OfflineTuner, TunerOptions, TunerReport
from .pool import default_workers, map_shards, stride_shards
from .profiler import PipelineProfile, StageProfile, profile_pipeline
from .space import enumerate_configs, throughput_bound_cycles

__all__ = [
    "CachedEvaluation",
    "EvaluatedConfig",
    "OfflineTuner",
    "PipelineProfile",
    "StageProfile",
    "TunerOptions",
    "TunerReport",
    "default_workers",
    "enumerate_configs",
    "map_shards",
    "profile_pipeline",
    "stride_shards",
    "throughput_bound_cycles",
]

"""Uniform workload descriptions for the evaluation harness.

Each of the six applications of Table 1 registers a :class:`WorkloadSpec`
providing everything the harness needs: pipeline construction, initial
items, the baseline execution model used by the original implementation,
the paper-described VersaPipe configuration, an output checker, and the
paper's reference numbers for shape comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.config import PipelineConfig
from ..core.models.base import ExecutionModel
from ..core.pipeline import Pipeline
from ..gpu.specs import GPUSpec


@dataclass(frozen=True)
class PaperNumbers:
    """Table 2 reference values (milliseconds, on K20c)."""

    baseline_ms: float
    megakernel_ms: float
    versapipe_ms: float
    longest_stage_ms: Optional[float] = None
    item_bytes: Optional[int] = None


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything the harness knows about one application."""

    name: str
    description: str
    #: Table 1 metadata.
    stage_count: int
    structure: str  # 'linear' | 'loop' | 'recursion'
    workload_pattern: str  # 'static' | 'dynamic'
    #: Factories (all take a params object).
    default_params: Callable[[], object]
    quick_params: Callable[[], object]
    build_pipeline: Callable[[object], Pipeline]
    initial_items: Callable[[object], dict[str, list]]
    baseline_model: Callable[[object], ExecutionModel]
    baseline_name: str
    #: The paper-described hybrid configuration (None -> rely on the tuner).
    versapipe_config: Callable[[Pipeline, GPUSpec, object], PipelineConfig]
    #: Validates functional outputs; raises AssertionError on mismatch.
    check_outputs: Callable[[object, list], None]
    paper: PaperNumbers
    #: Ratio paper-workload / our-default-workload (1.0 = identical size);
    #: used to extrapolate absolute times for iteration-scaled workloads.
    time_scale: Callable[[object], float] = lambda params: 1.0
    notes: str = ""


_REGISTRY: dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"workload {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> dict[str, WorkloadSpec]:
    _ensure_loaded()
    return dict(_REGISTRY)


def _ensure_loaded() -> None:
    """Import the workload modules so their specs register themselves."""
    from . import cfd, face_detection, ldpc, pyramid, rasterization, reyes  # noqa: F401

"""The VersaPipe facade: the paper's end-user entry point.

Typical use mirrors Figure 9's three steps — define stages, insert initial
items, run (configuration optional; the auto-tuner fills it in):

    pipe = Pipeline([Split(), Dice(), Shade()], name="reyes")
    vp = VersaPipe(pipe, spec=K20C)
    vp.insert_into_queue("split", patches)
    result = vp.run()            # profiles, tunes, then executes
    print(result.time_ms, vp.tuner_report.summary())
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..gpu.device import GPUDevice
from ..gpu.specs import K20C, GPUSpec
from .config import PipelineConfig
from .errors import ConfigurationError
from .executor import FunctionalExecutor
from .models.hybrid import HybridModel
from .pipeline import Pipeline
from .result import RunResult
from .trace import Trace
from .tuner.offline import OfflineTuner, TunerOptions, TunerReport
from .tuner.profiler import PipelineProfile, profile_pipeline


class VersaPipe:
    """Programs a pipeline, auto-tunes it, and runs it on a device."""

    def __init__(
        self,
        pipeline: Pipeline,
        spec: GPUSpec = K20C,
        config: Optional[PipelineConfig] = None,
        tuner_options: Optional[TunerOptions] = None,
    ) -> None:
        self.pipeline = pipeline
        self.spec = spec
        self.config = config
        self.tuner_options = tuner_options
        self._initial: dict[str, list[object]] = {}
        self.profile: Optional[PipelineProfile] = None
        self.trace: Optional[Trace] = None
        self.tuner_report: Optional[TunerReport] = None

    # ------------------------------------------------------------------
    def insert_into_queue(self, stage: str, items: Sequence[object]) -> None:
        """Queue initial data items (the paper's ``insertIntoQueue``)."""
        self.pipeline.stage(stage)  # validates
        self._initial.setdefault(stage, []).extend(items)

    @property
    def initial_items(self) -> dict[str, list[object]]:
        return {stage: list(items) for stage, items in self._initial.items()}

    # ------------------------------------------------------------------
    def tune(self) -> TunerReport:
        """Profile the pipeline and search for the best configuration."""
        if not self._initial:
            raise ConfigurationError(
                "insert initial items before tuning: the profiler needs a "
                "representative workload"
            )
        self.profile, self.trace = profile_pipeline(
            self.pipeline, self.spec, self._initial
        )
        tuner = OfflineTuner(
            self.pipeline,
            self.spec,
            self.trace,
            profile=self.profile,
            options=self.tuner_options,
        )
        self.tuner_report = tuner.tune()
        self.config = self.tuner_report.best_config
        return self.tuner_report

    # ------------------------------------------------------------------
    def run(self, device: Optional[GPUDevice] = None) -> RunResult:
        """Execute the pipeline (auto-tuning first if unconfigured)."""
        if self.config is None:
            self.tune()
        result = HybridModel(self.config).run(
            self.pipeline,
            device or GPUDevice(self.spec),
            FunctionalExecutor(self.pipeline),
            self.initial_items,
        )
        result.model = "versapipe"
        return result

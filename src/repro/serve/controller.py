"""The serving control plane: admission control and dynamic batching.

Without it a serving cell admits every arrival and pops each queue at
its static capacity no matter how deep the backlog grows — under
sustained overload the queue wait dominates every latency and SLO
attainment collapses.  This module adds two control loops that act on
each arrival and each queue pop, inside the cell's one engine run.  Both
are deterministic functions of simulated state (no wall clock, no
randomness), so adaptive runs keep the byte-identical ``--workers``
contract:

* **Admission control** (:func:`parse_admission_spec`): decide at
  arrival time whether to accept a request or shed it.  ``drop-tail``
  sheds when the queued backlog reaches a cap; ``slo-ewma`` sheds when
  the predicted completion — from EWMAs of per-stage queue wait and
  service observed through the existing :class:`~repro.obs.spans
  .RequestTracker` hooks — would blow the latency budget.  A shed
  request costs nothing downstream and releases its arrival
  reservation, so the pipeline spends its cycles on requests that can
  still meet the SLO.
* **Dynamic batching** (:class:`BatchFormer`): replace the static pop
  capacity with a deadline-aware size target — small batches when the
  pipeline is idle (latency mode), batches growing toward ``max_batch``
  as queue depth and predicted-latency pressure rise (throughput
  mode).  The target clamps the run context's queue pops and the KBK
  drain path through ``RunContext.batch_governor``.

The resident plan itself never changes during a cell: the paper's one
run-time reaction to load is the online adaptation of §7, and serve
plans run with it off.  :class:`ServeController` bundles the two loops
for the driver.
"""

from __future__ import annotations

from typing import Optional

#: Admission policy families accepted by ``--admission``.
ADMISSION_KINDS = ("none", "drop-tail", "slo-ewma")

#: Weight of each new sample in an :class:`Ewma`.
EWMA_ALPHA = 0.3

#: Backlog (items) at which :class:`BatchFormer`'s depth pressure is 1/2.
BATCH_DEPTH_SCALE = 8


class AdmissionSpecError(ValueError):
    """A malformed ``--admission`` spec (bad grammar or bad field)."""


class Ewma:
    """An exponentially weighted moving average (``None`` until fed)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = sample
        else:
            self.value += EWMA_ALPHA * (sample - self.value)
        return self.value


class LatencyPredictor:
    """EWMA model of end-to-end latency from per-stage visit telemetry.

    Fed by the same :class:`~repro.obs.spans.RequestTracker` callbacks
    the serving report uses: every completed stage visit updates that
    stage's queue-wait and service EWMAs, and every completed request
    updates the visits-per-request EWMA per stage.  The predicted
    latency of the *next* admitted request is then

    ``sum over stages of visits_ewma * (wait_ewma + service_ewma)``

    — zero until the first request completes (cold starts admit
    everything), and thereafter a smoothed view of what the queues are
    currently doing to requests.
    """

    __slots__ = ("stage_wait", "stage_service", "stage_visits", "completed")

    def __init__(self) -> None:
        self.stage_wait: dict[str, Ewma] = {}
        self.stage_service: dict[str, Ewma] = {}
        self.stage_visits: dict[str, Ewma] = {}
        self.completed = 0

    def note_visit(self, stage: str, wait_ms: float, service_ms: float) -> None:
        wait = self.stage_wait.get(stage)
        if wait is None:
            wait = self.stage_wait[stage] = Ewma()
            self.stage_service[stage] = Ewma()
        wait.update(wait_ms)
        self.stage_service[stage].update(service_ms)

    def note_request(self, stage_visits: dict[str, int]) -> None:
        """One request completed having made ``stage_visits`` visits."""
        self.completed += 1
        for stage, count in stage_visits.items():
            visits = self.stage_visits.get(stage)
            if visits is None:
                visits = self.stage_visits[stage] = Ewma()
            visits.update(float(count))

    def predicted_latency_ms(self) -> float:
        if not self.completed:
            return 0.0
        total = 0.0
        for stage, visits in self.stage_visits.items():
            wait = self.stage_wait.get(stage)
            service = self.stage_service.get(stage)
            per_visit = (
                (wait.value or 0.0) if wait is not None else 0.0
            ) + ((service.value or 0.0) if service is not None else 0.0)
            total += (visits.value or 0.0) * per_visit
        return total


# ----------------------------------------------------------------------
# Admission policies.
# ----------------------------------------------------------------------
class AdmissionPolicy:
    """Decides, at arrival time, whether a request may enter the queues."""

    kind = "none"
    reads_predictor = False

    def should_shed(self, controller: "ServeController") -> bool:
        return False

    def describe(self) -> str:
        return self.kind


class DropTailAdmission(AdmissionPolicy):
    """Shed arrivals while the queued backlog is at or above ``cap``."""

    kind = "drop-tail"

    def __init__(self, cap: int) -> None:
        self.cap = cap

    def should_shed(self, controller: "ServeController") -> bool:
        return controller.queued_backlog() >= self.cap

    def describe(self) -> str:
        return f"drop-tail:{self.cap}"


class SloEwmaAdmission(AdmissionPolicy):
    """Shed arrivals whose predicted completion would blow the SLO.

    ``margin`` scales the budget: 1.0 sheds when the predicted latency
    exceeds the SLO itself; 0.8 sheds earlier (keeps 20 % headroom);
    1.5 tolerates a predicted overshoot of half the budget.
    """

    kind = "slo-ewma"
    reads_predictor = True

    def __init__(self, margin: float = 1.0) -> None:
        self.margin = margin

    def should_shed(self, controller: "ServeController") -> bool:
        predicted = controller.predictor.predicted_latency_ms()
        return predicted > controller.slo_ms * self.margin

    def describe(self) -> str:
        return f"slo-ewma:{self.margin:g}"


def parse_admission_spec(spec: str) -> AdmissionPolicy:
    """Parse ``none`` / ``drop-tail:CAP`` / ``slo-ewma[:MARGIN]``.

    Raises :class:`AdmissionSpecError` naming the offending field on
    malformed input (the CLI maps that to an argparse error, matching
    :func:`~repro.serve.arrivals.parse_arrival_spec`).
    """
    kind, sep, rest = spec.partition(":")
    if kind == "none":
        if sep:
            raise AdmissionSpecError(
                f"admission policy 'none' takes no argument, got {spec!r}"
            )
        return AdmissionPolicy()
    if kind == "drop-tail":
        if not sep or not rest:
            raise AdmissionSpecError(
                "drop-tail admission needs a queue cap: drop-tail:CAP"
            )
        try:
            cap = int(rest)
        except ValueError:
            raise AdmissionSpecError(
                f"drop-tail cap must be an integer, got {rest!r}"
            ) from None
        if cap < 1:
            raise AdmissionSpecError(
                f"drop-tail cap must be >= 1, got {rest!r}"
            )
        return DropTailAdmission(cap)
    if kind == "slo-ewma":
        if not sep or not rest:
            return SloEwmaAdmission()
        try:
            margin = float(rest)
        except ValueError:
            raise AdmissionSpecError(
                f"slo-ewma margin must be a number, got {rest!r}"
            ) from None
        if not margin > 0:
            raise AdmissionSpecError(
                f"slo-ewma margin must be > 0, got {rest!r}"
            )
        return SloEwmaAdmission(margin)
    raise AdmissionSpecError(
        f"unknown admission policy {kind!r}; choose from "
        f"{', '.join(ADMISSION_KINDS)}"
    )


# ----------------------------------------------------------------------
# Dynamic batching.
# ----------------------------------------------------------------------
class BatchFormer:
    """Deadline-aware batch-size target for queue pops and drains.

    The target interpolates between 1 (idle pipeline: pop single items
    for minimum latency) and ``max_batch`` (saturated pipeline: amortise
    per-batch overhead for maximum throughput) from two deterministic
    pressure signals:

    * **queue depth** — ``depth / (depth + BATCH_DEPTH_SCALE)``
      saturates as the stage backlog outgrows ``BATCH_DEPTH_SCALE``
      items;
    * **SLO slack** — the predictor's current latency estimate over the
      budget, clamped to [0, 1]: once requests are predicted near the
      budget, larger batches stop making individual requests much
      later but raise drain throughput.

    The larger pressure wins; the result clamps the capacity the run
    context would otherwise pop (never raises it).
    """

    __slots__ = ("slo_ms", "max_batch", "predictor")

    def __init__(
        self, slo_ms: float, max_batch: int, predictor: LatencyPredictor
    ) -> None:
        self.slo_ms = slo_ms
        self.max_batch = max_batch
        self.predictor = predictor

    def target(self, stage: str, depth: int) -> int:
        span = self.max_batch - 1
        if span <= 0:
            return 1
        depth_pressure = (
            depth / (depth + BATCH_DEPTH_SCALE) if depth > 0 else 0.0
        )
        predicted = self.predictor.predicted_latency_ms()
        slack_pressure = min(1.0, predicted / self.slo_ms) if self.slo_ms > 0 else 0.0
        pressure = depth_pressure if depth_pressure > slack_pressure else slack_pressure
        return 1 + int(span * pressure)


# ----------------------------------------------------------------------
# The facade the serving driver drives.
# ----------------------------------------------------------------------
class ServeController:
    """Per-cell adaptive control state.

    Built once per serving cell from its
    :class:`~repro.serve.driver.ServeConfig`; the driver binds it to the
    cell's run context (:meth:`bind`) so the admission policy and batch
    former read the *live* queue backlog, and chains the request-tracker
    callbacks into the latency predictor.  Everything here is a pure
    function of simulated state, so adaptive serving keeps the
    byte-identical determinism contract.
    """

    def __init__(
        self,
        admission: str,
        slo_ms: float,
        max_batch: Optional[int] = None,
    ) -> None:
        self.admission = parse_admission_spec(admission)
        self.slo_ms = slo_ms
        predictor = LatencyPredictor()
        self.former: Optional[BatchFormer] = None
        if max_batch is not None:
            self.former = BatchFormer(slo_ms, max_batch, predictor)
        #: ``None`` when nothing reads it, so the driver skips the feed.
        self.predictor: Optional[LatencyPredictor] = None
        if self.former is not None or self.admission.reads_predictor:
            self.predictor = predictor
        self._backlog: dict[str, int] = {}

    # ------------------------------------------------------------------
    def bind(self, ctx) -> None:
        """Point the live-backlog readers at the cell's run context and
        install the dynamic-batching governor on it."""
        self._backlog = ctx.depth_series.current
        if self.former is not None:
            ctx.batch_governor = self.batch_limit

    def queued_backlog(self) -> int:
        return sum(self._backlog.values())

    def batch_limit(self, stage: str, cap: int) -> int:
        """The ``RunContext.batch_governor`` hook: clamp a pop/drain
        capacity to the former's current target (never below 1)."""
        former = self.former
        if former is None:
            return cap
        target = former.target(stage, self._backlog.get(stage, 0))
        if target < 1:
            target = 1
        return cap if cap < target else target

    def should_shed(self) -> bool:
        return self.admission.should_shed(self)

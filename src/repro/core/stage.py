"""Stage definitions — the user-facing core of the VersaPipe API.

A pipeline stage subclasses :class:`Stage` and provides:

* identity and topology: ``name`` and ``emits_to`` (the stages it may
  enqueue items for; the special target :data:`OUTPUT` is the pipeline
  sink, and a stage may list itself for recursion);
* kernel resources: ``registers_per_thread``, ``threads_per_block``,
  ``shared_mem_per_block``, ``code_bytes`` — exactly what the paper's
  per-stage kernels carry and what the occupancy calculator consumes;
* task shape: ``threads_per_item`` (the paper's ``threadNum``) and
  ``item_bytes`` (queue element size, Table 2's ``itemSz`` column);
* behaviour: :meth:`execute` (the real computation, emitting downstream
  items through the :class:`EmitContext`) and :meth:`cost` (the simulated
  cycle cost of processing one item).

This mirrors the paper's C++ API (Figure 9): ``BaseStage``, a
``DataItemType``, ``threadNum``, an ``execute(data, threadid)`` body and
``enqueue<Stage>(item)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..gpu.kernel import KernelSpec
from .errors import ExecutionError, PipelineDefinitionError

#: Emission target naming the pipeline sink.
OUTPUT = "__output__"


@dataclass(frozen=True, slots=True)
class TaskCost:
    """Simulated cost of processing one data item in a stage.

    ``cycles_per_thread`` is the work per participating thread at full
    throughput.  ``mem_fraction`` is the portion of that cost attributable
    to memory traffic; it is the part discounted by L1 locality when a
    consumer runs on the SM that produced its input (fine pipeline's
    locality benefit, Section 4.2.2).  ``min_cycles`` is a wall-clock floor
    for the task regardless of available throughput — it models serial
    portions (e.g. the histogram-equalisation CDF scan that the paper calls
    out as "a serial portion that cannot be parallelized").
    """

    cycles_per_thread: float
    mem_fraction: float = 0.3
    min_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.cycles_per_thread < 0:
            raise ValueError("cycles_per_thread must be >= 0")
        if not 0.0 <= self.mem_fraction <= 1.0:
            raise ValueError("mem_fraction must be in [0, 1]")
        if self.min_cycles < 0:
            raise ValueError("min_cycles must be >= 0")

    @property
    def floor_cycles(self) -> float:
        """The task's wall-clock lower bound (serial chain)."""
        return max(self.cycles_per_thread, self.min_cycles)


class EmitContext:
    """Collects the emissions of one ``execute`` call."""

    __slots__ = ("_allowed", "children", "outputs")

    def __init__(self, allowed: Iterable[str]) -> None:
        # Callers on the hot path pass a pre-built frozenset; reuse it.
        self._allowed = (
            allowed if isinstance(allowed, frozenset) else frozenset(allowed)
        )
        self.children: list[tuple[str, object]] = []
        self.outputs: list[object] = []

    def emit(self, target, item: object) -> None:
        """Enqueue ``item`` for stage ``target`` (a stage name or class)."""
        name = target if isinstance(target, str) else target.name
        if name == OUTPUT:
            self.outputs.append(item)
            return
        if name not in self._allowed:
            raise ExecutionError(
                f"stage emitted to {name!r} which is not declared in emits_to "
                f"{sorted(self._allowed)}"
            )
        self.children.append((name, item))

    def emit_output(self, item: object) -> None:
        """Send ``item`` to the pipeline sink."""
        self.outputs.append(item)


class Stage:
    """Base class for pipeline stages (the paper's ``BaseStage``)."""

    #: Unique stage name within its pipeline.
    name: str = ""
    #: Names of stages this stage may emit to (may include itself).
    emits_to: Sequence[str] = ()
    #: Threads cooperating on one data item (the paper's ``threadNum``).
    threads_per_item: int = 1
    #: Size in bytes of one queued data item.
    item_bytes: int = 8
    #: Kernel resource usage of this stage compiled standalone.
    registers_per_thread: int = 32
    threads_per_block: int = 256
    shared_mem_per_block: int = 0
    code_bytes: int = 2048
    #: True when the stage must see *all* items of the previous stage
    #: before starting (global synchronisation).  RTC cannot express this.
    requires_global_sync: bool = False

    def __init__(self) -> None:
        if not self.name:
            raise PipelineDefinitionError(
                f"{type(self).__name__} must define a non-empty name"
            )
        if self.threads_per_item <= 0:
            raise PipelineDefinitionError("threads_per_item must be positive")
        if self.threads_per_item > self.threads_per_block:
            raise PipelineDefinitionError(
                "threads_per_item cannot exceed threads_per_block"
            )

    # ------------------------------------------------------------------
    # User-provided behaviour.
    # ------------------------------------------------------------------
    def execute(self, item: object, ctx: EmitContext) -> None:
        """Process one data item, emitting downstream work via ``ctx``.

        Must be a pure function of ``item`` (no reads of state written
        concurrently by other tasks): the framework may record and replay
        executions under different schedules.
        """
        raise NotImplementedError

    def cost(self, item: object) -> TaskCost:
        """Simulated processing cost of ``item`` (cycles per thread)."""
        return TaskCost(cycles_per_thread=1000.0)

    def execute_batch(
        self, items: Sequence[object], ctxs: Sequence[EmitContext]
    ) -> list[TaskCost]:
        """Process a batch of same-stage items, one :class:`EmitContext` each.

        The default runs :meth:`execute` and :meth:`cost` per item, so user
        stages need no changes to work under batched drains.  Overrides may
        vectorise the computation across the batch (GRAMPS-style packet
        processing) but must stay *observationally identical* to the scalar
        path: emissions land on ``ctxs[i]`` in the same order ``execute``
        would produce, and ``result[i]`` is bit-identical to
        ``self.cost(items[i])``.  ``tests/test_batch_equivalence.py`` pins
        this contract for the built-in workloads.  Override only where it
        pays: ``scripts/profile_run.py --record WORKLOAD`` times each
        override of a workload against this loop.
        """
        costs: list[TaskCost] = []
        for item, ctx in zip(items, ctxs):
            self.execute(item, ctx)
            costs.append(self.cost(item))
        return costs

    # ------------------------------------------------------------------
    # Derived properties.
    # ------------------------------------------------------------------
    def kernel_spec(self) -> KernelSpec:
        """Resource descriptor of this stage compiled as its own kernel."""
        return KernelSpec(
            name=self.name,
            registers_per_thread=self.registers_per_thread,
            threads_per_block=self.threads_per_block,
            shared_mem_per_block=self.shared_mem_per_block,
            code_bytes=self.code_bytes,
        )

    def items_per_block(self) -> int:
        """How many data items one block can process concurrently."""
        return max(1, self.threads_per_block // self.threads_per_item)

    def __repr__(self) -> str:
        return f"<Stage {self.name}>"

"""Task executors: functional, recording, and trace-replay.

Execution models are written against the :class:`Executor` interface so the
same scheduling code can either run the *real* stage computations (and
produce real outputs) or replay a recorded :class:`~repro.core.trace.Trace`
(for the auto-tuner's fast configuration search).

An executor defines the in-flight item representation:

* functional — the raw payload objects the stages produce;
* recording — ``(node_id, payload)`` pairs so the task graph can be saved;
* replay — bare trace node ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import ExecutionError
from .pipeline import Pipeline
from .stage import EmitContext, TaskCost
from .trace import Trace, TraceNode


@dataclass(slots=True)
class ExecResult:
    """Outcome of processing one item at one stage.

    ``children`` may be any sequence; replay hands out shared immutable
    tuples from the trace's precomputed index, so consumers must not
    mutate it in place (reassigning, as the serve driver does, is fine).
    """

    cost: TaskCost
    children: Sequence[tuple[str, object]]
    outputs: list[object]


@dataclass(slots=True)
class InlineTask:
    """One task executed as part of an inlined (fused-stage) run."""

    stage: str
    cost: TaskCost
    #: Emission depth below the entry task (0 = the entry itself).
    depth: int = 0


@dataclass(slots=True)
class InlineResult:
    """Outcome of running an item through a fused set of stages."""

    tasks: list[InlineTask]
    children: list[tuple[str, object]]
    outputs: list[object]

    @property
    def total_cycles(self) -> float:
        return sum(t.cost.cycles_per_thread for t in self.tasks)

    @property
    def chain_floor_cycles(self) -> float:
        """Wall-clock lower bound of the inlined execution.

        Fused kernels process an item's emission tree level by level:
        tasks at the same depth run in parallel on the block's thread
        groups, consecutive depths serialise.  The floor is therefore the
        sum over depths of the most expensive task at that depth.
        """
        by_depth: dict[int, float] = {}
        for task in self.tasks:
            floor = task.cost.floor_cycles
            if floor > by_depth.get(task.depth, 0.0):
                by_depth[task.depth] = floor
        return sum(by_depth.values())


class Executor:
    """Interface between scheduling code and stage computations."""

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline

    def wrap_initial(self, stage: str, payload: object) -> object:
        """Convert a user payload into this executor's item representation."""
        raise NotImplementedError

    def run_task(self, stage: str, item: object) -> ExecResult:
        """Process ``item`` at ``stage``; returns cost, children, outputs."""
        raise NotImplementedError

    def run_batch(self, stage: str, items: Sequence[object]) -> list[ExecResult]:
        """Process a same-stage batch; ``result[i]`` matches ``items[i]``.

        Must be observationally identical to calling :meth:`run_task` on
        each item in order — same costs, same emissions, same outputs.
        Executors without a faster path inherit this per-item loop.
        """
        return [self.run_task(stage, item) for item in items]

    def run_inline(
        self, stage: str, item: object, inline_set: frozenset[str]
    ) -> InlineResult:
        """Run ``item`` through ``stage`` and recursively through any
        emitted children whose target stage is in ``inline_set`` (depth
        first, deterministic order).  Children targeting stages outside the
        set — and all sink outputs — are returned for the caller to route.
        """
        tasks: list[InlineTask] = []
        children_out: list[tuple[str, object]] = []
        outputs: list[object] = []
        stack: list[tuple[str, object, int]] = [(stage, item, 0)]
        while stack:
            cur_stage, cur_item, depth = stack.pop()
            result = self.run_task(cur_stage, cur_item)
            tasks.append(
                InlineTask(stage=cur_stage, cost=result.cost, depth=depth)
            )
            outputs.extend(result.outputs)
            # Reverse so the first-emitted child is processed first (DFS).
            for target, child in reversed(result.children):
                if target in inline_set:
                    stack.append((target, child, depth + 1))
                else:
                    children_out.append((target, child))
        return InlineResult(tasks=tasks, children=children_out, outputs=outputs)


class FunctionalExecutor(Executor):
    """Runs the real stage code on raw payloads.

    :meth:`run_batch` hands a whole same-stage drain to
    ``Stage.execute_batch`` in one call, and a one-item drain to
    :meth:`run_task`.  Tests that want the scalar reference path swap
    :meth:`run_batch` for the base :meth:`Executor.run_batch`, the
    per-item :meth:`run_task` loop.
    """

    def __init__(self, pipeline: Pipeline) -> None:
        super().__init__(pipeline)
        # run_task is called once per simulated task: pre-resolve the
        # stage objects and their emit sets so the hot path does no
        # pipeline lookups and builds no frozensets.
        self._stages = dict(pipeline.stages)
        self._emit_sets = {
            name: frozenset(stage.emits_to)
            for name, stage in self._stages.items()
        }

    def wrap_initial(self, stage: str, payload: object) -> object:
        return payload

    def run_task(self, stage: str, item: object) -> ExecResult:
        stage_obj = self._stages[stage]
        ctx = EmitContext(self._emit_sets[stage])
        stage_obj.execute(item, ctx)
        cost = stage_obj.cost(item)
        if not isinstance(cost, TaskCost):
            raise ExecutionError(
                f"stage {stage!r} returned {type(cost).__name__} from cost(); "
                "expected TaskCost"
            )
        return ExecResult(cost=cost, children=ctx.children, outputs=ctx.outputs)

    def run_batch(self, stage: str, items: Sequence[object]) -> list[ExecResult]:
        if len(items) == 1:
            return [self.run_task(stage, items[0])]
        emit_set = self._emit_sets[stage]
        ctxs = [EmitContext(emit_set) for _ in items]
        costs = self._stages[stage].execute_batch(items, ctxs)
        if len(costs) != len(items):
            raise ExecutionError(
                f"stage {stage!r} returned {len(costs)} costs from "
                f"execute_batch() for a batch of {len(items)}"
            )
        results: list[ExecResult] = []
        append = results.append
        # Batched stages commonly return one shared frozen TaskCost for
        # every item; validate each distinct object once.
        last_cost = None
        for cost, ctx in zip(costs, ctxs):
            if cost is not last_cost:
                if not isinstance(cost, TaskCost):
                    raise ExecutionError(
                        f"stage {stage!r} returned {type(cost).__name__} "
                        "from execute_batch(); expected TaskCost"
                    )
                last_cost = cost
            append(ExecResult(cost=cost, children=ctx.children, outputs=ctx.outputs))
        return results


class RecordingExecutor(Executor):
    """Runs the real stage code while recording the task graph.

    In-flight items are ``(node_id, payload)`` pairs; the trace is available
    as :attr:`trace` once the run completes.
    """

    def __init__(self, pipeline: Pipeline, record_outputs: bool = False) -> None:
        super().__init__(pipeline)
        self._functional = FunctionalExecutor(pipeline)
        self._record_outputs = record_outputs
        self.trace = Trace()

    def _new_node_id(self) -> int:
        self.trace.nodes.append(None)  # placeholder, filled on completion
        return len(self.trace.nodes) - 1

    def wrap_initial(self, stage: str, payload: object) -> object:
        node_id = self._new_node_id()
        self.trace.initial.setdefault(stage, []).append(node_id)
        return (node_id, payload)

    def _record(self, stage: str, node_id: int, result: ExecResult) -> ExecResult:
        """Allocate child ids for one functional result and fill its node."""
        child_items: list[tuple[str, object]] = []
        child_ids: list[int] = []
        for target, child_payload in result.children:
            child_id = self._new_node_id()
            child_ids.append(child_id)
            child_items.append((target, (child_id, child_payload)))
        self.trace.nodes[node_id] = TraceNode(
            node_id=node_id,
            stage=stage,
            cost=result.cost,
            children=tuple(child_ids),
            n_outputs=len(result.outputs),
        )
        if self._record_outputs and result.outputs:
            self.trace.recorded_outputs[node_id] = list(result.outputs)
        return ExecResult(
            cost=result.cost, children=child_items, outputs=result.outputs
        )

    def run_task(self, stage: str, item: object) -> ExecResult:
        node_id, payload = item
        result = self._functional.run_task(stage, payload)
        return self._record(stage, node_id, result)

    def run_batch(self, stage: str, items: Sequence[object]) -> list[ExecResult]:
        # Execute the whole batch functionally, then assign child node ids
        # per item in order — the id sequence is identical to a scalar
        # run_task loop because functional execution allocates no ids.
        payloads = [payload for _, payload in items]
        raw = self._functional.run_batch(stage, payloads)
        return [
            self._record(stage, node_id, result)
            for (node_id, _), result in zip(items, raw)
        ]


class ReplayExecutor(Executor):
    """Replays a recorded trace; items are node ids, no real work runs.

    ``on_task``, when set, is called as ``on_task(stage, cost)`` each
    time a task is handed out.  :meth:`run_task` is the only place that
    happens: the inherited :meth:`run_batch` and :meth:`run_inline` both
    go through it, so every replayed node is reported exactly once.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        trace: Trace,
        on_task: Optional[Callable[[str, TaskCost], None]] = None,
    ) -> None:
        super().__init__(pipeline)
        self.trace = trace
        self.on_task = on_task
        self._initial_cursor: dict[str, int] = {}
        # Fetched once: a trace is complete before any replay of it starts.
        self._nodes = trace.nodes
        self._children = trace.replay_children()
        self._recorded_outputs = trace.recorded_outputs

    def wrap_initial(self, stage: str, payload: object) -> object:
        cursor = self._initial_cursor.get(stage, 0)
        initial = self.trace.initial.get(stage, [])
        if cursor >= len(initial):
            raise ExecutionError(
                f"replay has no recorded initial item #{cursor} for stage "
                f"{stage!r}"
            )
        self._initial_cursor[stage] = cursor + 1
        return initial[cursor]

    def initial_items(self) -> dict[str, list[object]]:
        """The recorded entry items, ready to insert into a run."""
        return {stage: list(ids) for stage, ids in self.trace.initial.items()}

    def run_task(self, stage: str, item: object) -> ExecResult:
        node = self._nodes[item]
        if node.stage != stage:
            raise ExecutionError(
                f"replay mismatch: node {item} belongs to stage "
                f"{node.stage!r}, fetched for {stage!r}"
            )
        children = self._children[item]
        recorded = self._recorded_outputs.get(item)
        if recorded is not None:
            outputs: list[object] = list(recorded)
        else:
            outputs = [None] * node.n_outputs
        if self.on_task is not None:
            self.on_task(stage, node.cost)
        return ExecResult(cost=node.cost, children=children, outputs=outputs)

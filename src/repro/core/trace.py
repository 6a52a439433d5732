"""Execution traces: record once, replay many times.

A pipeline's task graph is schedule-independent (stages must be pure
functions of their input item), so one *functional* run can record every
task — its stage, cost and children — into a :class:`Trace`.  The offline
auto-tuner then evaluates dozens of candidate configurations by *replaying*
the trace, paying only simulator cost instead of re-running the real numpy
computation each time.  This mirrors how the paper's offline tuner re-runs
the real program per configuration, at a fraction of the cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .stage import TaskCost

if TYPE_CHECKING:
    from .executor import ExecResult

#: Structured dtype of the per-node event table: the stage (as an index
#: into the table's stage-name tuple) and the recorded per-thread cost.
EVENT_DTYPE = np.dtype([("stage", np.uint32), ("cycles", np.float64)])


@dataclass(frozen=True)
class TraceNode:
    """One recorded task: an item processed at a stage."""

    node_id: int
    stage: str
    cost: TaskCost
    children: tuple[int, ...]
    n_outputs: int


@dataclass
class Trace:
    """A recorded task graph plus its entry points."""

    nodes: list[TraceNode] = field(default_factory=list)
    #: Entry node ids per entry stage, in insertion order.
    initial: dict[str, list[int]] = field(default_factory=dict)
    #: Sink payloads per producing node id.  Only populated when the
    #: recording executor is asked to keep outputs (the harness replay
    #: cache, whose traces ``tune_workload`` shares); tuner searches
    #: drop them before shipping a trace to pool workers.
    recorded_outputs: dict[int, list[object]] = field(default_factory=dict)
    #: Lazily built shared replay results (see :meth:`replay_results`).
    #: Derived data: never pickled, never compared, rebuilt on demand.
    _replay_results: Optional[list[ExecResult]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazily built structured event table (see :meth:`event_table`).
    #: Derived data: never pickled, never compared, rebuilt on demand.
    _event_table: Optional[tuple[tuple[str, ...], np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Identity multiset of the recorded outputs, set once they passed
    #: the workload's check (see :meth:`checked_output_ids`).  Derived
    #: data: never pickled, never compared, so a decoded copy is checked
    #: again in the process that decodes it.
    _checked_ids: Optional[Counter] = field(
        default=None, init=False, repr=False, compare=False
    )

    def replay_results(self) -> list[ExecResult]:
        """One :class:`~repro.core.executor.ExecResult` per node, shared
        by every replayed task of that node.

        A replayed task's result depends on its node alone: the recorded
        cost, the children with their stages resolved, and the outputs —
        the recorded payloads when the trace keeps them, else ``None``
        per output — as a tuple.  The list is built once per trace,
        cached on the instance, shared by every replay of the same
        in-memory trace (the per-process caches keep traces resident
        across pool dispatches), and stripped from pickles so shipping a
        trace across the process boundary stays cheap.  Consumers must
        not mutate a result.
        """
        results = self._replay_results
        if results is None or len(results) != len(self.nodes):
            from .executor import ExecResult  # local import: avoid cycle

            nodes = self.nodes
            recorded = self.recorded_outputs
            results = []
            for node_id, node in enumerate(nodes):
                outputs = recorded.get(node_id)
                results.append(
                    ExecResult(
                        cost=node.cost,
                        children=tuple(
                            (nodes[cid].stage, cid) for cid in node.children
                        ),
                        outputs=(
                            (None,) * node.n_outputs
                            if outputs is None
                            else tuple(outputs)
                        ),
                    )
                )
            self._replay_results = results
        return results

    def event_table(self) -> tuple[tuple[str, ...], np.ndarray]:
        """``(stage_names, events)``: the trace as a structured array.

        ``events`` has one row per node (:data:`EVENT_DTYPE`) with the
        stage encoded as an index into ``stage_names`` (ordered by first
        appearance).  Built once per trace and cached, so the per-stage
        summaries below — recomputed every time a cached trace is
        re-profiled for another model column or tuner search — reduce to
        vectorized ``bincount`` passes instead of per-node Python loops.
        Stripped from pickles with the other derived data.
        """
        table = self._event_table
        if table is None or len(table[1]) != len(self.nodes):
            stage_ids: dict[str, int] = {}
            events = np.empty(len(self.nodes), dtype=EVENT_DTYPE)
            for position, node in enumerate(self.nodes):
                stage = stage_ids.setdefault(node.stage, len(stage_ids))
                events[position] = (stage, node.cost.cycles_per_thread)
            table = (tuple(stage_ids), events)
            self._event_table = table
        return table

    def checked_output_ids(
        self, check: Callable[[list[object]], None]
    ) -> Counter:
        """``Counter(id(o))`` over the recorded outputs, checked once.

        The first call gathers :attr:`recorded_outputs` node by node into
        one list, hands it to ``check`` (which raises if the outputs are
        wrong) and keeps the list's identity multiset; later calls return
        it without checking again.  Replay hands every run the recorded
        payload objects themselves, so a replayed run delivered exactly
        the checked outputs iff its outputs have this multiset.  Identity
        is the only comparison that works here: payloads hold numpy
        arrays, whose ``==`` broadcasts or raises.
        """
        ids = self._checked_ids
        if ids is None:
            recorded = self.recorded_outputs
            outputs = [
                payload
                for node_id in sorted(recorded)
                for payload in recorded[node_id]
            ]
            check(outputs)
            ids = Counter(map(id, outputs))
            self._checked_ids = ids
        return ids

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_replay_results"] = None
        state["_event_table"] = None
        state["_checked_ids"] = None
        return state

    @property
    def num_tasks(self) -> int:
        return len(self.nodes)

    def tasks_per_stage(self) -> dict[str, int]:
        names, events = self.event_table()
        counts = np.bincount(events["stage"], minlength=len(names))
        return {name: int(counts[i]) for i, name in enumerate(names)}

    def work_per_stage(self) -> dict[str, float]:
        """Total cycles-per-thread work recorded for each stage.

        ``bincount`` accumulates weights in node order — the same
        left-to-right double additions as the scalar loop it replaced,
        so the sums (and every fingerprint derived from them) are
        bit-identical.
        """
        names, events = self.event_table()
        work = np.bincount(
            events["stage"], weights=events["cycles"], minlength=len(names)
        )
        return {name: float(work[i]) for i, name in enumerate(names)}

    def mean_cost(self, stage: str) -> float:
        count = self.tasks_per_stage().get(stage, 0)
        if not count:
            return 0.0
        return self.work_per_stage()[stage] / count

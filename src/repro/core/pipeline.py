"""Pipeline graphs.

A :class:`Pipeline` is an ordered collection of :class:`~repro.core.stage.Stage`
objects plus the emission topology declared by their ``emits_to`` fields.
The definition order doubles as the kernel-by-kernel sweep order (the order
a CPU-driven implementation would launch the kernels in).

The topology classification (linear / loop / recursion, Table 1's
"Pipeline Structure" column) and the reachability closure (used for
stage-group quiescence detection and the online tuner) are computed here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import PipelineDefinitionError
from .stage import OUTPUT, Stage


class Pipeline:
    """An ordered DAG-with-back-edges of pipeline stages."""

    def __init__(
        self,
        stages: Iterable[Stage],
        name: str = "pipeline",
        fused_registers: int | None = None,
    ) -> None:
        self.name = name
        #: Measured register usage of the fully fused (mega)kernel, when it
        #: exceeds the max over stages (scheduling-loop overhead; e.g. the
        #: paper's Face Detection megakernel uses 87 regs vs a 69-reg max).
        self.fused_registers = fused_registers
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise PipelineDefinitionError(f"duplicate stage name {stage.name!r}")
            self.stages[stage.name] = stage
        if not self.stages:
            raise PipelineDefinitionError("a pipeline needs at least one stage")
        self._validate_topology()
        self._reach = self._compute_reachability()

    # ------------------------------------------------------------------
    def _validate_topology(self) -> None:
        for stage in self.stages.values():
            for target in stage.emits_to:
                if target != OUTPUT and target not in self.stages:
                    raise PipelineDefinitionError(
                        f"stage {stage.name!r} declares emission to unknown "
                        f"stage {target!r}"
                    )

    def _compute_reachability(self) -> dict[str, frozenset[str]]:
        """For each stage, the set of stages reachable from it (inclusive)."""
        names = list(self.stages)
        adj: dict[str, list[str]] = {
            n: [t for t in self.stages[n].emits_to if t != OUTPUT] for n in names
        }
        reach: dict[str, frozenset[str]] = {}
        for start in names:
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for nxt in adj[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            reach[start] = frozenset(seen)
        return reach

    # ------------------------------------------------------------------
    @property
    def stage_names(self) -> list[str]:
        return list(self.stages)

    def stage(self, name: str) -> Stage:
        try:
            return self.stages[name]
        except KeyError:
            raise PipelineDefinitionError(f"unknown stage {name!r}") from None

    def reachable_from(self, name: str) -> frozenset[str]:
        """Stages reachable from ``name`` (including itself)."""
        return self._reach[name]

    def can_reach(self, source: str, targets: Iterable[str]) -> bool:
        """Can items at ``source`` eventually produce work for ``targets``?"""
        reach = self._reach[source]
        return any(t in reach for t in targets)

    # ------------------------------------------------------------------
    # Structure classification (Table 1).
    # ------------------------------------------------------------------
    @property
    def has_recursion(self) -> bool:
        """Any stage that can (transitively) feed itself."""
        for name, stage in self.stages.items():
            for target in stage.emits_to:
                if target != OUTPUT and name in self._reach[target]:
                    return True
        return False

    @property
    def has_backward_edges(self) -> bool:
        """Any emission to a stage at or before the emitter in definition
        order (loops and recursion both qualify)."""
        order = {name: i for i, name in enumerate(self.stages)}
        for name, stage in self.stages.items():
            for target in stage.emits_to:
                if target != OUTPUT and order[target] <= order[name]:
                    return True
        return False

    @property
    def requires_global_sync(self) -> bool:
        return any(s.requires_global_sync for s in self.stages.values())

    @property
    def structure(self) -> str:
        """'linear', 'loop', or 'recursion' (Table 1 classification)."""
        if any(name in self.stages[name].emits_to for name in self.stages):
            return "recursion"
        if self.has_backward_edges:
            return "loop"
        return "linear"

    # ------------------------------------------------------------------
    def contiguous_groups(self, partition: Sequence[int]) -> list[tuple[str, ...]]:
        """Split the stage list into contiguous groups of the given sizes.

        The offline tuner only considers groupings of *neighbouring* stages
        (Section 7: "a stage can only be grouped with its neighbouring
        stages"), so a partition is fully described by group sizes.
        """
        names = self.stage_names
        if sum(partition) != len(names):
            raise PipelineDefinitionError(
                f"partition {partition} does not cover {len(names)} stages"
            )
        groups = []
        index = 0
        for size in partition:
            if size <= 0:
                raise PipelineDefinitionError("group sizes must be positive")
            groups.append(tuple(names[index : index + size]))
            index += size
        return groups

    def __repr__(self) -> str:
        return f"<Pipeline {self.name}: {' -> '.join(self.stages)}>"

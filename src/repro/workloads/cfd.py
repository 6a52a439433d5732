"""CFD Euler solver (Figure 15): Step Factor -> Flux -> Time Step, with a
3-deep Runge-Kutta inner loop and an outer time-stepping loop.

Modelled on Rodinia's ``euler3d``: an unstructured finite-volume solver for
the compressible Euler equations.  The paper runs the missile mesh for
2,000 outer iterations x 3 RK steps, which makes the KBK baseline pay
**14,000 kernel launches** (1 step-factor + 3x(flux + time-step) per outer
iteration) — the dominant overhead VersaPipe removes by folding the
iteration control into persistent kernels (3 launches total).

Substitution note (DESIGN.md §2): the Rodinia mesh partitions into
neighbour-coupled chunks that would make task results depend on schedule.
We instead build *closed* sub-meshes — each chunk is a 1D periodic
finite-volume ring of ``chunk_cells`` cells with its own state — so every
chunk is an independent solver instance, the task graph is pure dataflow
(the paper itself batches 1,024 elements per queue item for CFD), and the
arithmetic per cell matches the original's flux/step-factor/integration
pattern.  Total mass per chunk is exactly conserved (flux telescoping), a
property the tests verify.

Default parameters scale the iteration count down (simulating 2,000 outer
iterations through a Python event simulator is impractical); the harness
extrapolates absolute times linearly in the iteration count via
``time_scale`` when comparing against Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import GroupConfig, PipelineConfig
from ..core.models.kbk import KBKModel
from ..core.models.sm_bound import fit_fine_block_map
from ..core.pipeline import Pipeline
from ..core.stage import OUTPUT, Stage, TaskCost
from ..gpu.specs import GPUSpec
from .batching import group_indices
from .registry import PaperNumbers, WorkloadSpec, register_workload

GAMMA = 1.4
CFL = 0.4

#: Cost-model constants (cycles), calibrated against Table 2 on K20c.
#: They fold the full 3D Euler flux arithmetic (4 neighbours, gathers,
#: square roots) that our 1D functional substitute does not perform.
STEP_FACTOR_CYCLES_PER_CELL = 3900.0
FLUX_CYCLES_PER_CELL = 6000.0
TIME_STEP_CYCLES_PER_CELL = 2000.0

#: Paper workload size (Section 8.3 / Rodinia missile data set).
PAPER_OUTER_ITERATIONS = 2000
PAPER_INNER_ITERATIONS = 3
PAPER_CHUNKS = 95  # ~97k cells in 1024-cell composite items


@dataclass(frozen=True)
class CFDParams:
    num_chunks: int = 24
    chunk_cells: int = 1024
    outer_iterations: int = 60
    inner_iterations: int = 3
    seed: int = 11

    @property
    def kbk_launches(self) -> int:
        """Kernel launches the KBK baseline needs (paper: 14,000)."""
        return self.outer_iterations * (1 + 2 * self.inner_iterations)


@dataclass
class ChunkState:
    """Conserved variables of one closed sub-mesh (1D periodic ring)."""

    chunk_id: int
    density: np.ndarray
    momentum: np.ndarray
    energy: np.ndarray

    def copy(self) -> "ChunkState":
        return ChunkState(
            self.chunk_id,
            self.density.copy(),
            self.momentum.copy(),
            self.energy.copy(),
        )

    def total_mass(self) -> float:
        return float(np.sum(self.density))


@dataclass(frozen=True)
class _CFDItem:
    state: ChunkState
    outer: int
    rk: int
    #: Filled by the step-factor stage, consumed by flux/time-step.
    step_factor: np.ndarray | None = None
    flux: np.ndarray | None = None  # (cells, 3) residuals


def initial_chunk(params: CFDParams, chunk_id: int) -> ChunkState:
    rng = np.random.default_rng(params.seed * 100 + chunk_id)
    n = params.chunk_cells
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    density = 1.0 + 0.2 * np.sin(x + chunk_id) + 0.02 * rng.standard_normal(n)
    velocity = 0.1 * np.cos(x * 2 + chunk_id)
    pressure = 1.0 + 0.1 * np.sin(x * 3)
    momentum = density * velocity
    energy = pressure / (GAMMA - 1) + 0.5 * density * velocity**2
    return ChunkState(chunk_id, density, momentum, energy)


def _pressure_arrays(
    density: np.ndarray, momentum: np.ndarray, energy: np.ndarray
) -> np.ndarray:
    velocity = momentum / density
    return np.maximum(
        1e-6,
        (GAMMA - 1) * (energy - 0.5 * density * velocity**2),
    )


def compute_step_factor_arrays(
    density: np.ndarray, momentum: np.ndarray, energy: np.ndarray
) -> np.ndarray:
    """Elementwise CFL limit; cells may be laid out (cells,) or (B, cells)."""
    pressure = _pressure_arrays(density, momentum, energy)
    speed_of_sound = np.sqrt(GAMMA * pressure / density)
    velocity = np.abs(momentum / density)
    return CFL / (velocity + speed_of_sound)


def compute_step_factor(state: ChunkState) -> np.ndarray:
    """CFL-limited local time step (Rodinia's cuda_compute_step_factor)."""
    return compute_step_factor_arrays(
        state.density, state.momentum, state.energy
    )


def compute_flux_arrays(
    density: np.ndarray, momentum: np.ndarray, energy: np.ndarray
) -> np.ndarray:
    """Rusanov flux residual; the ring is the last axis, so one call serves
    a single chunk (cells,) or a stacked batch (B, cells) identically."""
    velocity = momentum / density
    pressure = _pressure_arrays(density, momentum, energy)

    f_mass = momentum
    f_mom = momentum * velocity + pressure
    f_en = (energy + pressure) * velocity
    wave = np.abs(velocity) + np.sqrt(GAMMA * pressure / density)

    def interface_flux(f, u):
        f_right = (f + np.roll(f, -1, axis=-1)) / 2
        diss = (
            np.maximum(wave, np.roll(wave, -1, axis=-1))
            * (np.roll(u, -1, axis=-1) - u)
            / 2
        )
        return f_right - diss

    flux_mass = interface_flux(f_mass, density)
    flux_mom = interface_flux(f_mom, momentum)
    flux_en = interface_flux(f_en, energy)

    residual = np.stack(
        [
            flux_mass - np.roll(flux_mass, 1, axis=-1),
            flux_mom - np.roll(flux_mom, 1, axis=-1),
            flux_en - np.roll(flux_en, 1, axis=-1),
        ],
        axis=-1,
    )
    return residual


def compute_flux(state: ChunkState) -> np.ndarray:
    """Rusanov (local Lax-Friedrichs) flux residual on the periodic ring."""
    return compute_flux_arrays(state.density, state.momentum, state.energy)


def _stack_states(items: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.stack([item.state.density for item in items]),
        np.stack([item.state.momentum for item in items]),
        np.stack([item.state.energy for item in items]),
    )


def apply_time_step(
    state: ChunkState, step_factor: np.ndarray, residual: np.ndarray, rk: int
) -> ChunkState:
    """One RK sub-step (Rodinia's cuda_time_step).

    Uses the chunk-global CFL limit (min over cells) rather than Rodinia's
    per-cell local time step so the update telescopes exactly and conserves
    mass — the property the tests verify.
    """
    factor = float(step_factor.min()) / (PAPER_INNER_ITERATIONS - rk + 1)
    dx = 2 * np.pi / state.density.size
    update = factor * residual / dx * 0.01
    out = state.copy()
    out.density = np.maximum(1e-6, state.density - update[:, 0])
    out.momentum = state.momentum - update[:, 1]
    out.energy = np.maximum(1e-6, state.energy - update[:, 2])
    return out


class StepFactorStage(Stage):
    name = "step_factor"
    emits_to = ("flux",)
    threads_per_item = 256
    registers_per_thread = 60
    item_bytes = 12
    code_bytes = 1800
    requires_global_sync = True  # per-iteration barrier in the original

    def execute(self, item: _CFDItem, ctx) -> None:
        factor = compute_step_factor(item.state)
        ctx.emit(
            "flux",
            _CFDItem(item.state, item.outer, rk=1, step_factor=factor),
        )

    def execute_batch(self, items, ctxs):
        for indices in group_indices(
            items, lambda it: it.state.density.size
        ).values():
            group = [items[i] for i in indices]
            factors = compute_step_factor_arrays(*_stack_states(group))
            for i, factor in zip(indices, factors):
                ctxs[i].emit(
                    "flux",
                    _CFDItem(
                        items[i].state, items[i].outer, rk=1, step_factor=factor
                    ),
                )
        return [self.cost(item) for item in items]

    def cost(self, item: _CFDItem) -> TaskCost:
        return TaskCost(
            item.state.density.size * STEP_FACTOR_CYCLES_PER_CELL / 256,
            mem_fraction=0.55,
        )


class FluxStage(Stage):
    name = "flux"
    emits_to = ("time_step",)
    threads_per_item = 256
    registers_per_thread = 120
    item_bytes = 12
    code_bytes = 4200
    requires_global_sync = True

    def execute(self, item: _CFDItem, ctx) -> None:
        residual = compute_flux(item.state)
        ctx.emit(
            "time_step",
            _CFDItem(
                item.state,
                item.outer,
                item.rk,
                step_factor=item.step_factor,
                flux=residual,
            ),
        )

    def execute_batch(self, items, ctxs):
        for indices in group_indices(
            items, lambda it: it.state.density.size
        ).values():
            group = [items[i] for i in indices]
            residuals = compute_flux_arrays(*_stack_states(group))
            for i, residual in zip(indices, residuals):
                item = items[i]
                ctxs[i].emit(
                    "time_step",
                    _CFDItem(
                        item.state,
                        item.outer,
                        item.rk,
                        step_factor=item.step_factor,
                        flux=residual,
                    ),
                )
        return [self.cost(item) for item in items]

    def cost(self, item: _CFDItem) -> TaskCost:
        return TaskCost(
            item.state.density.size * FLUX_CYCLES_PER_CELL / 256,
            mem_fraction=0.6,
        )


class TimeStepStage(Stage):
    name = "time_step"
    emits_to = ("flux", "step_factor", OUTPUT)
    threads_per_item = 256
    # 76 regs keeps 3 blocks/SM alone and lets {1 step_factor, 1 flux,
    # 1 time_step} fill a K20c register file exactly (fine co-residency).
    registers_per_thread = 76
    item_bytes = 12
    code_bytes = 2000
    requires_global_sync = True

    def __init__(self, params: CFDParams) -> None:
        super().__init__()
        self.params = params

    def execute(self, item: _CFDItem, ctx) -> None:
        new_state = apply_time_step(
            item.state, item.step_factor, item.flux, item.rk
        )
        if item.rk < self.params.inner_iterations:
            ctx.emit(
                "flux",
                _CFDItem(
                    new_state,
                    item.outer,
                    rk=item.rk + 1,
                    step_factor=item.step_factor,
                ),
            )
        elif item.outer + 1 < self.params.outer_iterations:
            ctx.emit(
                "step_factor", _CFDItem(new_state, item.outer + 1, rk=0)
            )
        else:
            ctx.emit_output(new_state)

    def execute_batch(self, items, ctxs):
        for indices in group_indices(
            items, lambda it: it.state.density.size
        ).values():
            group = [items[i] for i in indices]
            density, momentum, energy = _stack_states(group)
            factors = np.stack([it.step_factor for it in group]).min(
                axis=1
            ) / np.array(
                [
                    float(PAPER_INNER_ITERATIONS - it.rk + 1)
                    for it in group
                ]
            )
            residual = np.stack([it.flux for it in group])
            dx = 2 * np.pi / density.shape[1]
            update = factors[:, None, None] * residual / dx * 0.01
            new_density = np.maximum(1e-6, density - update[:, :, 0])
            new_momentum = momentum - update[:, :, 1]
            new_energy = np.maximum(1e-6, energy - update[:, :, 2])
            for row, i in enumerate(indices):
                item = items[i]
                new_state = ChunkState(
                    item.state.chunk_id,
                    new_density[row],
                    new_momentum[row],
                    new_energy[row],
                )
                if item.rk < self.params.inner_iterations:
                    ctxs[i].emit(
                        "flux",
                        _CFDItem(
                            new_state,
                            item.outer,
                            rk=item.rk + 1,
                            step_factor=item.step_factor,
                        ),
                    )
                elif item.outer + 1 < self.params.outer_iterations:
                    ctxs[i].emit(
                        "step_factor",
                        _CFDItem(new_state, item.outer + 1, rk=0),
                    )
                else:
                    ctxs[i].emit_output(new_state)
        return [self.cost(item) for item in items]

    def cost(self, item: _CFDItem) -> TaskCost:
        return TaskCost(
            item.state.density.size * TIME_STEP_CYCLES_PER_CELL / 256,
            mem_fraction=0.5,
        )


def build_pipeline(params: CFDParams) -> Pipeline:
    return Pipeline(
        [StepFactorStage(), FluxStage(), TimeStepStage(params)],
        name="cfd",
    )


def initial_items(params: CFDParams) -> dict[str, list]:
    return {
        "step_factor": [
            _CFDItem(initial_chunk(params, chunk_id), outer=0, rk=0)
            for chunk_id in range(params.num_chunks)
        ]
    }


def reference_solve(params: CFDParams, chunk_id: int) -> ChunkState:
    """Host-side re-run of the full iteration for one chunk."""
    state = initial_chunk(params, chunk_id)
    for _outer in range(params.outer_iterations):
        factor = compute_step_factor(state)
        for rk in range(1, params.inner_iterations + 1):
            residual = compute_flux(state)
            state = apply_time_step(state, factor, residual, rk)
    return state


def check_outputs(params: CFDParams, outputs: list) -> None:
    assert len(outputs) == params.num_chunks, (
        f"expected {params.num_chunks} final chunk states, got {len(outputs)}"
    )
    by_id = {state.chunk_id: state for state in outputs}
    assert len(by_id) == params.num_chunks
    # Exact match against the host reference on one chunk.
    ref = reference_solve(params, 0)
    np.testing.assert_allclose(by_id[0].density, ref.density, rtol=1e-12)
    np.testing.assert_allclose(by_id[0].energy, ref.energy, rtol=1e-12)
    # Conservation: the periodic flux telescopes, so mass is conserved.
    for chunk_id, state in by_id.items():
        initial_mass = initial_chunk(params, chunk_id).total_mass()
        assert abs(state.total_mass() - initial_mass) < 1e-6 * initial_mass


def versapipe_config(
    pipeline: Pipeline, spec: GPUSpec, params: CFDParams
) -> PipelineConfig:
    """Fine pipeline across all SMs: one block of every stage co-resident
    (eliminating the 14,000 launches and overlapping the three stages)."""
    return PipelineConfig(
        groups=(
            GroupConfig(
                stages=("step_factor", "flux", "time_step"),
                model="fine",
                sm_ids=tuple(range(spec.num_sms)),
                block_map=fit_fine_block_map(
                    pipeline,
                    spec,
                    {"step_factor": 1, "flux": 1, "time_step": 1},
                ),
            ),
        ),
    )


def time_scale(params: CFDParams) -> float:
    """Extrapolation to the paper's mesh size and iteration count."""
    return (PAPER_OUTER_ITERATIONS / params.outer_iterations) * (
        PAPER_CHUNKS / params.num_chunks
    )


WORKLOAD = register_workload(
    WorkloadSpec(
        name="cfd",
        description="Rodinia-style compressible-Euler CFD solver "
        "(missile data set substitute: closed finite-volume rings)",
        stage_count=3,
        structure="loop",
        workload_pattern="static",
        default_params=CFDParams,
        quick_params=lambda: CFDParams(
            num_chunks=4, chunk_cells=256, outer_iterations=6
        ),
        build_pipeline=build_pipeline,
        initial_items=initial_items,
        baseline_model=lambda params: KBKModel(host_bytes_per_wave=4096),
        baseline_name="KBK",
        versapipe_config=versapipe_config,
        check_outputs=check_outputs,
        paper=PaperNumbers(
            baseline_ms=5820.0,
            megakernel_ms=5430.0,
            versapipe_ms=3270.0,
            longest_stage_ms=2970.0,
            item_bytes=12,
        ),
        time_scale=time_scale,
        notes="Default runs 60 outer iterations; absolute times extrapolate "
        "linearly to the paper's 2,000 (time_scale).",
    )
)

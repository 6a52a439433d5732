"""Image Pyramid (Figure 12): Grayscale -> Histogram Equalization -> Resize.

Three stages; Resize is recursive (each level re-enters the stage until the
image is too small).  The paper's analysis (Section 8.3):

* Histogram equalization has a serial CDF portion, runs with a single
  256-thread block per image, and dominates the KBK baseline ("96.1% of
  the time ... most SMs are idle");
* the original baseline processes images one after another (we model it as
  KBK with ``sequential=True``); "KBK with Stream" processes images in
  multiple streams (``lanes > 1``);
* VersaPipe's tuned plan: a Grayscale group on 4 SMs running 6 blocks/SM,
  and a {HistEq, Resize} fine group on 9 SMs with 2 blocks each — 60
  resident blocks total vs the megakernel's 39.

Register budgets are chosen so the occupancy arithmetic lands exactly on
the paper's block counts: Grayscale 42 regs (6 blocks/SM), HistEq 66 (3),
Resize 62 (4), and 2+2 HistEq/Resize blocks exactly filling one K20c
register file — the paper's "originally 3 and 4, fine pipeline ... makes it
feasible to execute 4 blocks (2 each)".
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
from . import images
from .registry import PaperNumbers, WorkloadSpec, register_workload

#: Cost-model constants (cycles), calibrated against Table 2 on K20c.
GRAY_CYCLES_PER_PIXEL = 1.0
HISTEQ_PARALLEL_CYCLES_PER_PIXEL = 0.10
#: Serial CDF portion: fixed cost plus a per-pixel histogram pass.
HISTEQ_SERIAL_BASE_CYCLES = 40_000.0
HISTEQ_SERIAL_CYCLES_PER_PIXEL = 0.22
RESIZE_CYCLES_PER_PIXEL = 0.8


@dataclass(frozen=True)
class PyramidParams:
    """Workload parameters (defaults: the Table 2 experiment)."""

    num_images: int = 32
    width: int = 1280
    height: int = 720
    #: Stop recursing when the next level's height would drop below this.
    min_height: int = 24
    seed: int = 2017

    def expected_levels(self) -> int:
        """Pyramid levels emitted per image (excluding the full-size one)."""
        levels = 0
        height = self.height
        while height // 2 >= self.min_height:
            height //= 2
            levels += 1
        return levels


@dataclass(frozen=True)
class _ImageItem:
    image_id: int
    level: int
    pixels: np.ndarray  # HxWx3 (grayscale stage) or HxW afterwards


@dataclass(frozen=True)
class PyramidLevel:
    """One output: a pyramid level of one image."""

    image_id: int
    level: int
    pixels: np.ndarray


class GrayscaleStage(Stage):
    name = "grayscale"
    emits_to = ("histeq",)
    threads_per_item = 256
    threads_per_block = 256
    registers_per_thread = 42
    item_bytes = 12
    code_bytes = 1600

    def execute(self, item: _ImageItem, ctx) -> None:
        gray = images.to_grayscale(item.pixels)
        ctx.emit("histeq", _ImageItem(item.image_id, 0, gray))

    def cost(self, item: _ImageItem) -> TaskCost:
        pixels = item.pixels.shape[0] * item.pixels.shape[1]
        return TaskCost(
            cycles_per_thread=pixels * GRAY_CYCLES_PER_PIXEL / 256,
            mem_fraction=0.55,
        )


class HistEqStage(Stage):
    name = "histeq"
    emits_to = ("resize",)
    threads_per_item = 256
    threads_per_block = 256
    registers_per_thread = 66
    item_bytes = 12
    code_bytes = 2400

    def execute(self, item: _ImageItem, ctx) -> None:
        equalized = images.equalize_histogram(item.pixels)
        ctx.emit("resize", _ImageItem(item.image_id, 0, equalized))

    def cost(self, item: _ImageItem) -> TaskCost:
        pixels = item.pixels.shape[0] * item.pixels.shape[1]
        return TaskCost(
            cycles_per_thread=pixels * HISTEQ_PARALLEL_CYCLES_PER_PIXEL / 256,
            mem_fraction=0.35,
            min_cycles=HISTEQ_SERIAL_BASE_CYCLES
            + pixels * HISTEQ_SERIAL_CYCLES_PER_PIXEL,
        )


class ResizeStage(Stage):
    name = "resize"
    emits_to = ("resize", OUTPUT)
    threads_per_item = 256
    threads_per_block = 256
    registers_per_thread = 62
    item_bytes = 12
    code_bytes = 2000

    def __init__(self, min_height: int) -> None:
        super().__init__()
        self.min_height = min_height

    def execute(self, item: _ImageItem, ctx) -> None:
        ctx.emit_output(PyramidLevel(item.image_id, item.level, item.pixels))
        if item.pixels.shape[0] // 2 >= self.min_height:
            smaller = images.downsample2x(item.pixels)
            ctx.emit(
                "resize", _ImageItem(item.image_id, item.level + 1, smaller)
            )

    def cost(self, item: _ImageItem) -> TaskCost:
        pixels = item.pixels.shape[0] * item.pixels.shape[1]
        return TaskCost(
            cycles_per_thread=pixels * RESIZE_CYCLES_PER_PIXEL / 256,
            mem_fraction=0.6,
        )


def build_pipeline(params: PyramidParams) -> Pipeline:
    return Pipeline(
        [GrayscaleStage(), HistEqStage(), ResizeStage(params.min_height)],
        name="pyramid",
    )


def initial_items(params: PyramidParams) -> dict[str, list]:
    return {
        "grayscale": [
            _ImageItem(
                image_id,
                0,
                images.synthetic_rgb_image(
                    params.seed + image_id, params.width, params.height
                ),
            )
            for image_id in range(params.num_images)
        ]
    }


def reference_pyramid(params: PyramidParams, image_id: int) -> list[np.ndarray]:
    """Ground truth: the levels the pipeline should output for one image."""
    rgb = images.synthetic_rgb_image(
        params.seed + image_id, params.width, params.height
    )
    level = images.equalize_histogram(images.to_grayscale(rgb))
    levels = [level]
    while level.shape[0] // 2 >= params.min_height:
        level = images.downsample2x(level)
        levels.append(level)
    return levels


def check_outputs(params: PyramidParams, outputs: list) -> None:
    expected_per_image = params.expected_levels() + 1
    assert len(outputs) == params.num_images * expected_per_image, (
        f"expected {params.num_images * expected_per_image} pyramid levels, "
        f"got {len(outputs)}"
    )
    by_image: dict[int, dict[int, np.ndarray]] = {}
    for out in outputs:
        by_image.setdefault(out.image_id, {})[out.level] = out.pixels
    # Spot-check full fidelity on the first image, shape on the rest.
    ref = reference_pyramid(params, 0)
    for level, expected in enumerate(ref):
        np.testing.assert_array_equal(by_image[0][level], expected)
    for image_id, levels in by_image.items():
        assert len(levels) == expected_per_image


def versapipe_config(
    pipeline: Pipeline, spec: GPUSpec, params: PyramidParams
) -> PipelineConfig:
    """The paper-described plan: Grayscale coarse on ~30% of the SMs, the
    {HistEq, Resize} pair as a fine group on the rest (4 + 9 on K20c)."""
    gray_sms = max(1, round(spec.num_sms * 4 / 13))
    return PipelineConfig(
        groups=(
            GroupConfig(
                stages=("grayscale",),
                model="megakernel",
                sm_ids=tuple(range(gray_sms)),
            ),
            GroupConfig(
                stages=("histeq", "resize"),
                model="fine",
                sm_ids=tuple(range(gray_sms, spec.num_sms)),
                block_map=fit_fine_block_map(
                    pipeline, spec, {"histeq": 2, "resize": 2}
                ),
            ),
        ),
    )


WORKLOAD = register_workload(
    WorkloadSpec(
        name="pyramid",
        description="Image Pyramid: grayscale, histogram equalization, "
        "recursive 2x down-sampling (Oh et al.)",
        stage_count=3,
        structure="recursion",
        workload_pattern="dynamic",
        default_params=PyramidParams,
        quick_params=lambda: PyramidParams(num_images=4, width=320, height=240),
        build_pipeline=build_pipeline,
        initial_items=initial_items,
        baseline_model=lambda params: KBKModel(sequential=True),
        baseline_name="KBK",
        versapipe_config=versapipe_config,
        check_outputs=check_outputs,
        paper=PaperNumbers(
            baseline_ms=14.41,
            megakernel_ms=1.59,
            versapipe_ms=1.37,
            longest_stage_ms=0.80,
            item_bytes=12,
        ),
        notes="32 HD images (Table 2); Figure 13 sweeps 1-32 images.",
    )
)

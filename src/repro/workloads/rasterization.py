"""Rasterization (Figure 16): Clip -> Interpolate -> Shade Pixels.

A software rasteriser for a scene of 100 cubes at 1024x768 (the paper's
setup, ported from Piko/Patney et al.):

* **Clip** transforms one object's triangles to screen space, culls
  back-facing and out-of-frustum triangles, and emits the visible ones;
* **Interpolate** rasterises a triangle: barycentric coverage over its
  bounding box yielding fragments with interpolated depth;
* **Shade Pixels** colours the fragments and emits them as output
  fragments; the framebuffer composite (z-min per pixel) is a commutative
  reduction done by :func:`composite`, so the image is schedule-independent.

The paper's point with this linear, compute-saturated pipeline is that all
models perform within a few percent of each other (32.8 / 30.8 / 30.7 ms)
— everyone saturates the device; only launch overhead and a little task
parallelism separate them.  The registered baseline is the pure-KBK
variant (paper: 33.8 ms); the paper's mixed KBK+RTC baseline fuses Clip
and Interpolate at *triangle* granularity, which our object-granular Clip
items cannot express without concentrating a whole object's rasterisation
into one block (see ``KBKModel(fused_groups=...)`` for the fusion
mechanism and its granularity caveat).
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
from .registry import PaperNumbers, WorkloadSpec, register_workload

#: Cost-model constants (cycles), calibrated against Table 2 on K20c.
#: Per-pixel costs fold the original's multi-sample coverage, attribute
#: interpolation and shading math that our functional substitute skips.
CLIP_CYCLES_PER_TRIANGLE = 2_000.0
RASTER_CYCLES_PER_PIXEL = 7_000.0
SHADE_CYCLES_PER_FRAGMENT = 9_500.0

_CUBE_FACES = [
    (0, 1, 2), (0, 2, 3), (4, 6, 5), (4, 7, 6),
    (0, 4, 5), (0, 5, 1), (3, 2, 6), (3, 6, 7),
    (0, 3, 7), (0, 7, 4), (1, 5, 6), (1, 6, 2),
]
_CUBE_VERTS = np.array(
    [
        [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
        [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class RasterParams:
    width: int = 1024
    height: int = 768
    num_cubes: int = 100
    #: Large triangles are rasterised in horizontal bands of this many
    #: pixel rows (the data-item granularity choice of Section 6).
    band_rows: int = 64
    seed: int = 23


@dataclass(frozen=True)
class _ObjectItem:
    object_id: int
    vertices: np.ndarray  # (8, 3) view-space cube corners


@dataclass(frozen=True)
class _TriangleItem:
    object_id: int
    triangle_id: int
    screen: np.ndarray  # (3, 2) pixel coords
    depth: np.ndarray  # (3,) view depths
    #: Pixel-row range of this band of the triangle's bounding box.
    y0: int = 0
    y1: int = 1 << 30


@dataclass(frozen=True)
class _FragmentBatch:
    object_id: int
    triangle_id: int
    xs: np.ndarray
    ys: np.ndarray
    depths: np.ndarray


@dataclass(frozen=True)
class ShadedFragments:
    """Output unit: shaded fragments of one triangle."""

    object_id: int
    triangle_id: int
    xs: np.ndarray
    ys: np.ndarray
    depths: np.ndarray
    colors: np.ndarray  # (n, 3) in [0, 1]


def scene_objects(params: RasterParams) -> list[_ObjectItem]:
    rng = np.random.default_rng(params.seed)
    objects = []
    for object_id in range(params.num_cubes):
        scale = rng.uniform(0.4, 1.2)
        center = np.array(
            [rng.uniform(-4, 4), rng.uniform(-3, 3), rng.uniform(6, 16)]
        )
        angle = rng.uniform(0, 2 * np.pi)
        rotation = np.array(
            [
                [np.cos(angle), 0, np.sin(angle)],
                [0, 1, 0],
                [-np.sin(angle), 0, np.cos(angle)],
            ]
        )
        verts = (_CUBE_VERTS * scale) @ rotation.T + center
        objects.append(_ObjectItem(object_id, verts))
    return objects


def _project(points: np.ndarray, params: RasterParams) -> np.ndarray:
    """Perspective projection of (..., 3) points to (..., 2) pixel
    coordinates."""
    focal = 0.9 * params.height
    z = np.maximum(points[..., 2], 0.1)
    x = points[..., 0] / z * focal + params.width / 2
    y = points[..., 1] / z * focal + params.height / 2
    return np.stack([x, y], axis=-1)


class ClipStage(Stage):
    name = "clip"
    emits_to = ("interpolate",)
    threads_per_item = 32
    registers_per_thread = 48
    item_bytes = 4
    code_bytes = 2000

    def __init__(self, params: RasterParams) -> None:
        super().__init__()
        self.params = params

    def execute(self, item: _ObjectItem, ctx) -> None:
        screen = _project(item.vertices, self.params)
        depths = item.vertices[:, 2]
        for tri_index, face in enumerate(_CUBE_FACES):
            tri_screen = screen[list(face)]
            tri_depth = depths[list(face)]
            # Back-face cull: CCW-in-screen-space triangles face away.
            edge1 = tri_screen[1] - tri_screen[0]
            edge2 = tri_screen[2] - tri_screen[0]
            if edge1[0] * edge2[1] - edge1[1] * edge2[0] <= 0:
                continue
            # Frustum cull against the viewport.
            if (
                tri_screen[:, 0].max() < 0
                or tri_screen[:, 0].min() >= self.params.width
                or tri_screen[:, 1].max() < 0
                or tri_screen[:, 1].min() >= self.params.height
            ):
                continue
            ys0 = max(0, int(np.floor(tri_screen[:, 1].min())))
            ys1 = min(
                self.params.height - 1, int(np.ceil(tri_screen[:, 1].max()))
            )
            triangle_id = item.object_id * len(_CUBE_FACES) + tri_index
            for band, y0 in enumerate(
                range(ys0, ys1 + 1, self.params.band_rows)
            ):
                ctx.emit(
                    "interpolate",
                    _TriangleItem(
                        item.object_id,
                        triangle_id * 1000 + band,
                        tri_screen,
                        tri_depth,
                        y0=y0,
                        y1=min(ys1, y0 + self.params.band_rows - 1),
                    ),
                )

    def cost(self, item: _ObjectItem) -> TaskCost:
        return TaskCost(
            len(_CUBE_FACES) * CLIP_CYCLES_PER_TRIANGLE / 32,
            mem_fraction=0.4,
        )


def _rasterize(tri: _TriangleItem, params: RasterParams):
    """Barycentric coverage of a triangle's bounding box."""
    xs0 = max(0, int(np.floor(tri.screen[:, 0].min())))
    xs1 = min(params.width - 1, int(np.ceil(tri.screen[:, 0].max())))
    ys0 = max(tri.y0, 0, int(np.floor(tri.screen[:, 1].min())))
    ys1 = min(tri.y1, params.height - 1, int(np.ceil(tri.screen[:, 1].max())))
    if xs1 < xs0 or ys1 < ys0:
        return None
    gx, gy = np.meshgrid(
        np.arange(xs0, xs1 + 1) + 0.5, np.arange(ys0, ys1 + 1) + 0.5
    )
    a, b, c = tri.screen
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    if abs(det) < 1e-12:
        return None
    w1 = ((gx - a[0]) * (c[1] - a[1]) - (gy - a[1]) * (c[0] - a[0])) / det
    w2 = ((b[0] - a[0]) * (gy - a[1]) - (b[1] - a[1]) * (gx - a[0])) / det
    w0 = 1.0 - w1 - w2
    inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
    if not inside.any():
        return None
    depth = (
        w0 * tri.depth[0] + w1 * tri.depth[1] + w2 * tri.depth[2]
    )[inside]
    return (
        gx[inside].astype(np.int32),
        gy[inside].astype(np.int32),
        depth,
    )


class InterpolateStage(Stage):
    name = "interpolate"
    emits_to = ("shade_pixels",)
    threads_per_item = 256
    registers_per_thread = 52
    item_bytes = 4
    code_bytes = 2600

    def __init__(self, params: RasterParams) -> None:
        super().__init__()
        self.params = params

    def execute(self, item: _TriangleItem, ctx) -> None:
        rasterized = _rasterize(item, self.params)
        if rasterized is None:
            return
        xs, ys, depths = rasterized
        ctx.emit(
            "shade_pixels",
            _FragmentBatch(item.object_id, item.triangle_id, xs, ys, depths),
        )

    # No execute_batch override: each triangle band already rasterises
    # thousands of pixels in one numpy pass, so the per-item loop is
    # amortised; a concatenated-grid variant was measured 5x SLOWER
    # (it materialises per-pixel coefficient arrays the scalar path
    # broadcasts as scalars, blowing the cache).

    def cost(self, item: _TriangleItem) -> TaskCost:
        width = item.screen[:, 0].max() - item.screen[:, 0].min()
        top = max(float(item.y0), float(item.screen[:, 1].min()))
        bottom = min(float(item.y1), float(item.screen[:, 1].max()))
        rows = max(1.0, bottom - top + 1)
        bbox_pixels = max(1.0, width * rows)
        return TaskCost(
            bbox_pixels * RASTER_CYCLES_PER_PIXEL / 256, mem_fraction=0.5
        )


class ShadePixelsStage(Stage):
    name = "shade_pixels"
    emits_to = (OUTPUT,)
    threads_per_item = 256
    registers_per_thread = 44
    item_bytes = 4
    code_bytes = 2200

    def execute(self, item: _FragmentBatch, ctx) -> None:
        hue = (item.object_id * 0.61803398875) % 1.0
        shade = 1.0 / (1.0 + 0.06 * item.depths)
        colors = np.stack(
            [shade * hue, shade * (1.0 - hue), shade * 0.5], axis=1
        )
        ctx.emit_output(
            ShadedFragments(
                item.object_id,
                item.triangle_id,
                item.xs,
                item.ys,
                item.depths,
                colors,
            )
        )

    # No execute_batch override: one fragment batch already shades
    # thousands of pixels per numpy call; a concatenate-and-split variant
    # measured 4x slower (hue must be materialised per fragment instead
    # of broadcast as a scalar).

    def cost(self, item: _FragmentBatch) -> TaskCost:
        return TaskCost(
            item.xs.size * SHADE_CYCLES_PER_FRAGMENT / 256, mem_fraction=0.55
        )


def composite(
    params: RasterParams, outputs: list[ShadedFragments]
) -> tuple[np.ndarray, np.ndarray]:
    """Z-min composite of the output fragments into a framebuffer.

    Commutative and associative, so identical for every execution order
    (depth ties cannot occur between distinct random cubes).
    """
    depth_buffer = np.full((params.height, params.width), np.inf)
    color_buffer = np.zeros((params.height, params.width, 3))
    for frag in sorted(outputs, key=lambda f: f.triangle_id):
        for x, y, z, color in zip(frag.xs, frag.ys, frag.depths, frag.colors):
            if z < depth_buffer[y, x]:
                depth_buffer[y, x] = z
                color_buffer[y, x] = color
    return depth_buffer, color_buffer


def build_pipeline(params: RasterParams) -> Pipeline:
    return Pipeline(
        [ClipStage(params), InterpolateStage(params), ShadePixelsStage()],
        name="rasterization",
    )


def initial_items(params: RasterParams) -> dict[str, list]:
    return {"clip": scene_objects(params)}


def check_outputs(params: RasterParams, outputs: list) -> None:
    assert outputs, "rasteriser produced no fragments"
    ids = [f.triangle_id for f in outputs]
    assert len(set(ids)) == len(ids), "duplicate triangles shaded"
    total = sum(f.xs.size for f in outputs)
    assert total > params.num_cubes * 50, "suspiciously few fragments"
    for frag in outputs:
        assert frag.xs.min() >= 0 and frag.xs.max() < params.width
        assert frag.ys.min() >= 0 and frag.ys.max() < params.height
        assert np.all(frag.depths > 0)


def versapipe_config(
    pipeline: Pipeline, spec: GPUSpec, params: RasterParams
) -> PipelineConfig:
    """Near-saturated pipeline: a single fine group over all SMs."""
    return PipelineConfig(
        groups=(
            GroupConfig(
                stages=("clip", "interpolate", "shade_pixels"),
                model="fine",
                sm_ids=tuple(range(spec.num_sms)),
                block_map=fit_fine_block_map(
                    pipeline,
                    spec,
                    {"clip": 1, "interpolate": 2, "shade_pixels": 2},
                ),
            ),
        ),
    )


WORKLOAD = register_workload(
    WorkloadSpec(
        name="rasterization",
        description="Software triangle rasteriser, 100 cubes at 1024x768 "
        "(port of Patney et al.)",
        stage_count=3,
        structure="linear",
        workload_pattern="dynamic",
        default_params=RasterParams,
        quick_params=lambda: RasterParams(width=256, height=192, num_cubes=10),
        build_pipeline=build_pipeline,
        initial_items=initial_items,
        baseline_model=lambda params: KBKModel(),
        baseline_name="KBK",
        versapipe_config=versapipe_config,
        check_outputs=check_outputs,
        paper=PaperNumbers(
            baseline_ms=32.8,
            megakernel_ms=30.8,
            versapipe_ms=30.7,
            longest_stage_ms=30.6,
            item_bytes=4,
        ),
        notes="Models are within a few percent of each other by design.",
    )
)

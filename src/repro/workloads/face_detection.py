"""LBP face detection (Figure 14): the paper's real-world application.

Five stages: Grayscale -> Histogram Equalization -> Resize (the recursive
image pyramid) -> Feature Extraction (LBP codes per pyramid level) ->
Scanning (classify sliding windows).  A *search window band* is the
scanning data item, chosen — as the paper does with single windows — to
load-balance the early-terminating window classifier.

The synthetic substitute for the paper's photo set plants bright elliptical
"faces" at known positions; the classifier compares each window's folded
LBP histogram against the template of a canonically rendered face, so
detector recall is testable (every planted face is found at the pyramid
level matching its size, with a bounded number of false positives).

Register budgets follow Section 8.3: the five per-stage kernels use
56/69/56/61/37 registers (4/3/4/4/6 blocks per K20c SM) while the fused
megakernel uses 87 (2 blocks per SM) — the paper's "at least 3, or at most
6 blocks" vs "only 2 concurrent blocks" contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.config import GroupConfig, PipelineConfig
from ..core.models.kbk import KBKModel
from ..core.models.sm_bound import fit_fine_block_map
from ..core.pipeline import Pipeline
from ..core.stage import OUTPUT, Stage, TaskCost
from ..gpu.specs import GPUSpec
from . import images
from .registry import PaperNumbers, WorkloadSpec, register_workload

WINDOW = 24
STRIDE = 8
# Scanning scores each window as a 3x3 block of STRIDE x STRIDE cells.
assert WINDOW == 3 * STRIDE
HIST_BINS = 16
#: Chi-square distance below which a window is declared a face.
DETECT_THRESHOLD = 0.18

#: Cost-model constants (cycles), calibrated against Table 2 on K20c.
GRAY_CYCLES_PER_PIXEL = 1.0
HISTEQ_PARALLEL_CYCLES_PER_PIXEL = 0.10
HISTEQ_SERIAL_BASE_CYCLES = 40_000.0
HISTEQ_SERIAL_CYCLES_PER_PIXEL = 0.10
RESIZE_CYCLES_PER_PIXEL = 0.8
FEATURE_CYCLES_PER_PIXEL = 8.0
SCAN_CYCLES_PER_WINDOW = 12_000.0


@dataclass(frozen=True)
class FaceDetectionParams:
    num_images: int = 32
    width: int = 1280
    height: int = 720
    #: Stop the pyramid when the next level is shorter than this.
    min_height: int = 64
    #: Window rows per scanning data item.
    band_rows: int = 4
    faces_per_image: int = 3
    seed: int = 50

    def face_positions(self, image_id: int) -> list[tuple[int, int, int]]:
        """Deterministic planted-face placements (x, y, size)."""
        rng = np.random.default_rng(self.seed * 1000 + image_id)
        positions: list[tuple[int, int, int]] = []
        for _ in range(self.faces_per_image):
            # Window-aligned scales so each face is pyramid-matched exactly
            # at level log2(size / WINDOW), and positions snapped to that
            # level's stride grid so a window lands on the face exactly.
            scale = int(rng.choice([1, 2, 4]))
            size = WINDOW * scale
            grid = STRIDE * scale
            x = int(rng.integers(0, (self.width - size) // grid)) * grid
            y = int(rng.integers(0, (self.height - size) // grid)) * grid
            positions.append((x, y, size))
        return positions


@dataclass(frozen=True)
class Detection:
    """One reported face: position/scale in original-image coordinates."""

    image_id: int
    level: int
    x: int
    y: int
    size: int
    score: float


@dataclass(frozen=True)
class _ImageItem:
    image_id: int
    level: int
    pixels: np.ndarray


@dataclass(frozen=True)
class _BandItem:
    image_id: int
    level: int
    row_start: int  # first window row of this band
    num_rows: int
    codes: np.ndarray  # the full level's LBP code map (shared, read-only)
    pixels: np.ndarray  # the level's equalized grayscale (shared, read-only)


@lru_cache(maxsize=1)
def face_template() -> np.ndarray:
    """LBP histogram of a canonical synthetic face at window scale."""
    canvas = np.full((WINDOW + 8, WINDOW + 8), 128, dtype=np.uint8)
    canvas = images.plant_faces(canvas, [(4, 4, WINDOW)])
    codes = images.lbp_codes(canvas[4 : 4 + WINDOW, 4 : 4 + WINDOW])
    return images.lbp_histogram(codes, HIST_BINS)


def _chi_square(hists: np.ndarray, template: np.ndarray) -> np.ndarray:
    diff = hists - template
    denom = hists + template + 1e-9
    return 0.5 * np.sum(diff * diff / denom, axis=1)


#: Minimum (face-interior brightness - eye-socket brightness) for
#: acceptance.  Planted faces score ~180; background scores ~0.
CONTRAST_THRESHOLD = 80.0


def band_scores(item: _BandItem) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square distance to the face template and interior contrast of
    every window in the band, row-major.

    Windows overlap: each is a 3x3 block of STRIDE x STRIDE cells.  So the
    band's folded codes are binned once per cell, and a window's histogram
    is the sum of its nine cell histograms; integer counts make that equal
    to binning the window's 576 codes directly.

    The contrast compares the bright cheek/nose region of the face
    template against the two dark eye sockets — a structural feature
    *inside* the window, so it is invariant to how bright the surrounding
    background happens to be (unlike a centre-vs-corner test, which fails
    for faces planted on bright textured regions).
    """
    n = item.num_rows
    cols = (item.codes.shape[1] - WINDOW) // STRIDE + 1
    cell_rows, cell_cols = n + 2, cols + 2
    y0 = item.row_start * STRIDE
    y1 = y0 + cell_rows * STRIDE
    x1 = cell_cols * STRIDE
    folded = item.codes[y0:y1, :x1] // (256 // HIST_BINS)
    # The cell of each code, by cell row and code column.
    cell = np.arange(cell_rows)[:, None, None] * cell_cols
    cell = cell + np.arange(x1) // STRIDE
    binned = folded.reshape(cell_rows, STRIDE, x1) + HIST_BINS * cell
    counts = np.bincount(
        binned.ravel(), minlength=HIST_BINS * cell_rows * cell_cols
    ).reshape(cell_rows, cell_cols, HIST_BINS)
    counts = counts[:-2] + counts[1:-1] + counts[2:]
    hists = counts[:, :-2] + counts[:, 1:-1] + counts[:, 2:]
    scores = _chi_square(
        hists.reshape(-1, HIST_BINS) / (WINDOW * WINDOW), face_template()
    )
    # The pixel strip under the band, on the code map's grid (codes are
    # (H-2, W-2)): every window is a strided view into it, not a copy.
    strip = item.pixels[1 + y0 : 1 + y1, 1:-1].astype(np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(
        strip, (WINDOW, WINDOW)
    )[::STRIDE, ::STRIDE]
    cheeks = windows[:, :, 11:16, 8:16].mean(axis=(2, 3))
    # Min-pool the eye boxes (rows 5-9; columns 5-9 and 12-16): the dark
    # pupil dot survives resampling misalignment, while smooth background
    # keeps min ~= mean.  The pool is separable: a min over five
    # window-strided row slices, then over five column slices per eye.
    rows = np.min([strip[y::STRIDE][:n] for y in range(5, 10)], axis=0)
    left, right = (
        np.min([rows[:, x::STRIDE][:, :cols] for x in xs], axis=0)
        for xs in (range(5, 10), range(12, 17))
    )
    eyes = (left + right) / 2.0
    return scores, (cheeks - eyes).reshape(-1)


class FDGrayscale(Stage):
    name = "grayscale"
    emits_to = ("histeq",)
    threads_per_item = 256
    registers_per_thread = 56
    item_bytes = 16
    code_bytes = 1600

    def execute(self, item: _ImageItem, ctx) -> None:
        ctx.emit(
            "histeq",
            _ImageItem(item.image_id, 0, images.to_grayscale(item.pixels)),
        )

    def cost(self, item: _ImageItem) -> TaskCost:
        pixels = item.pixels.shape[0] * item.pixels.shape[1]
        return TaskCost(pixels * GRAY_CYCLES_PER_PIXEL / 256, mem_fraction=0.55)


class FDHistEq(Stage):
    name = "histeq"
    emits_to = ("resize",)
    threads_per_item = 256
    registers_per_thread = 69
    item_bytes = 16
    code_bytes = 2400

    def execute(self, item: _ImageItem, ctx) -> None:
        ctx.emit(
            "resize",
            _ImageItem(
                item.image_id, 0, images.equalize_histogram(item.pixels)
            ),
        )

    def cost(self, item: _ImageItem) -> TaskCost:
        pixels = item.pixels.shape[0] * item.pixels.shape[1]
        return TaskCost(
            pixels * HISTEQ_PARALLEL_CYCLES_PER_PIXEL / 256,
            mem_fraction=0.35,
            min_cycles=HISTEQ_SERIAL_BASE_CYCLES
            + pixels * HISTEQ_SERIAL_CYCLES_PER_PIXEL,
        )


class FDResize(Stage):
    name = "resize"
    emits_to = ("resize", "feature")
    threads_per_item = 256
    registers_per_thread = 56
    item_bytes = 16
    code_bytes = 2000

    def __init__(self, min_height: int) -> None:
        super().__init__()
        self.min_height = min_height

    def execute(self, item: _ImageItem, ctx) -> None:
        ctx.emit("feature", item)
        if item.pixels.shape[0] // 2 >= self.min_height:
            ctx.emit(
                "resize",
                _ImageItem(
                    item.image_id,
                    item.level + 1,
                    images.downsample2x(item.pixels),
                ),
            )

    def cost(self, item: _ImageItem) -> TaskCost:
        pixels = item.pixels.shape[0] * item.pixels.shape[1]
        return TaskCost(pixels * RESIZE_CYCLES_PER_PIXEL / 256, mem_fraction=0.6)


class FDFeature(Stage):
    """LBP code extraction for one pyramid level; fans out scan bands."""

    name = "feature"
    emits_to = ("scanning",)
    threads_per_item = 256
    registers_per_thread = 61
    item_bytes = 16
    code_bytes = 2800

    def __init__(self, band_rows: int) -> None:
        super().__init__()
        self.band_rows = band_rows

    def execute(self, item: _ImageItem, ctx) -> None:
        codes = images.lbp_codes(item.pixels)
        window_rows = (codes.shape[0] - WINDOW) // STRIDE + 1
        if window_rows <= 0:
            return
        for row_start in range(0, window_rows, self.band_rows):
            ctx.emit(
                "scanning",
                _BandItem(
                    image_id=item.image_id,
                    level=item.level,
                    row_start=row_start,
                    num_rows=min(self.band_rows, window_rows - row_start),
                    codes=codes,
                    pixels=item.pixels,
                ),
            )

    def cost(self, item: _ImageItem) -> TaskCost:
        pixels = item.pixels.shape[0] * item.pixels.shape[1]
        return TaskCost(
            pixels * FEATURE_CYCLES_PER_PIXEL / 256, mem_fraction=0.5
        )


class FDScanning(Stage):
    """Classify every window in a band against the face template."""

    name = "scanning"
    emits_to = (OUTPUT,)
    threads_per_item = 256
    registers_per_thread = 37
    item_bytes = 16
    code_bytes = 2200

    def execute(self, item: _BandItem, ctx) -> None:
        scores, contrast = band_scores(item)
        cols = (item.codes.shape[1] - WINDOW) // STRIDE + 1
        scale = 2**item.level
        accepted = np.nonzero(
            (scores < DETECT_THRESHOLD) & (contrast > CONTRAST_THRESHOLD)
        )[0]
        for index in accepted:
            row = item.row_start + index // cols
            col = index % cols
            ctx.emit_output(
                Detection(
                    image_id=item.image_id,
                    level=item.level,
                    x=int(col * STRIDE * scale),
                    y=int(row * STRIDE * scale),
                    size=int(WINDOW * scale),
                    score=float(scores[index]),
                )
            )

    def cost(self, item: _BandItem) -> TaskCost:
        cols = (item.codes.shape[1] - WINDOW) // STRIDE + 1
        windows = cols * item.num_rows
        # Early-terminating cascade: most windows reject cheaply; a
        # deterministic per-band factor models content-dependent imbalance.
        variance = 0.75 + 0.5 * ((item.row_start * 7 + item.level * 13) % 8) / 8
        return TaskCost(
            windows * SCAN_CYCLES_PER_WINDOW * variance / 256,
            mem_fraction=0.45,
        )


def build_pipeline(params: FaceDetectionParams) -> Pipeline:
    return Pipeline(
        [
            FDGrayscale(),
            FDHistEq(),
            FDResize(params.min_height),
            FDFeature(params.band_rows),
            FDScanning(),
        ],
        name="face_detection",
        fused_registers=87,  # measured megakernel pressure (Section 8.3)
    )


def initial_items(params: FaceDetectionParams) -> dict[str, list]:
    items = []
    for image_id in range(params.num_images):
        rgb = images.synthetic_rgb_image(
            params.seed + image_id, params.width, params.height
        )
        rgb = images.plant_faces(rgb, params.face_positions(image_id))
        items.append(_ImageItem(image_id, 0, rgb))
    return {"grayscale": items}


def check_outputs(params: FaceDetectionParams, outputs: list) -> None:
    """Every planted face must be detected near its position and scale."""
    by_image: dict[int, list[Detection]] = {}
    for det in outputs:
        by_image.setdefault(det.image_id, []).append(det)
    for image_id in range(params.num_images):
        detections = by_image.get(image_id, [])
        for x, y, size in params.face_positions(image_id):
            hit = any(
                abs(d.x - x) <= size
                and abs(d.y - y) <= size
                and 0.3 <= d.size / size <= 3.0
                for d in detections
            )
            assert hit, (
                f"planted face ({x},{y},{size}) in image {image_id} was not "
                f"detected; got {len(detections)} detections"
            )


def versapipe_config(
    pipeline: Pipeline, spec: GPUSpec, params: FaceDetectionParams
) -> PipelineConfig:
    """A tuned plan in the paper's spirit: the pyramid front-end shares a
    few SMs; feature+scanning (the heavy stages) take the rest fine-grained."""
    front = max(1, round(spec.num_sms * 3 / 13))
    return PipelineConfig(
        groups=(
            GroupConfig(
                stages=("grayscale", "histeq", "resize"),
                model="fine",
                sm_ids=tuple(range(front)),
                block_map=fit_fine_block_map(
                    pipeline, spec, {"grayscale": 1, "histeq": 1, "resize": 1}
                ),
            ),
            GroupConfig(
                stages=("feature", "scanning"),
                model="fine",
                sm_ids=tuple(range(front, spec.num_sms)),
                block_map=fit_fine_block_map(
                    pipeline, spec, {"feature": 1, "scanning": 3}
                ),
            ),
        ),
    )


WORKLOAD = register_workload(
    WorkloadSpec(
        name="face_detection",
        description="LBP face detection over an image pyramid (Oh et al.)",
        stage_count=5,
        structure="recursion",
        workload_pattern="dynamic",
        default_params=FaceDetectionParams,
        quick_params=lambda: FaceDetectionParams(
            num_images=2, width=320, height=240, min_height=60
        ),
        build_pipeline=build_pipeline,
        initial_items=initial_items,
        baseline_model=lambda params: KBKModel(sequential=True),
        baseline_name="KBK",
        versapipe_config=versapipe_config,
        check_outputs=check_outputs,
        paper=PaperNumbers(
            baseline_ms=18.27,
            megakernel_ms=9.09,
            versapipe_ms=5.38,
            longest_stage_ms=5.29,
            item_bytes=16,
        ),
        notes="32 HD images with 3 planted faces each (Table 2).",
    )
)

"""Face Detection's scanning kernel against the per-window formulas.

:func:`repro.workloads.face_detection.band_scores` scores a band of
windows from shared 8x8-cell histograms and strided pixel views.  The
reference below is the direct formula: gather each window's 576 folded
codes and bin them, and read its cheek and eye boxes from its own
24x24 pixel patch.  Histogram counts are integers, ``min`` does not
depend on order, and a cheek mean sums 40 uint8 values (below 2**24),
which float32 holds exactly in any order, so the two must agree bit for
bit: same values, same dtypes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.executor import FunctionalExecutor
from repro.workloads import face_detection as fd
from repro.workloads.face_detection import HIST_BINS, STRIDE, WINDOW


def _windows(array: np.ndarray, row: int) -> np.ndarray:
    """The (cols, WINDOW, WINDOW) windows of one window row."""
    strip = array[row * STRIDE : row * STRIDE + WINDOW]
    return np.lib.stride_tricks.sliding_window_view(
        strip, (WINDOW, WINDOW)
    )[0, ::STRIDE]


def reference_scores(codes: np.ndarray, rows: range) -> np.ndarray:
    """Chi-square distance to the face template of every window whose
    window-row index is in ``rows``, row-major."""
    folded = codes // (256 // HIST_BINS)
    stacked = np.concatenate(
        [_windows(folded, row).reshape(-1, WINDOW * WINDOW) for row in rows]
    )
    n = stacked.shape[0]
    flat = stacked.astype(np.int64) + HIST_BINS * np.arange(n)[:, None]
    hists = np.bincount(flat.ravel(), minlength=n * HIST_BINS).reshape(
        n, HIST_BINS
    ) / (WINDOW * WINDOW)
    template = fd.face_template()
    diff = hists - template
    return 0.5 * np.sum(diff * diff / (hists + template + 1e-9), axis=1)


def reference_contrast(pixels: np.ndarray, rows: range) -> np.ndarray:
    """Cheek mean minus mean eye minimum of every window in ``rows``."""
    cropped = pixels[1:-1, 1:-1].astype(np.float32)
    out = []
    for row in rows:
        windows = _windows(cropped, row)
        cheeks = windows[:, 11:16, 8:16].mean(axis=(1, 2))
        eyes = (
            windows[:, 5:10, 5:10].min(axis=(1, 2))
            + windows[:, 5:10, 12:17].min(axis=(1, 2))
        ) / 2.0
        out.append(cheeks - eyes)
    return np.concatenate(out)


def assert_band_exact(item) -> None:
    rows = range(item.row_start, item.row_start + item.num_rows)
    scores, contrast = fd.band_scores(item)
    want_scores = reference_scores(item.codes, rows)
    want_contrast = reference_contrast(item.pixels, rows)
    assert scores.dtype == want_scores.dtype
    assert contrast.dtype == want_contrast.dtype
    assert np.array_equal(scores, want_scores), item.row_start
    assert np.array_equal(contrast, want_contrast), item.row_start


def band_items(params: fd.FaceDetectionParams) -> list:
    """Every scanning item the pipeline's first four stages produce."""
    executor = FunctionalExecutor(fd.build_pipeline(params))
    frontier = [
        (stage, item)
        for stage, items in fd.initial_items(params).items()
        for item in items
    ]
    bands = []
    while frontier:
        stage, item = frontier.pop()
        if stage == "scanning":
            bands.append(item)
        else:
            frontier.extend(executor.run_task(stage, item).children)
    return bands


def _check_every_band(params: fd.FaceDetectionParams, levels: int) -> None:
    bands = band_items(params)
    assert {(b.image_id, b.level) for b in bands} == {
        (image, level)
        for image in range(params.num_images)
        for level in range(levels)
    }
    assert any(b.num_rows < params.band_rows for b in bands)  # short bands
    for item in bands:
        assert_band_exact(item)


def test_hd_frames_every_band_exact():
    _check_every_band(fd.FaceDetectionParams(num_images=2), levels=4)


def test_quick_shape_every_band_exact():
    _check_every_band(
        fd.FaceDetectionParams(
            num_images=2, width=320, height=240, min_height=60
        ),
        levels=3,
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    height=st.integers(min_value=WINDOW, max_value=120),
    width=st.integers(min_value=WINDOW, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_random_code_maps_exact(height, width, seed, data):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    pixels = rng.integers(0, 256, size=(height + 2, width + 2), dtype=np.uint8)
    window_rows = (height - WINDOW) // STRIDE + 1
    row_start = data.draw(st.integers(0, window_rows - 1), label="row_start")
    num_rows = data.draw(
        st.integers(1, window_rows - row_start), label="num_rows"
    )
    assert_band_exact(
        fd._BandItem(
            image_id=0,
            level=0,
            row_start=row_start,
            num_rows=num_rows,
            codes=codes,
            pixels=pixels,
        )
    )

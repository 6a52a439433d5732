"""Golden text Gantt charts: ``repro timeline`` byte for byte.

``golden/timeline-<workload>-<model>.txt`` holds the whole ``repro
timeline`` output (quick parameters, K20c) for reyes under four
execution models and for ldpc and pyramid under VersaPipe.  The chart
is drawn from the run's ``ComputeSegment`` events, so these files pin
both the SMs' record of their compute activity and the renderer.

Regenerate (only after an intentional model change) from the repo
root::

    PYTHONPATH=src python -m tests.gpu.test_timeline_golden
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import main

_GOLDEN = Path(__file__).parent / "golden"

CASES = (
    ("reyes", "versapipe"),
    ("reyes", "megakernel"),
    ("reyes", "coarse"),
    ("reyes", "kbk"),
    ("ldpc", "versapipe"),
    ("pyramid", "versapipe"),
)


def _golden_path(workload: str, model: str) -> Path:
    return _GOLDEN / f"timeline-{workload}-{model}.txt"


def timeline_text(workload: str, model: str) -> str:
    """Everything ``repro timeline WORKLOAD --model MODEL`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["timeline", workload, "--model", model])
    if code != 0:
        raise RuntimeError(f"repro timeline {workload} exited {code}")
    return out.getvalue()


@pytest.mark.parametrize("workload, model", CASES)
def test_timeline_matches_golden(workload, model):
    expected = _golden_path(workload, model).read_text(encoding="utf-8")
    assert timeline_text(workload, model) == expected


def _write_golden() -> None:
    for workload, model in CASES:
        _golden_path(workload, model).write_text(
            timeline_text(workload, model), encoding="utf-8"
        )


if __name__ == "__main__":
    _write_golden()

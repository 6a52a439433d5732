"""Frozen recording of Face Detection at the paper's HD frame size.

``tests/test_batch_equivalence.py`` pins the quick 320x240 shape end to
end; this pins the 1280x720 shape the benchmarks record, where every
stage sees four pyramid levels and 22 scan bands per full-size level.
``golden/face_detection_hd.json`` holds one sha256 over a recording of
``FaceDetectionParams(num_images=2)``: each trace node's stage, cost,
children and output count, in node order, then every recorded
:class:`Detection`.  Any change to a stage kernel that is not
bit-identical (a score rounded differently, a window skipped, a child
emitted out of order) moves it.

Regenerate (only after an intentional change to the workload) from the
repo root::

    PYTHONPATH=src python -m tests.workloads.test_face_detection_golden
"""

import hashlib
import json
from pathlib import Path

from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C
from repro.workloads import face_detection as fd

_GOLDEN = Path(__file__).parent / "golden" / "face_detection_hd.json"

PARAMS = fd.FaceDetectionParams(num_images=2)
_KEY = repr(PARAMS)


def recording_digest(params: fd.FaceDetectionParams) -> str:
    """sha256 of one recording's task graph and detections."""
    _profile, trace = profile_pipeline(
        fd.build_pipeline(params),
        K20C,
        fd.initial_items(params),
        record_outputs=True,
    )
    hasher = hashlib.sha256()
    for node in trace.nodes:
        hasher.update(
            f"{node.node_id}|{node.stage}|{node.cost!r}|{node.children!r}"
            f"|{node.n_outputs}\n".encode()
        )
    for node_id in sorted(trace.recorded_outputs):
        for det in trace.recorded_outputs[node_id]:
            hasher.update(
                f"{node_id}:{det.image_id}|{det.level}|{det.x}|{det.y}"
                f"|{det.size}|{det.score!r}\n".encode()
            )
    return hasher.hexdigest()


def test_hd_recording_is_frozen():
    golden = json.loads(_GOLDEN.read_text())
    assert recording_digest(PARAMS) == golden[_KEY]


if __name__ == "__main__":
    _GOLDEN.parent.mkdir(exist_ok=True)
    record = {_KEY: recording_digest(PARAMS)}
    _GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")

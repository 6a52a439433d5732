"""Frozen recordings of Pyramid, LDPC and Rasterization at paper scale.

``tests/test_batch_equivalence.py`` compares stage kernels with each
other at quick sizes; this pins what the recordings the benchmarks make
actually contain.  ``golden/recordings.json`` holds one sha256 per
workload over a recording of:

* Pyramid at ``PyramidParams(num_images=2)`` (HD frames, all six levels);
* LDPC and Rasterization at their default, paper-scale parameters.

Each digest covers every trace node's id, stage, ``TaskCost`` repr,
children and output count, in node order, then every recorded output
payload: dataclass fields in declaration order, and arrays by dtype,
shape and C-order bytes.  Any kernel change that is not bit-identical
moves it.  ``test_face_detection_golden.py`` pins Face Detection the
same way.

Regenerate (only after an intentional change to a workload) from the
repo root::

    PYTHONPATH=src python -m tests.workloads.test_recording_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import K20C
from repro.workloads import ldpc, pyramid, rasterization
from repro.workloads.registry import get_workload

_GOLDEN = Path(__file__).parent / "golden" / "recordings.json"

PARAMS = {
    "pyramid": pyramid.PyramidParams(num_images=2),
    "ldpc": ldpc.LDPCParams(),
    "rasterization": rasterization.RasterParams(),
}


def _feed(hasher, value) -> None:
    """Hash one payload value exactly: arrays by dtype, shape and bytes,
    dataclasses field by field, anything else by type and repr."""
    if isinstance(value, np.ndarray):
        hasher.update(f"ndarray|{value.dtype.str}|{value.shape}|".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        hasher.update(f"{type(value).__name__}(".encode())
        for field in dataclasses.fields(value):
            hasher.update(f"{field.name}=".encode())
            _feed(hasher, getattr(value, field.name))
        hasher.update(b")")
    else:
        hasher.update(f"{type(value).__name__}:{value!r}".encode())
    hasher.update(b"\n")


def recording_digest(name: str) -> str:
    """sha256 of one recording's task graph and output payloads."""
    spec = get_workload(name)
    params = PARAMS[name]
    _profile, trace = profile_pipeline(
        spec.build_pipeline(params),
        K20C,
        spec.initial_items(params),
        record_outputs=True,
    )
    hasher = hashlib.sha256()
    for node in trace.nodes:
        hasher.update(
            f"{node.node_id}|{node.stage}|{node.cost!r}|{node.children!r}"
            f"|{node.n_outputs}\n".encode()
        )
    for node_id in sorted(trace.recorded_outputs):
        hasher.update(f"outputs of {node_id}\n".encode())
        for payload in trace.recorded_outputs[node_id]:
            _feed(hasher, payload)
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_recording_is_frozen(name):
    golden = json.loads(_GOLDEN.read_text())
    assert recording_digest(name) == golden[repr(PARAMS[name])]


if __name__ == "__main__":
    _GOLDEN.parent.mkdir(exist_ok=True)
    record = {repr(PARAMS[name]): recording_digest(name) for name in PARAMS}
    _GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")

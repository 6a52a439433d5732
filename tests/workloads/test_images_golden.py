"""Frozen bytes of the synthetic input images.

Pyramid and Face Detection build every input from
:func:`repro.workloads.images.synthetic_rgb_image`, so any change to its
arithmetic (dtype of an intermediate, order of the random draws, where
rounding happens) silently changes every downstream image result.
``golden/synthetic_images.json`` holds the sha256 of each image's bytes
for a fixed set of seeds and sizes: the default HD size and the quick
size of both workloads' first seeds, plus a few small and odd shapes.

Regenerate (only after an intentional change to the images) from the
repo root::

    PYTHONPATH=src python -m tests.workloads.test_images_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads import images

_GOLDEN = Path(__file__).parent / "golden" / "synthetic_images.json"

#: (seed, width, height): the first seeds of Pyramid (2017) and Face
#: Detection (50) at their default and quick sizes, then small shapes.
_CASES = (
    [(seed, 1280, 720) for seed in (2017, 2018, 50, 51)]
    + [(seed, 320, 240) for seed in (2017, 2018, 2019, 2020, 50, 51, 52, 53)]
    + [(3, 64, 48), (0, 100, 80), (1, 40, 30), (7, 33, 17)]
)


def _key(seed: int, width: int, height: int) -> str:
    return f"{seed}:{width}x{height}"


def _digest(seed: int, width: int, height: int) -> str:
    image = images.synthetic_rgb_image(seed, width, height)
    assert image.shape == (height, width, 3)
    return hashlib.sha256(image.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", _CASES, ids=lambda case: _key(*case))
def test_synthetic_image_bytes_are_frozen(case, golden):
    assert _digest(*case) == golden[_key(*case)]


if __name__ == "__main__":
    _GOLDEN.parent.mkdir(exist_ok=True)
    record = {_key(*case): _digest(*case) for case in _CASES}
    _GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {_GOLDEN}")

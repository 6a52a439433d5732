"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables or figures.  The
*measured quantity of interest* is simulated GPU time, not host wall time,
so benchmarks run each experiment cell exactly once (``benchmark.pedantic``
with one round) and attach the simulated results as ``extra_info``; the
printed tables are the reproduction artifact.

Cells are cached per (workload, model, device) so Table 2 and Figure 11
don't re-simulate the same runs; every cell replays the workload's one
recording from the shared trace cache, and the VersaPipe cell reuses its
row's Megakernel cell as its megakernel candidate.
"""

import os
import sys
from functools import lru_cache

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.gpu.specs import GTX1080, K20C  # noqa: E402
from repro.harness.runner import COLUMNS, run_column  # noqa: E402
from repro.harness.tracecache import DEFAULT_TRACE_CACHE  # noqa: E402
from repro.workloads.registry import all_workloads, get_workload  # noqa: E402

_DEVICES = {"K20c": K20C, "GTX1080": GTX1080}


@lru_cache(maxsize=None)
def cached_cell(workload: str, model: str, device: str):
    """Run one experiment cell once per session."""
    spec = get_workload(workload)
    megakernel = None
    if model == "versapipe":
        megakernel = cached_cell(workload, "megakernel", device)
    return run_column(
        spec,
        model,
        _DEVICES[device],
        spec.default_params(),
        cache=DEFAULT_TRACE_CACHE,
        megakernel=megakernel,
    )


def workload_cells(device: str):
    """All Table-2 columns for every workload on one device."""
    return {
        name: {
            column: cached_cell(name, column, device)
            for column in COLUMNS
        }
        for name in sorted(all_workloads())
    }


@pytest.fixture(scope="session")
def k20c_cells():
    return workload_cells("K20c")


@pytest.fixture(scope="session")
def gtx1080_cells():
    return workload_cells("GTX1080")

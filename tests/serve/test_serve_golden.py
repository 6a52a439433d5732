"""Golden serve payloads, and the compute-once contract of serving.

``golden/serve_payloads.json`` holds the sha256 of each cell's
canonical :meth:`ServeReport.payload` as produced when every request
re-ran its stage code.  The driver now records each cell's request
template once and replays that recording for every request, so these
digests pin that replay moves no simulated result: static cells under
every serve plan, and an admission + dynamic-batching cell.  Plans that
cannot co-reside a workload's stages are frozen as the error they
raise.

Regenerate (only after an intentional model change) from the repo
root::

    PYTHONPATH=src python -m tests.serve.test_serve_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.core.executor import FunctionalExecutor
from repro.core.tuner.profiler import profile_pipeline
from repro.gpu.specs import get_spec
from repro.harness.tracecache import DEFAULT_TRACE_CACHE
from repro.serve import SERVE_MODELS, ServeConfig, serve_workload
from repro.workloads.registry import get_workload

_GOLDEN = Path(__file__).parent / "golden" / "serve_payloads.json"

#: Per-workload budgets just above each workload's unloaded p99.
_SLO_MS = {"ldpc": 7.8, "reyes": 0.024, "face_detection": 0.118}


def _cells() -> dict[str, dict]:
    """Golden cell id -> :class:`ServeConfig` fields.

    The static cells offer ~48 requests, several times the entry items
    of any template (ldpc 6, reyes 8, face_detection 2), so every entry
    is served to many requests.
    """
    cells = {
        f"{name}/{model}": dict(
            workload=name,
            arrival_spec="poisson:3.0",
            duration_ms=16.0,
            slo_ms=_SLO_MS[name],
            model=model,
            seed=11,
        )
        for name in _SLO_MS
        for model in SERVE_MODELS
    }
    cells["ldpc/slo-ewma+batch8"] = dict(
        workload="ldpc",
        arrival_spec="poisson:3.0",
        duration_ms=30.0,
        slo_ms=12.0,
        admission="slo-ewma:1.0",
        max_batch=8,
        seed=0,
    )
    return cells


CELLS = _cells()

#: What a cell whose plan cannot be built freezes as its digest.
REJECTED = "ConfigurationError"


def payload_digest(config: ServeConfig) -> str:
    """sha256 of the cell's canonical payload, or :data:`REJECTED`."""
    try:
        report = serve_workload(config)
    except ConfigurationError:
        return REJECTED
    text = json.dumps(report.payload(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_payload_matches_golden(cell, golden):
    assert payload_digest(ServeConfig(**CELLS[cell])) == golden[cell]


def _template_tasks(config: ServeConfig) -> int:
    spec = get_workload(config.workload)
    params = spec.quick_params()
    _profile, trace = profile_pipeline(
        spec.build_pipeline(params),
        get_spec(config.device),
        spec.initial_items(params),
    )
    return trace.num_tasks


@pytest.mark.parametrize(
    "cell, duration_ms",
    [
        ("ldpc/versapipe", 4.0),
        ("ldpc/versapipe", 40.0),
        ("ldpc/slo-ewma+batch8", 30.0),
    ],
)
def test_stage_code_runs_once_per_template_task(cell, duration_ms, monkeypatch):
    """Whatever the request count, sheds and batching included, a cell
    runs each task of its template through the stage code exactly
    once."""
    config = ServeConfig(**{**CELLS[cell], "duration_ms": duration_ms})
    expected = _template_tasks(config)
    executed = [0]
    nested = [0]
    run_task = FunctionalExecutor.run_task
    run_batch = FunctionalExecutor.run_batch

    def counting_task(self, stage, item):
        if not nested[0]:
            executed[0] += 1
        return run_task(self, stage, item)

    def counting_batch(self, stage, items):
        executed[0] += len(items)
        nested[0] += 1
        try:
            return run_batch(self, stage, items)
        finally:
            nested[0] -= 1

    monkeypatch.setattr(FunctionalExecutor, "run_task", counting_task)
    monkeypatch.setattr(FunctionalExecutor, "run_batch", counting_batch)
    report = serve_workload(config)
    assert report.requests > 0
    assert executed[0] == expected


def test_serving_leaves_shared_trace_cache_untouched():
    """Serving, an adaptive cell included, neither reads nor writes the
    process-wide trace cache."""
    before = (DEFAULT_TRACE_CACHE.stats(), len(DEFAULT_TRACE_CACHE))
    report = serve_workload(ServeConfig(**CELLS["ldpc/slo-ewma+batch8"]))
    assert report.shed
    assert (DEFAULT_TRACE_CACHE.stats(), len(DEFAULT_TRACE_CACHE)) == before


def _write_golden() -> None:
    digests = {
        cell: payload_digest(ServeConfig(**fields))
        for cell, fields in sorted(CELLS.items())
    }
    _GOLDEN.parent.mkdir(exist_ok=True)
    with open(_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _write_golden()

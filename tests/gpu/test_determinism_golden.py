"""Bit-identical-schedule regression test.

The simulator's speed optimisations (engine heap compaction, incremental
SM accounting, exec-layer fast paths) are only admissible if they leave
the event schedule untouched: same event count, same final clock, same
per-stage work.  This test pins that property three ways for each
canonical workload (:mod:`repro.harness.simspeed`):

1. two back-to-back runs fingerprint identically (the simulator is
   deterministic at all);
2. a run with compaction forced on every cancellation (``COMPACT_MIN=1``,
   the most aggressive fast-path setting) fingerprints identically —
   compaction never perturbs event order;
3. every fingerprint matches the committed golden snapshot
   (``tests/gpu/golden/simschedule.json``), captured from the
   pre-optimisation simulator — so the optimised code provably produces
   the schedules the original code did.

If an intentional model change alters schedules, regenerate the golden
file (see its sibling README note in ``docs/simulator.md``).
"""

import json
from pathlib import Path

import pytest

from repro.gpu.engine import Engine
from repro.harness.simspeed import CANONICAL_CASES, run_case

_GOLDEN = Path(__file__).parent / "golden" / "simschedule.json"


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", CANONICAL_CASES)
def test_repeat_runs_are_bit_identical(name):
    first = run_case(name, scale="test").fingerprint()
    second = run_case(name, scale="test").fingerprint()
    assert first == second


@pytest.mark.parametrize("name", CANONICAL_CASES)
def test_forced_compaction_preserves_schedule(name, golden, monkeypatch):
    """The lazy-cancellation fast path (heap compaction) must be invisible
    in the schedule, even when triggered on every single cancellation."""
    monkeypatch.setattr(Engine, "COMPACT_MIN", 1)
    fingerprint = run_case(name, scale="test").fingerprint()
    assert fingerprint == golden[name]


@pytest.mark.parametrize("name", CANONICAL_CASES)
def test_schedule_matches_pre_optimisation_golden(name, golden):
    fingerprint = run_case(name, scale="test").fingerprint()
    assert fingerprint == golden[name], (
        f"{name}: the event schedule drifted from the golden snapshot -- "
        "a performance change altered simulation semantics"
    )


def test_bench_scale_deep_pipeline_pinned():
    """The bench-scale deep-pipeline stress case, which
    ``scripts/profile_run.py synthetic`` profiles, schedules exactly as
    recorded."""
    run = run_case("synthetic_deep", scale="bench")
    assert run.events_processed == 2383
    assert run.num_outputs == 256
    assert run.sim_time_ms == 0.08234701869972723

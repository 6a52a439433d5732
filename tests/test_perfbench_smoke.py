"""Smoke test of the repository benchmark's own code (``perfbench/``).

The benchmark patches package entry points by name (``spans.py``) and
reads report fields by key (``scenarios.py``).  A rename in ``src/``
breaks it without failing any other test, so this smoke runs every
scenario at its small size (``full=False``, seed 0) the two ways the
benchmark does:

* ``traced`` -- ``workers=1``, seeded specs wrapped by the span
  recorder, every layer entry point wrapped, the recorder active; this
  pass then also runs ``fig11_cold``'s quick pass at seed 41, where an
  ldpc frame fails to decode;
* ``pool`` -- ``workers=2`` with the pool probe installed.

Each runs in its own process, because the wrappers patch classes for the
rest of the process.  Both must finish without an exception and without
failed operations, agree on every result digest and simulated product
(``perfbench/run.py``'s ``correct`` rule), and the traced pass must have
counted engine events.  The traced pass's per-scenario event counts,
digests and simulated products must also equal
``golden/perfbench_quick_seed0.json``: an event lost, or a dead heap
entry counted as an event, fails here even on the tuner's deadline and
in-flight-cut stop paths.  Regenerate it (only after an intentional
change to the schedule) from the repo root with
``python tests/test_perfbench_smoke.py record``.  Serving arrival
schedules are written under ``.bench_build/``.  Nothing in
``perfbench/`` is modified.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SEED = 0
GOLDEN = os.path.join(ROOT, "tests", "golden", "perfbench_quick_seed0.json")
#: A benchmark seed at which one of ldpc's six quick frames genuinely
#: fails to decode; ``fig11_cold``'s quick pass must still run clean.
CHANNEL_FAILURE_SEED = 41


def _child(mode: str) -> dict:
    """Run every scenario once in this process; returns the outcomes."""
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import scenarios
    import spans
    from repro.core.tuner.pool import shutdown_pool

    recorder = spans.SpanRecorder() if mode == "traced" else None
    specs = scenarios.install_seeded_specs(
        SEED, wrap=recorder.spec_wrappers if recorder is not None else None
    )
    probe = None
    if recorder is not None:
        recorder.install()
        recorder.active = True
        workers = 1
    else:
        probe = spans.PoolProbe()
        probe.install()
        workers = 2
    outcomes = {}
    channel_failure = None
    try:
        for name, (run, summarize) in scenarios.RUNNERS.items():
            events = recorder.counts["events"] if recorder is not None else 0
            outcome = summarize(run(SEED, workers, full=False), specs)
            outcomes[name] = {
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "digests": outcome.digests,
                "sim": outcome.sim,
                "events": (
                    recorder.counts["events"] - events
                    if recorder is not None
                    else None
                ),
            }
        if recorder is not None:
            # The specs installed above are already wrapped; reseed them.
            run, summarize = scenarios.RUNNERS["fig11_cold"]
            seeded = scenarios.install_seeded_specs(CHANNEL_FAILURE_SEED)
            outcome = summarize(
                run(CHANNEL_FAILURE_SEED, workers, full=False), seeded
            )
            channel_failure = {
                "attempted": outcome.attempted,
                "failed": outcome.failed,
            }
    finally:
        shutdown_pool()
    layers = recorder.layer_metrics() if recorder is not None else {}
    return {
        "outcomes": outcomes,
        "fig11_cold_channel_failure": channel_failure,
        "sim.events": layers.get("sim.events"),
        "pool.dispatches": probe.dispatches if probe is not None else None,
    }


def _pinned(traced: dict) -> dict:
    """The exact, repeatable part of a traced pass's result."""
    return {
        "outcomes": traced["outcomes"],
        "fig11_cold_channel_failure": traced["fig11_cold_channel_failure"],
        "sim.events": traced["sim.events"],
    }


@pytest.fixture(scope="module")
def passes() -> dict:
    results = {}
    for mode in ("traced", "pool"):
        proc = subprocess.run(
            [sys.executable, __file__, mode],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        results[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_every_scenario_runs_clean(passes):
    for mode, result in passes.items():
        outcomes = result["outcomes"]
        assert set(outcomes) == {"fig11_cold", "tune_race", "serve_mix"}
        for name, outcome in outcomes.items():
            assert outcome["attempted"] > 0, (mode, name)
            assert outcome["failed"] == 0, (mode, name, outcome)
            assert outcome["digests"], (mode, name)


def test_fig11_cold_runs_clean_where_a_frame_fails_to_decode(passes):
    outcome = passes["traced"]["fig11_cold_channel_failure"]
    assert outcome == {"attempted": 36, "failed": 0}


def test_traced_and_pool_passes_agree(passes):
    traced = passes["traced"]["outcomes"]
    pool = passes["pool"]["outcomes"]
    for name in traced:
        assert traced[name]["digests"] == pool[name]["digests"], name
        assert traced[name]["sim"] == pool[name]["sim"], name


def test_pool_pass_reaches_the_pool(passes):
    assert passes["pool"]["pool.dispatches"] > 0


def test_traced_pass_counts_engine_events(passes):
    traced = passes["traced"]
    assert traced["sim.events"] > 0
    for name, outcome in traced["outcomes"].items():
        assert outcome["events"] > 0, name


def test_traced_pass_matches_golden(passes):
    with open(GOLDEN) as handle:
        assert _pinned(passes["traced"]) == json.load(handle)


if __name__ == "__main__":
    if sys.argv[1] == "record":
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as out:
            json.dump(_pinned(_child("traced")), out, indent=2, sort_keys=True)
            out.write("\n")
        print(f"wrote {GOLDEN}")
    else:
        print(json.dumps(_child(sys.argv[1]), sort_keys=True))

"""Simulator wall-clock speed benchmark (the PR-3 speed gate).

Unlike every other benchmark here, the quantity of interest is **host
wall time**, not simulated GPU time: figure replays, tuner evaluations
and test runs are all bottlenecked by how many engine events per second
the discrete-event core sustains.

Three canonical workloads (see :mod:`repro.harness.simspeed`) run once
each per measurement; each is repeated a few times and the fastest
repeat is kept.  Results land in ``BENCH_simspeed.json``:

* ``events_per_s`` / ``wall_s`` — raw, machine-dependent (informational);
* ``sim_time_ms`` — simulated time, deterministic, gated by
  ``scripts/check_bench.py`` (a drift means the schedule changed);
* ``event_cost`` — wall seconds per workload event divided by the wall
  seconds per event of a trivial self-rescheduling engine loop measured
  on the same machine.  This machine-normalised, dimensionless cost is
  the wall-clock gate metric: it regresses when per-event simulator
  overhead grows, but is insensitive to how fast the CI host happens
  to be.

The schedule fingerprints are additionally asserted identical across
repeats — a wall-clock fast path must never change the schedule.
"""

import json
import os
import time

import pytest

from repro.gpu.engine import Engine
from repro.harness.simspeed import CANONICAL_CASES, run_case

#: Machine-readable results, written at the repo root so CI can compare
#: them against the committed baseline (scripts/check_bench.py).
_BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_simspeed.json",
)

_REPEATS = 3
_CALIB_EVENTS = 100_000


def _calibrate() -> float:
    """Wall seconds per event of a trivial self-rescheduling chain.

    This is the floor cost of one engine event on this machine and
    Python build; dividing workload per-event costs by it yields a
    machine-neutral overhead ratio.
    """
    best = float("inf")
    for _ in range(_REPEATS):
        engine = Engine()
        remaining = _CALIB_EVENTS

        def chain() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                engine.schedule(1.0, chain)

        engine.schedule(1.0, chain)
        start = time.perf_counter()
        engine.run()
        best = min(best, time.perf_counter() - start)
    return best / _CALIB_EVENTS


def _measure(name: str) -> dict:
    """Best-of-N wall time for one canonical case, plus its fingerprint."""
    fingerprint = None
    best_wall = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        run = run_case(name, scale="bench")
        wall = time.perf_counter() - start
        best_wall = min(best_wall, wall)
        if fingerprint is None:
            fingerprint = run.fingerprint()
        else:
            assert run.fingerprint() == fingerprint, (
                f"{name}: schedule fingerprint changed between repeats — "
                "the simulator is not deterministic"
            )
    return {
        "wall_s": best_wall,
        "events_processed": fingerprint["events_processed"],
        "sim_time_ms": fingerprint["sim_time_ms"],
        "events_per_s": fingerprint["events_processed"] / best_wall,
        "num_outputs": fingerprint["num_outputs"],
    }


def test_simspeed(benchmark):
    """Measure events/sec on the three canonical workloads and emit the
    ``BENCH_simspeed.json`` artifact for the CI regression gate."""

    def sweep():
        calib_s_per_event = _calibrate()
        return calib_s_per_event, {
            name: _measure(name) for name in CANONICAL_CASES
        }

    calib_s_per_event, measured = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    payload = {
        "calibration": {
            "events": _CALIB_EVENTS,
            "s_per_event": calib_s_per_event,
            "events_per_s": 1.0 / calib_s_per_event,
        },
        "workloads": {},
    }
    print("\n=== Simulator speed (wall clock) ===")
    print(
        f"  calibration: {1.0 / calib_s_per_event:,.0f} trivial events/s"
    )
    for name, row in measured.items():
        per_event = row["wall_s"] / row["events_processed"]
        event_cost = per_event / calib_s_per_event
        payload["workloads"][name] = {**row, "event_cost": event_cost}
        print(
            f"  {name:16s} {row['events_processed']:8d} events  "
            f"{row['wall_s'] * 1e3:8.1f} ms wall  "
            f"{row['events_per_s']:10,.0f} ev/s  "
            f"cost {event_cost:6.1f}x"
        )
        assert row["events_processed"] > 0
        assert row["num_outputs"] > 0

    with open(_BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"  wrote {_BENCH_JSON}")


if __name__ == "__main__":  # manual runs without pytest-benchmark
    pytest.main([__file__, "-q", "-s"])

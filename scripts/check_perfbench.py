#!/usr/bin/env python3
"""Exact gate on perfbench's per-layer runs.

Reads the standard output of ``perfbench/run.py --trace 1`` runs and
holds each to its workload's entry in a committed record:

* the JSON result on the last line must say ``"correct": true`` (every
  leg and repetition agreed, ``workers=2`` against ``workers=1``
  included) and ``"failed": 0``;
* every deterministic per-layer metric (all but the host-time ones, see
  :func:`is_wall`) and every result digest the legs printed must equal
  the record exactly.

Host-time metrics are printed and never gated: on a shared runner they
read the host as much as the code.

Usage::

    python3 perfbench/run.py --workload tune_race --seed 0 --seconds 20 \\
        --trace 1 > perfbench-tune_race.txt
    python3 scripts/check_perfbench.py \\
        --record benchmarks/baselines/perfbench_seed0.json \\
        perfbench-tune_race.txt

On a mismatch the run's own entry is printed as JSON, ready to replace
the record's after a deliberate change.  Exit codes: 0 = every run
matches its record, 1 = a run is incorrect or differs from it, 2 = bad
input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

#: Per-layer metrics read off a clock, besides the ``*_s`` seconds.
WALL_RATIOS = ("sim.us_per_event", "pool.utilization", "trace.overhead_ratio")

_HEADER = re.compile(r"^(\S+) seed=(-?\d+) trace=1$")
_DIGEST = re.compile(r"^\s+\w+ digest (\S+): (\S+)$")


def is_wall(name: str) -> bool:
    """True for the per-layer metrics that measure host time."""
    return name.endswith("_s") or name in WALL_RATIOS


def parse_run(text: str) -> dict:
    """One run's workload, seed, result, host-time metrics and ``entry``:
    its deterministic leaves in the record's layout.  A digest the legs
    disagree on holds the sorted list of their values.  Raises
    ValueError for output that is not a finished ``--trace 1`` run."""
    lines = text.strip().splitlines()
    header = _HEADER.match(lines[0]) if lines else None
    if header is None:
        raise ValueError("no 'WORKLOAD seed=N trace=1' header line")
    digests: dict[str, set[str]] = {}
    for match in filter(None, map(_DIGEST.match, lines[1:-1])):
        digests.setdefault(match[1], set()).add(match[2])
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"last line is not a perfbench result: {exc}") from None
    return {
        "workload": header[1],
        "seed": int(header[2]),
        "result": result,
        "wall": {n: v for n, v in sorted(metrics.items()) if is_wall(n)},
        "entry": {
            "digests": {
                name: min(values) if len(values) == 1 else sorted(values)
                for name, values in sorted(digests.items())
            },
            "metrics": {
                n: v for n, v in sorted(metrics.items()) if not is_wall(n)
            },
        },
    }


def check_run(run: dict, record: dict) -> list[str]:
    """Every way ``run`` fails the gate, one line each."""
    failures: list[str] = []
    if run["result"].get("correct") is not True:
        failures.append("correct is not true: legs or repetitions disagree")
    if run["result"].get("failed") != 0:
        failures.append(f"failed is {run['result'].get('failed')!r}, not 0")
    expected = record["workloads"].get(run["workload"])
    if run["seed"] != record["seed"] or expected is None:
        return failures + [
            f"no record for {run['workload']} at seed {run['seed']}"
        ]
    for kind, want in expected.items():
        got = run["entry"][kind]
        failures += [
            f"{kind} {name}: record {want.get(name)!r}, run {got.get(name)!r}"
            for name in sorted(set(want) | set(got))
            if want.get(name) != got.get(name)
        ]
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True,
                        help="committed record of the deterministic leaves")
    parser.add_argument("outputs", nargs="+",
                        help="saved standard output of perfbench/run.py "
                        "--trace 1 runs")
    args = parser.parse_args(argv)
    try:
        with open(args.record, encoding="utf-8") as fh:
            record = json.load(fh)
        runs: list[tuple[str, dict]] = []
        for path in args.outputs:
            with open(path, encoding="utf-8") as fh:
                runs.append((path, parse_run(fh.read())))
    except (OSError, ValueError) as exc:
        print(f"check_perfbench: cannot load inputs: {exc}", file=sys.stderr)
        return 2
    ok = True
    for path, run in runs:
        failures = check_run(run, record)
        entry = run["entry"]
        print(f"== check_perfbench: {path} ({run['workload']}, "
              f"seed {run['seed']}): {len(entry['metrics'])} deterministic "
              f"metrics, {len(entry['digests'])} digest(s) ==")
        for name, value in run["wall"].items():
            print(f"  wall, not gated: {name} = {value:.6g}")
        for line in failures:
            print(f"  FAIL {line}")
        if failures:
            print("run entry:")
            print(json.dumps(entry, indent=2, sort_keys=True))
        ok = ok and not failures
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

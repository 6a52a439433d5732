#!/usr/bin/env python3
"""CI benchmark regression gate.

Compares a freshly generated ``BENCH_*.json`` against the committed
baseline and fails when throughput regresses beyond a threshold.

Both files are arbitrary nested JSON; every numeric leaf whose key ends
in ``_ms`` is a gated metric.  Most are times, where lower is better.
A key ending in ``_per_ms`` is a rate instead (``goodput_per_ms``:
good completions per millisecond), where higher is better.  Each metric
gives a regression ratio that reads above 1 when it got worse:
``current/baseline`` for a time, ``baseline/current`` for a rate.  The
gate statistic is the geometric mean of those ratios over the metrics
present in both files — a geomean above ``1 + threshold`` means
throughput dropped by more than the allowed slice and the check fails.
A baseline metric that is
absent, non-finite or not positive in the current file also fails the
gate: a benchmark that stopped emitting a gated leaf must not turn it
green.  A current metric without a baseline is only noted; zero or
negative baselines are skipped.

A second, independent gate class sets **hard floors**: ``--min
PATH=VALUE`` (repeatable) requires the numeric leaf at ``PATH`` in the
*current* file to be strictly greater than ``VALUE``.  Floors are
absolute claims about the current run — "adaptive serving beats the
static plan under overload" — not drift budgets, so they apply to any
numeric leaf (no suffix filtering), ignore the baseline entirely, and a
missing or non-numeric leaf fails the gate rather than passing
silently.

Usage::

    python scripts/check_bench.py \
        --baseline benchmarks/baselines/BENCH_serve.json \
        --current BENCH_serve.json \
        --threshold 0.10 \
        --min serve.overload.adaptive_goodput_ratio=1.15

Exit codes: 0 = within budget, 1 = regression/floor violation,
2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterator

#: Keys ending in one of these are gated metrics.
METRIC_SUFFIXES = ("_ms",)

#: Gated keys ending in one of these are rates, where higher is better;
#: every other gated key is a time, where lower is better.
RATE_SUFFIXES = ("_per_ms",)


def regression_ratio(key: str, baseline: float, current: float) -> float:
    """How much worse ``current`` is than ``baseline`` (above 1 is
    worse): ``current/baseline`` for a time, the inverse for a rate."""
    if key.endswith(RATE_SUFFIXES):
        return baseline / current
    return current / baseline


def iter_metrics(node, path: str = "") -> Iterator[tuple[str, float]]:
    """Yield (json-path, value) for every finite ``_ms`` leaf under
    ``node``."""
    if isinstance(node, dict):
        for key in sorted(node):
            child_path = f"{path}.{key}" if path else str(key)
            yield from iter_metrics(node[key], child_path)
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from iter_metrics(child, f"{path}[{idx}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        leaf = path.rsplit(".", 1)[-1]
        if leaf.endswith(METRIC_SUFFIXES) and math.isfinite(node):
            yield path, float(node)


def iter_numeric_leaves(node, path: str = "") -> Iterator[tuple[str, float]]:
    """Yield (json-path, value) for *every* numeric leaf under ``node``.

    Unlike :func:`iter_metrics` no suffix filter applies: floor gates
    may anchor on any quantity the benchmark records (speedups, hit
    counts), not just the lower-is-better drift metrics.
    """
    if isinstance(node, dict):
        for key in sorted(node):
            child_path = f"{path}.{key}" if path else str(key)
            yield from iter_numeric_leaves(node[key], child_path)
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from iter_numeric_leaves(child, f"{path}[{idx}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        if math.isfinite(node):
            yield path, float(node)


def parse_min_spec(spec: str) -> tuple[str, float]:
    """Split one ``--min PATH=VALUE`` argument; raises ValueError."""
    path, sep, raw = spec.partition("=")
    if not sep or not path:
        raise ValueError(f"--min expects PATH=VALUE, got {spec!r}")
    return path, float(raw)


def check_floors(
    current: dict[str, float], floors: list[tuple[str, float]]
) -> tuple[bool, str]:
    """Apply every ``--min`` floor to the current file's numeric leaves.

    Returns (ok, report).  A floor whose path is absent from the current
    file *fails* — a benchmark that silently stopped emitting the gated
    quantity must not turn the gate green.
    """
    ok = True
    lines = []
    for path, minimum in floors:
        value = current.get(path)
        if value is None:
            ok = False
            lines.append(
                f"  {path}: MISSING (floor > {minimum:g})  <-- no such "
                f"numeric leaf in current file"
            )
        elif value > minimum:
            lines.append(f"  {path}: {value:.4f} > {minimum:g}  ok")
        else:
            ok = False
            lines.append(
                f"  {path}: {value:.4f} <= {minimum:g}  <-- below floor"
            )
    lines.append(
        "floors PASS" if ok else "floors FAIL: hard minimum not met"
    )
    return ok, "\n".join(lines)


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> tuple[bool, str]:
    """Return (ok, human-readable report)."""
    gated = [key for key in sorted(baseline) if baseline[key] > 0]
    shared = [key for key in gated if current.get(key, 0.0) > 0]
    lines = []
    missing = sorted(set(gated) - set(shared))
    added = sorted(set(current) - set(baseline))
    if missing:
        lines.append(f"error: {len(missing)} baseline metric(s) absent, "
                     "non-finite or <= 0 in the current file: "
                     + ", ".join(missing[:5]))
    if added:
        lines.append(f"note: {len(added)} new metric(s) without baseline: "
                     + ", ".join(added[:5]))
    if not shared:
        lines.append("error: no comparable metrics between the two files")
        return False, "\n".join(lines)

    log_sum = 0.0
    worst_key, worst_ratio = "", 0.0
    for key in shared:
        ratio = regression_ratio(key, baseline[key], current[key])
        log_sum += math.log(ratio)
        flag = ""
        if ratio > 1.0 + threshold:
            flag = "  <-- worse than budget"
        lines.append(
            f"  {key}: {baseline[key]:.4f} -> {current[key]:.4f} "
            f"({ratio:.3f}x){flag}"
        )
        if ratio > worst_ratio:
            worst_key, worst_ratio = key, ratio
    geomean = math.exp(log_sum / len(shared))
    lines.append(
        f"geomean regression ratio over {len(shared)} metric(s): "
        f"{geomean:.4f} (budget <= {1.0 + threshold:.2f})"
    )
    lines.append(f"worst metric: {worst_key} at {worst_ratio:.3f}x")
    if missing:
        lines.append("FAIL: gated baseline metric(s) missing")
        return False, "\n".join(lines)
    ok = geomean <= 1.0 + threshold
    lines.append("PASS" if ok else
                 f"FAIL: geomean throughput regressed beyond "
                 f"{threshold:.0%} budget")
    return ok, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH json")
    parser.add_argument("--current", required=True,
                        help="freshly generated BENCH json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="allowed geomean slowdown (default 0.10 = 10%%)")
    parser.add_argument("--min", dest="floors", action="append",
                        default=[], metavar="PATH=VALUE",
                        help="hard floor: the numeric leaf at PATH in the "
                        "current file must be strictly greater than VALUE "
                        "(repeatable; missing leaves fail)")
    args = parser.parse_args(argv)
    try:
        floors = [parse_min_spec(spec) for spec in args.floors]
    except ValueError as exc:
        print(f"check_bench: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline_payload = json.load(fh)
        with open(args.current, "r", encoding="utf-8") as fh:
            current_payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"check_bench: cannot load inputs: {exc}", file=sys.stderr)
        return 2
    baseline = dict(iter_metrics(baseline_payload))
    current = dict(iter_metrics(current_payload))
    ok, report = compare(baseline, current, args.threshold)
    print(f"== check_bench: {args.current} vs {args.baseline} ==")
    print(report)
    if floors:
        floors_ok, floors_report = check_floors(
            dict(iter_numeric_leaves(current_payload)), floors
        )
        print(f"== check_bench floors: {args.current} ==")
        print(floors_report)
        ok = ok and floors_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

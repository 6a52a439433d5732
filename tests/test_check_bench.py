"""The CI benchmark regression gate (scripts/check_bench.py)."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "check_bench.py",
)

spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
check_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASELINE = {
    "workloads": {
        "reyes": {"best_time_ms": 1.0, "num_evaluated": 80},
        "ldpc": {"best_time_ms": 4.0, "wall_s_workers1": 2.5},
    }
}


class TestIterMetrics:
    def test_only_ms_leaves(self):
        metrics = dict(check_bench.iter_metrics(BASELINE))
        assert metrics == {
            "workloads.reyes.best_time_ms": 1.0,
            "workloads.ldpc.best_time_ms": 4.0,
        }

    def test_cost_leaves_are_not_gated(self):
        """Wall-clock ratios (``_cost``), wall times and throughputs are
        not metrics: the drift gate reads only ``_ms`` leaves."""
        node = {
            "synthetic_deep": {
                "event_cost": 40.0,
                "wall_s": 0.05,
                "events_per_s": 50_000.0,
            }
        }
        assert dict(check_bench.iter_metrics(node)) == {}

    def test_lists_and_bools_handled(self):
        node = {"runs": [{"t_ms": 2.0}, {"t_ms": 3.0}], "ok_ms": True}
        metrics = dict(check_bench.iter_metrics(node))
        assert metrics == {"runs[0].t_ms": 2.0, "runs[1].t_ms": 3.0}

    def test_non_finite_skipped(self):
        assert dict(check_bench.iter_metrics({"x_ms": float("inf")})) == {}


class TestGate:
    def test_identical_passes(self, tmp_path):
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", BASELINE)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 0

    def test_small_regression_within_budget(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["workloads"]["reyes"]["best_time_ms"] = 1.05
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 0

    def test_large_regression_fails(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["workloads"]["reyes"]["best_time_ms"] = 1.3
        current["workloads"]["ldpc"]["best_time_ms"] = 5.2
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 1

    def test_threshold_flag_loosens_budget(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["workloads"]["reyes"]["best_time_ms"] = 1.3
        current["workloads"]["ldpc"]["best_time_ms"] = 5.2
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        code = check_bench.main(
            ["--baseline", base, "--current", cur, "--threshold", "0.5"]
        )
        assert code == 0

    def test_geomean_not_worst_case(self, tmp_path):
        """One slow metric inside an otherwise-flat set must not trip the
        geomean gate (that is the point of using a geomean)."""
        current = json.loads(json.dumps(BASELINE))
        current["workloads"]["reyes"]["best_time_ms"] = 1.15
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 0

    def test_speedup_passes(self, tmp_path):
        current = json.loads(json.dumps(BASELINE))
        current["workloads"]["reyes"]["best_time_ms"] = 0.5
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 0

    def test_missing_metric_fails(self, tmp_path, capsys):
        """A gated baseline leaf that vanished from the current file
        fails the gate, even though the leaves left are unchanged."""
        current = json.loads(json.dumps(BASELINE))
        del current["workloads"]["ldpc"]
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 1
        out = capsys.readouterr().out
        assert "workloads.ldpc.best_time_ms" in out
        assert "PASS" not in out

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unusable_current_metric_fails(self, tmp_path, value):
        current = json.loads(json.dumps(BASELINE))
        current["workloads"]["ldpc"]["best_time_ms"] = value
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 1

    def test_new_metric_noted_not_fatal(self, tmp_path, capsys):
        current = json.loads(json.dumps(BASELINE))
        current["workloads"]["cfd"] = {"best_time_ms": 9.0}
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(["--baseline", base, "--current", cur]) == 0
        assert "without baseline" in capsys.readouterr().out

    def test_no_shared_metrics_fails(self, tmp_path):
        base = _write(tmp_path, "base.json", {"a_ms": 1.0})
        cur = _write(tmp_path, "cur.json", {"b_ms": 1.0})
        assert check_bench.main(["--baseline", base, "--current", cur]) == 1

    def test_unreadable_input_is_exit_2(self, tmp_path):
        cur = _write(tmp_path, "cur.json", BASELINE)
        code = check_bench.main(
            ["--baseline", str(tmp_path / "missing.json"), "--current", cur]
        )
        assert code == 2

    def test_malformed_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        cur = _write(tmp_path, "cur.json", BASELINE)
        code = check_bench.main(
            ["--baseline", str(bad), "--current", cur]
        )
        assert code == 2


class TestRates:
    """``*_per_ms`` leaves are rates: higher is better."""

    def _overload_arm(self):
        path = os.path.join(
            os.path.dirname(_SCRIPT), "..", "benchmarks", "baselines",
            "BENCH_serve.json",
        )
        with open(path, encoding="utf-8") as fh:
            overload = json.load(fh)["serve"]["overload"]
        return {"serve": {"overload": overload}}

    def test_rate_ratio_is_inverted(self):
        assert check_bench.regression_ratio("a.goodput_per_ms", 2.0, 1.0) == 2.0
        assert check_bench.regression_ratio("a.latency_p99_ms", 2.0, 1.0) == 0.5

    @pytest.mark.parametrize("factor, code", [(0.5, 1), (2.0, 0)])
    def test_goodput_drop_fails_and_gain_passes(self, tmp_path, factor, code):
        """The committed overload arm, with its adaptive goodput halved
        (a loss: fails) or doubled (a gain: passes)."""
        baseline = self._overload_arm()
        current = json.loads(json.dumps(baseline))
        current["serve"]["overload"]["adaptive_goodput_per_ms"] *= factor
        base = _write(tmp_path, "base.json", baseline)
        cur = _write(tmp_path, "cur.json", current)
        assert check_bench.main(
            ["--baseline", base, "--current", cur]
        ) == code


class TestFloors:
    """The ``--min PATH=VALUE`` hard-floor gate class."""

    def test_floor_met_passes(self, tmp_path):
        payload = dict(BASELINE, suite={"warm_parallel_speedup": 1.4})
        base = _write(tmp_path, "base.json", payload)
        cur = _write(tmp_path, "cur.json", payload)
        code = check_bench.main(
            ["--baseline", base, "--current", cur,
             "--min", "suite.warm_parallel_speedup=1.0"]
        )
        assert code == 0

    def test_floor_violated_fails_even_when_drift_passes(self, tmp_path):
        """A floor is independent of the drift geomean: identical files
        (drift PASS) still fail when the gated leaf is below the floor."""
        payload = dict(BASELINE, suite={"warm_parallel_speedup": 0.88})
        base = _write(tmp_path, "base.json", payload)
        cur = _write(tmp_path, "cur.json", payload)
        code = check_bench.main(
            ["--baseline", base, "--current", cur,
             "--min", "suite.warm_parallel_speedup=1.0"]
        )
        assert code == 1

    def test_floor_is_strictly_greater(self, tmp_path):
        payload = dict(BASELINE, suite={"warm_parallel_speedup": 1.0})
        base = _write(tmp_path, "base.json", payload)
        cur = _write(tmp_path, "cur.json", payload)
        code = check_bench.main(
            ["--baseline", base, "--current", cur,
             "--min", "suite.warm_parallel_speedup=1.0"]
        )
        assert code == 1

    def test_floor_applies_to_unsuffixed_leaves(self, tmp_path, capsys):
        """Floors gate any numeric leaf, not just _ms metrics."""
        payload = dict(BASELINE, suite={"warm_total_hits": 48})
        base = _write(tmp_path, "base.json", payload)
        cur = _write(tmp_path, "cur.json", payload)
        code = check_bench.main(
            ["--baseline", base, "--current", cur,
             "--min", "suite.warm_total_hits=1"]
        )
        assert code == 0
        assert "floors PASS" in capsys.readouterr().out

    def test_missing_floor_leaf_fails(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", BASELINE)
        code = check_bench.main(
            ["--baseline", base, "--current", cur,
             "--min", "suite.vanished_metric=1.0"]
        )
        assert code == 1
        assert "MISSING" in capsys.readouterr().out

    def test_multiple_floors_all_checked(self, tmp_path):
        payload = dict(
            BASELINE, suite={"speedup": 2.0, "hits": 0}
        )
        base = _write(tmp_path, "base.json", payload)
        cur = _write(tmp_path, "cur.json", payload)
        code = check_bench.main(
            ["--baseline", base, "--current", cur,
             "--min", "suite.speedup=1.0", "--min", "suite.hits=1"]
        )
        assert code == 1

    def test_malformed_min_spec_is_exit_2(self, tmp_path):
        base = _write(tmp_path, "base.json", BASELINE)
        cur = _write(tmp_path, "cur.json", BASELINE)
        for bad in ("bogus", "=1.0", "path=notanumber"):
            code = check_bench.main(
                ["--baseline", base, "--current", cur, "--min", bad]
            )
            assert code == 2, bad

    def test_committed_serve_baseline_meets_the_ci_floors(self):
        """The floors wired into ci.yml hold on the committed baseline."""
        path = os.path.join(
            os.path.dirname(_SCRIPT),
            "..",
            "benchmarks",
            "baselines",
            "BENCH_serve.json",
        )
        assert check_bench.main(
            ["--baseline", path, "--current", path,
             "--min", "serve.merged.slo_attainment=0.93",
             "--min", "serve.merged.goodput_per_ms=1.0",
             "--min", "serve.overload.adaptive_goodput_ratio=1.15"]
        ) == 0


class TestRealBaselines:
    """The committed baselines must always self-compare clean."""

    @pytest.mark.parametrize(
        "name",
        ["BENCH_fig11.json", "BENCH_serve.json", "BENCH_tuner.json"],
    )
    def test_baseline_self_compare(self, name):
        path = os.path.join(
            os.path.dirname(_SCRIPT), "..", "benchmarks", "baselines", name
        )
        assert check_bench.main(
            ["--baseline", path, "--current", path]
        ) == 0

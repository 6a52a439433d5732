"""The exact perfbench gate (scripts/check_perfbench.py) and its record."""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_RECORD = os.path.join(_ROOT, "benchmarks", "baselines", "perfbench_seed0.json")


def _load(name, *parts):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_ROOT, *parts)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_perfbench = _load("check_perfbench", "scripts", "check_perfbench.py")

with open(_RECORD, encoding="utf-8") as _fh:
    RECORD = json.load(_fh)

WORKLOADS = sorted(RECORD["workloads"])


def _output(workload, entry, wall=1.5, correct=True, failed=0, seed=0):
    """perfbench/run.py --trace 1 output whose deterministic leaves are
    ``entry``'s and whose host-time metrics all read ``wall``."""
    lines = [f"{workload} seed={seed} trace=1"]
    for label in ("pool", "traced"):
        lines += [
            f"  {label} digest {name}: {value}"
            for name, value in entry["digests"].items()
        ]
    metrics = {
        name: {"unit": "x", "value": value}
        for name, value in entry["metrics"].items()
    }
    for name in ("sim.run_s", "pool.dispatch_s", *check_perfbench.WALL_RATIOS):
        metrics[name] = {"unit": "x", "value": wall}
    result = {
        "attempted": 9, "correct": correct, "failed": failed,
        "metrics": metrics,
    }
    lines.append(json.dumps(result, sort_keys=True))
    return "\n".join(lines) + "\n"


def _run(tmp_path, record, *outputs):
    record_path = tmp_path / "record.json"
    record_path.write_text(json.dumps(record))
    paths = []
    for index, text in enumerate(outputs):
        path = tmp_path / f"run{index}.txt"
        path.write_text(text)
        paths.append(str(path))
    return check_perfbench.main(["--record", str(record_path), *paths])


def _entry(workload):
    return json.loads(json.dumps(RECORD["workloads"][workload]))


class TestGate:
    def test_runs_equal_to_the_record_pass(self, tmp_path, capsys):
        outputs = [_output(w, _entry(w)) for w in WORKLOADS]
        assert _run(tmp_path, RECORD, *outputs) == 0
        assert capsys.readouterr().out.rstrip().endswith("PASS")

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_perturbed_record_leaf_fails(self, tmp_path, capsys, workload):
        record = json.loads(json.dumps(RECORD))
        record["workloads"][workload]["metrics"]["sim.events"] += 1
        outputs = [_output(w, _entry(w)) for w in WORKLOADS]
        assert _run(tmp_path, record, *outputs) == 1
        out = capsys.readouterr().out
        assert "metrics sim.events" in out
        assert '"sim.events"' in out  # the run's entry, to re-record

    def test_every_deterministic_leaf_is_gated(self, tmp_path):
        entry = _entry("fig11_cold")
        for name, value in entry["metrics"].items():
            record = json.loads(json.dumps(RECORD))
            record["workloads"]["fig11_cold"]["metrics"][name] = value + 0.5
            output = _output("fig11_cold", entry)
            assert _run(tmp_path, record, output) == 1, name

    def test_wall_leaves_are_not_gated(self, tmp_path, capsys):
        output = _output("tune_race", _entry("tune_race"), wall=1e9)
        assert _run(tmp_path, RECORD, output) == 0
        assert "wall, not gated: sim.run_s = 1e+09" in capsys.readouterr().out

    def test_digest_change_fails(self, tmp_path):
        entry = _entry("fig11_cold")
        entry["digests"]["suite"] = "0" * 16
        assert _run(tmp_path, RECORD, _output("fig11_cold", entry)) == 1

    def test_legs_disagreeing_on_a_digest_fail(self, tmp_path):
        text = _output("fig11_cold", _entry("fig11_cold"))
        text = text.replace("  traced digest suite: ", "  traced digest suite: 0")
        assert _run(tmp_path, RECORD, text) == 1

    def test_missing_metric_fails(self, tmp_path):
        entry = _entry("serve_mix")
        del entry["metrics"]["serve.shed"]
        assert _run(tmp_path, RECORD, _output("serve_mix", entry)) == 1

    def test_incorrect_run_fails(self, tmp_path):
        output = _output("serve_mix", _entry("serve_mix"), correct=False)
        assert _run(tmp_path, RECORD, output) == 1

    def test_failed_operations_fail(self, tmp_path):
        output = _output("serve_mix", _entry("serve_mix"), failed=3)
        assert _run(tmp_path, RECORD, output) == 1

    def test_other_seed_fails(self, tmp_path):
        output = _output("serve_mix", _entry("serve_mix"), seed=1)
        assert _run(tmp_path, RECORD, output) == 1

    def test_end_to_end_run_is_bad_input(self, tmp_path):
        text = _output("serve_mix", _entry("serve_mix"))
        text = text.replace("trace=1", "trace=0", 1)
        assert _run(tmp_path, RECORD, text) == 2

    def test_truncated_run_is_bad_input(self, tmp_path):
        text = _output("serve_mix", _entry("serve_mix"))
        assert _run(tmp_path, RECORD, text.splitlines()[0]) == 2

    def test_missing_output_is_bad_input(self, tmp_path):
        record = tmp_path / "record.json"
        record.write_text(json.dumps(RECORD))
        code = check_perfbench.main(
            ["--record", str(record), str(tmp_path / "absent.txt")]
        )
        assert code == 2


class TestRecord:
    """The committed record covers exactly what perfbench reports."""

    perfbench = _load("perfbench_run", "perfbench", "run.py")

    def test_one_entry_per_workload(self):
        assert RECORD["seed"] == 0
        assert set(RECORD["workloads"]) == set(self.perfbench.POOL_WORKERS)

    def test_every_deterministic_metric_recorded(self):
        wall = {n for n in self.perfbench.PER_LAYER if check_perfbench.is_wall(n)}
        assert len(wall) == 12  # nine *_s seconds and three ratios
        for entry in RECORD["workloads"].values():
            assert set(entry["metrics"]) == set(self.perfbench.PER_LAYER) - wall
            assert entry["digests"]

    def test_seed_zero_pins(self):
        events = {
            w: RECORD["workloads"][w]["metrics"]["sim.events"]
            for w in WORKLOADS
        }
        assert events == {
            "fig11_cold": 324_920,
            "tune_race": 1_088_592,
            "serve_mix": 138_862,
        }
        digest = RECORD["workloads"]["fig11_cold"]["digests"]["suite"]
        assert digest.startswith("441f2d77")

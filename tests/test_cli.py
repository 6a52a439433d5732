"""CLI smoke tests (direct main() invocation, captured stdout)."""

import json
import re

import pytest

from repro.cli import main
from repro.core.tuner.pool import shutdown_pool


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestList:
    def test_lists_all_workloads(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in ("pyramid", "face_detection", "reyes", "cfd",
                     "rasterization", "ldpc"):
            assert name in out
        assert "K20c" in out and "GTX1080" in out


class TestRun:
    def test_run_versapipe_quick(self, capsys):
        code, out = run_cli(capsys, "run", "reyes")
        assert code == 0
        assert "ms simulated" in out
        assert "config:" in out

    def test_run_specific_model_and_device(self, capsys):
        code, out = run_cli(
            capsys, "run", "ldpc", "--model", "megakernel",
            "--device", "GTX1080",
        )
        assert code == 0
        assert "GTX1080" in out

    def test_unknown_workload_raises(self, capsys):
        with pytest.raises(KeyError):
            run_cli(capsys, "run", "tetris")

    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "run", "reyes", "--model", "versapipe",
            "--trace-out", str(path),
        )
        assert code == 0
        assert f"wrote trace: {path}" in out
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "C" in phases and "M" in phases

    def test_report_json_writes_run_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "run", "reyes", "--report-json", str(path)
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["label"] == "reyes/versapipe/K20c"
        assert report["counters"]["queue_pushes"] > 0
        assert report["sm_activity"]
        assert report["stage_latency"]

    def test_no_flags_no_observer_output(self, capsys):
        _code, out = run_cli(capsys, "run", "reyes")
        assert "wrote" not in out


class TestCompare:
    def test_compare_prints_speedups(self, capsys):
        code, out = run_cli(capsys, "compare", "rasterization")
        assert code == 0
        assert "baseline" in out
        assert "speedup over baseline" in out

    def test_compare_report_json_per_model_and_aggregate(
        self, capsys, tmp_path
    ):
        path = tmp_path / "cmp.json"
        code, _out = run_cli(
            capsys, "compare", "pyramid", "--report-json", str(path)
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["workload"] == "pyramid"
        assert set(payload["models"]) == {
            "baseline", "megakernel", "versapipe"
        }
        assert payload["aggregate"]["runs"] == 3

    def test_compare_trace_out_writes_per_model_files(
        self, capsys, tmp_path
    ):
        path = tmp_path / "cmp.json"
        code, out = run_cli(
            capsys, "compare", "pyramid", "--trace-out", str(path)
        )
        assert code == 0
        for model in ("baseline", "megakernel", "versapipe"):
            sibling = tmp_path / f"cmp.{model}.json"
            assert sibling.exists(), model
            assert json.loads(sibling.read_text())["traceEvents"]


class TestOneVersaPipeNumber:
    """Every command that prints a VersaPipe time prints the VersaPipe
    column's time, and no output flag changes it."""

    @pytest.mark.parametrize("workload", ["pyramid", "rasterization", "ldpc"])
    def test_output_flags_do_not_move_versapipe(
        self, capsys, tmp_path, workload
    ):
        def versapipe_ms(*argv):
            code, out = run_cli(capsys, *argv)
            assert code == 0
            found = re.findall(
                rf"^(?:{workload} / versapipe on K20c:|  versapipe) +"
                r"([0-9.]+) ms",
                out,
                re.MULTILINE,
            )
            assert len(found) == 1, out
            return found[0]

        run_trace = tmp_path / "run.json"
        compare_trace = tmp_path / "cmp.json"
        times = {
            "run": versapipe_ms("run", workload),
            "run --trace-out": versapipe_ms(
                "run", workload, "--trace-out", str(run_trace)
            ),
            "compare": versapipe_ms("compare", workload),
            "compare --trace-out": versapipe_ms(
                "compare", workload, "--trace-out", str(compare_trace)
            ),
            "timeline": versapipe_ms("timeline", workload),
        }
        assert len(set(times.values())) == 1, times
        label = f"{workload}/versapipe/K20c"
        for path in (run_trace, tmp_path / "cmp.versapipe.json"):
            assert json.loads(path.read_text())["otherData"]["label"] == label


class TestStats:
    def test_stats_prints_report_sections(self, capsys):
        code, out = run_cli(capsys, "stats", "reyes")
        assert code == 0
        assert "per-stage task latency" in out
        assert "per-SM activity" in out
        assert "p50" in out and "p99" in out
        assert "busy" in out and "starved" in out

    def test_stats_with_model_flag(self, capsys):
        code, out = run_cli(
            capsys, "stats", "ldpc", "--model", "megakernel"
        )
        assert code == 0
        assert "run: ldpc/megakernel/K20c" in out


class TestTune:
    def test_tune_quick(self, capsys):
        code, out = run_cli(capsys, "tune", "ldpc", "--budget", "20")
        assert code == 0
        assert "profiled" in out
        assert "best" in out

    def test_tune_workers_and_cache_warm_rerun(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "tuner-cache")
        argv = (
            "tune", "ldpc", "--budget", "12",
            "--workers", "2", "--cache-dir", cache_dir,
        )
        code, cold = run_cli(capsys, *argv)
        assert code == 0
        assert "cache: 0 hits" in cold
        assert "2 workers" in cold

        code, warm = run_cli(capsys, *argv)
        assert code == 0
        assert "/ 0 misses" in warm
        assert "cache: 0 hits" not in warm  # the rerun must hit

    def test_tune_report_json(self, capsys, tmp_path):
        path = tmp_path / "tuner.json"
        code, out = run_cli(
            capsys, "tune", "ldpc", "--budget", "12",
            "--workers", "1", "--report-json", str(path),
        )
        assert code == 0
        assert f"wrote report: {path}" in out
        payload = json.loads(path.read_text())
        assert payload["label"] == "ldpc/K20c"
        assert payload["evaluated"] == 12
        assert payload["completed"] + payload["pruned"] == 12
        assert payload["best_time_ms"] > 0
        assert payload["best_config"]

    def test_tune_no_dominance_flag(self, capsys):
        code, out = run_cli(
            capsys, "tune", "ldpc", "--budget", "12", "--no-dominance"
        )
        assert code == 0
        assert "0 dominated" in out


class TestTimeline:
    def test_timeline_renders_gantt(self, capsys):
        code, out = run_cli(
            capsys, "timeline", "reyes", "--model", "megakernel"
        )
        assert code == 0
        assert "SM00 |" in out
        assert "legend:" in out


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_model_choice_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "reyes", "--model", "warpdrive"])

    def test_stats_has_no_tuner_pass(self, capsys):
        # ``repro tune --cache-dir --budget N`` is the one way to run a
        # memoized search.
        for flag in ("--cache-dir", "--tune-budget"):
            with pytest.raises(SystemExit) as excinfo:
                main(["stats", "ldpc", flag, "4"])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestUnplaceablePlan:
    """A plan the device cannot place is a one-line error, exit 2."""

    @pytest.mark.parametrize("workload", ["reyes", "face_detection"])
    @pytest.mark.parametrize("command", ["run", "timeline", "stats"])
    def test_fine_model_exits_two(self, capsys, command, workload):
        code = main([command, workload, "--model", "fine"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: stages [")
        assert "cannot co-reside" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestBatchingFlags:
    def test_stats_reports_batching_line(self, capsys):
        code, out = run_cli(capsys, "stats", "ldpc")
        assert code == 0
        assert "batch-size" not in out
        assert "replay cache: on (1 trace(s), last run: " in out

    def test_stats_reports_per_run_cache_numbers(self, capsys):
        code, out = run_cli(capsys, "stats", "ldpc")
        assert code == 0
        # The described plan records once; the Megakernel candidate of
        # the VersaPipe column replays that recording.
        assert "last run: 1 hits / 1 misses" in out

    def test_stats_cache_numbers_are_per_invocation(self, capsys):
        # Every invocation builds its own replay cache, so a second one
        # in the same process records again and reports only itself.
        lines = []
        for _ in range(2):
            code, out = run_cli(capsys, "stats", "ldpc")
            assert code == 0
            lines.append(out.splitlines()[-1])
        assert lines[0] == lines[1]
        assert "last run: 1 hits / 1 misses" in lines[1]


class TestArgValidation:
    """Zero/negative --workers and --budget are rejected up front."""

    @pytest.mark.parametrize("value", ["0", "-3", "banana"])
    @pytest.mark.parametrize("flag", ["--workers"])
    def test_bad_values_rejected(self, capsys, flag, value):
        # ``run`` and ``compare`` have no --workers (one workload is one
        # shard); ``bench`` fans its workloads across workers.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "ldpc", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err

    def test_bench_and_compare_validate_too(self, capsys):
        for argv in (
            ["bench", "ldpc", "--workers", "0"],
            ["bench", "ldpc", "--workers", "-1"],
            ["tune", "ldpc", "--workers", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "positive integer" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "ldpc", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "banana"])
    def test_bad_tune_budget_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "ldpc", "--budget", value])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestBench:
    def test_bench_renders_figure11_and_summary(self, capsys):
        code, out = run_cli(
            capsys, "bench", "ldpc", "reyes", "--workers", "2"
        )
        assert code == 0
        assert "VP speedup" in out
        assert "suite: 6 cells" in out
        assert "workers=2" in out

    def test_bench_warm_disk_cache_hits(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "traces")
        argv = (
            "bench", "ldpc", "reyes",
            "--workers", "2", "--trace-cache-dir", cache_dir,
        )
        code, cold = run_cli(capsys, *argv)
        assert code == 0
        # A second CLI invocation starts with a fresh pool; without this
        # the workers that recorded the traces would serve them from
        # memory and the run would never touch the disk layer.
        shutdown_pool()
        code, warm = run_cli(capsys, *argv)
        assert code == 0
        # Warm invocation replays from disk: no misses, >=1 disk hit.
        assert "/ 0 misses" in warm
        import re

        assert re.search(r"disk: [1-9][0-9]*;", warm)
        # The simulated tables are identical cold vs warm.
        table = lambda text: text.split("suite:")[0]  # noqa: E731
        assert table(cold) == table(warm)

    def test_bench_workers_byte_identical_tables(self, capsys, tmp_path):
        _, serial = run_cli(capsys, "bench", "ldpc", "--workers", "1")
        _, parallel = run_cli(capsys, "bench", "ldpc", "--workers", "4")
        table = lambda text: text.split("suite:")[0]  # noqa: E731
        assert table(serial) == table(parallel)

    def test_bench_json_written(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        code, out = run_cli(
            capsys, "bench", "ldpc", "--workers", "2",
            "--bench-json", str(path),
        )
        assert code == 0
        assert f"wrote bench json: {path}" in out
        payload = json.loads(path.read_text())
        assert set(payload) == {"meta", "results"}
        meta = payload["meta"]
        assert meta["schema_version"] >= 1
        assert meta["workers"] == 2
        assert meta["cpu_count"] >= 1
        assert "cache_dir" in meta
        results = payload["results"]
        assert set(results) == {"ldpc"}
        assert set(results["ldpc"]["K20c"]) == {
            "baseline", "megakernel", "versapipe"
        }
        cell = results["ldpc"]["K20c"]["versapipe"]
        assert cell["time_ms"] > 0 and cell["cycles"] > 0
        assert "replayed" not in cell

    def test_bench_all_devices(self, capsys):
        code, out = run_cli(
            capsys, "bench", "ldpc", "--device", "all", "--workers", "2"
        )
        assert code == 0
        assert "[K20c]" in out and "[GTX1080]" in out
        # The PP-Gaia presets joined the sweep: 7 devices x 3 models.
        assert "[H100]" in out and "[T4]" in out and "[MI250X]" in out
        assert "suite: 21 cells" in out

    def test_bench_unknown_workload_raises(self, capsys):
        with pytest.raises(KeyError):
            run_cli(capsys, "bench", "tetris")


class TestServe:
    def test_serve_smoke(self, capsys):
        code, out = run_cli(
            capsys, "serve", "ldpc",
            "--arrival", "poisson:0.5", "--duration", "8",
        )
        assert code == 0
        assert "serve ldpc/versapipe/K20c" in out
        assert "p50=" in out and "p999=" in out
        assert "goodput=" in out and "SLO" in out
        assert "stage " in out

    def test_serve_report_json_and_trace(self, capsys, tmp_path):
        report_path = tmp_path / "serve.json"
        trace_path = tmp_path / "serve_trace.json"
        code, out = run_cli(
            capsys, "serve", "ldpc",
            "--arrival", "poisson:0.5", "--duration", "8",
            "--report-json", str(report_path),
            "--trace-out", str(trace_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert set(payload) == {"meta", "cells", "merged"}
        assert payload["meta"]["schema_version"] >= 1
        assert payload["meta"]["cpu_count"] >= 1
        cell = payload["cells"]["ldpc"]
        assert cell["completed"] == cell["requests"] > 0
        assert cell["latency"]["p99_ms"] >= cell["latency"]["p50_ms"] > 0
        assert cell["slo"]["good"] + cell["slo"]["violations"] == (
            cell["completed"]
        )
        trace = json.loads(trace_path.read_text())
        phases = {
            e.get("ph")
            for e in trace["traceEvents"]
            if e.get("cat") == "request"
        }
        assert {"s", "t", "f"} <= phases

    def test_serve_workers_byte_identical_reports(self, capsys, tmp_path):
        def non_meta(path):
            payload = json.loads(path.read_text())
            payload.pop("meta")
            return json.dumps(payload, sort_keys=True)

        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        argv = (
            "serve", "ldpc", "reyes", "--arrival", "poisson:0.5",
            "--duration", "6",
        )
        code, _ = run_cli(
            capsys, *argv, "--workers", "1", "--report-json", str(serial)
        )
        assert code == 0
        code, _ = run_cli(
            capsys, *argv, "--workers", "3", "--report-json", str(parallel)
        )
        assert code == 0
        assert non_meta(serial) == non_meta(parallel)

    def test_serve_multi_workload_prints_merged(self, capsys):
        code, out = run_cli(
            capsys, "serve", "ldpc", "reyes", "--duration", "5",
        )
        assert code == 0
        assert "merged:" in out

    def test_serve_trace_out_single_workload_only(self, capsys, tmp_path):
        code = main([
            "serve", "ldpc", "reyes",
            "--trace-out", str(tmp_path / "t.json"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "exactly one workload" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("serve", "ldpc", "--duration", "0"),
            ("serve", "ldpc", "--duration", "-5"),
            ("serve", "ldpc", "--slo-ms", "0"),
            ("serve", "ldpc", "--window-ms", "nope"),
            ("serve", "ldpc", "--arrival", "poisson:0"),
            ("serve", "ldpc", "--arrival", "poisson:abc"),
            ("serve", "ldpc", "--arrival", "burst:1,2"),
            ("serve", "ldpc", "--arrival", "uniform:3"),
            ("serve", "ldpc", "--workers", "0"),
            ("serve", "ldpc", "--max-batch", "0"),
            ("serve", "ldpc", "--retune", "2"),
        ],
    )
    def test_serve_flag_validation(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2

    def test_serve_unknown_workload_raises(self, capsys):
        with pytest.raises(KeyError):
            run_cli(capsys, "serve", "tetris")


class TestCompareTraceCache:
    def test_compare_trace_cache_dir_matches_plain(self, capsys, tmp_path):
        _, plain = run_cli(capsys, "compare", "ldpc")
        _, cached = run_cli(
            capsys, "compare", "ldpc",
            "--trace-cache-dir", str(tmp_path / "traces"),
        )
        # The disk-backed run appends a cache summary line; the
        # simulated rows above it are byte-identical.
        assert cached.startswith(plain)
        assert cached[len(plain):] == (
            "  (trace cache: 2 hits / 1 misses (memory: 2, disk: 0; "
            "1 stores))\n"
        )

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.io import load_database, save_database
from repro.model.database import Database


@pytest.fixture
def data_dir(tmp_path):
    db = Database.from_dict(
        {
            "R": [(1, 2), (3, 4), (5, 6)],
            "S": [(1,), (5,)],
            "T": [(4,)],
        }
    )
    directory = str(tmp_path / "data")
    save_database(db, directory)
    return directory


QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);"


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_data(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--query", QUERY])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "figure3", "--scale", "1e-6"])
        assert args.name == "figure3"
        assert args.scale == 1e-6
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_the_sql_backend_is_not_a_choice(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--query", QUERY, "--data", ".", "--backend", "sql"]
            )
        assert "invalid choice: 'sql'" in capsys.readouterr().err


class TestQueryCommand:
    def test_query_inline(self, data_dir, capsys):
        code = main(["query", "--query", QUERY, "--data", data_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy: greedy" in out
        assert "Z: 3 tuples" in out
        assert "net_time_s" in out

    def test_query_from_file_with_plan_and_output(self, data_dir, tmp_path, capsys):
        query_file = tmp_path / "query.sgf"
        query_file.write_text(QUERY)
        out_dir = str(tmp_path / "out")
        code = main(
            [
                "query",
                "--query-file",
                str(query_file),
                "--data",
                data_dir,
                "--strategy",
                "par",
                "--show-plan",
                "--output-dir",
                out_dir,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MR program" in out
        assert "EvalJob" in out
        loaded = load_database(out_dir)
        assert loaded["Z"].tuples() == {(1, 2), (3, 4), (5, 6)}

    def test_query_with_options_disabled(self, data_dir, capsys):
        code = main(
            [
                "query",
                "--query",
                QUERY,
                "--data",
                data_dir,
                "--no-packing",
                "--no-tuple-reference",
                "--cost-model",
                "wang",
            ]
        )
        assert code == 0
        assert "Z: 3 tuples" in capsys.readouterr().out


class TestPlanCommand:
    def test_plan_describes_jobs(self, data_dir, capsys):
        code = main(["plan", "--query", QUERY, "--data", data_dir, "--strategy", "par"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MSJJob" in out
        assert "EvalJob" in out
        assert "rounds" in out


class TestGenerateCommand:
    def test_generate_bsgf_workload(self, tmp_path, capsys):
        out_dir = str(tmp_path / "a3")
        code = main(
            [
                "generate",
                "A3",
                out_dir,
                "--guard-tuples",
                "50",
                "--selectivity",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "generated 5 relations" in out
        db = load_database(out_dir)
        assert len(db["R"]) == 50

    def test_generate_sgf_workload(self, tmp_path, capsys):
        out_dir = str(tmp_path / "c4")
        code = main(["generate", "C4", out_dir, "--guard-tuples", "30"])
        assert code == 0
        db = load_database(out_dir)
        assert "R" in db and "G" in db and "H" in db

    def test_generate_then_query_round_trip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "a3data")
        main(["generate", "A3", out_dir, "--guard-tuples", "40"])
        capsys.readouterr()
        query = (
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) "
            "WHERE S(x) AND T(x) AND U(x) AND V(x);"
        )
        code = main(
            ["query", "--query", query, "--data", out_dir, "--strategy", "1-round"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy: 1-round" in out


class TestExperimentCommand:
    def test_experiment_figure3(self, capsys):
        code = main(["experiment", "figure3", "--scale", "5e-7", "--nodes", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out
        assert "GREEDY" in out

    def test_experiment_table3(self, capsys):
        code = main(["experiment", "table3", "--scale", "5e-7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "selectivity" in out


class TestAutoCommand:
    def test_auto_prints_costs_and_winner(self, capsys):
        code = main(["auto", "A3", "--guard-tuples", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AUTO chose" in out
        # Every applicable BSGF strategy shows up with a cost.
        for name in ("seq", "par", "greedy", "1-round"):
            assert name in out

    def test_auto_show_plan(self, capsys):
        code = main(["auto", "A1", "--guard-tuples", "200", "--show-plan"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MR program" in out

    def test_query_strategy_auto(self, data_dir, capsys):
        code = main(
            ["query", "--query", QUERY, "--data", data_dir, "--strategy", "auto"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Z: 3 tuples" in out


class TestServeCommand:
    def test_serve_reports_cache_and_verifies(self, capsys):
        code = main(
            (
                "serve",
                "--query-ids",
                "A1,A3",
                "--requests",
                "8",
                "--clients",
                "2",
                "--guard-tuples",
                "150",
                "--verify",
            )
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plan-cache hit rate" in out
        assert "all match" in out

    def test_serve_mixed_nested_workloads(self, capsys):
        # C1 and C2 reuse output names (Z1..Z5); queries are served
        # independently so the shared names must not interfere.
        code = main(
            (
                "serve",
                "--query-ids",
                "C1,C2",
                "--requests",
                "4",
                "--clients",
                "2",
                "--guard-tuples",
                "80",
                "--strategy",
                "greedy",
                "--verify",
            )
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all match" in out

    def test_serve_rejects_empty_ids(self):
        with pytest.raises(SystemExit):
            main(["serve", "--query-ids", " , ", "--requests", "2"])


class TestDeltaCommand:
    def test_delta_incremental_matches_recompute(self, capsys):
        code = main(
            [
                "delta",
                "--query-id",
                "A3",
                "--guard-tuples",
                "600",
                "--insert-fraction",
                "0.02",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "outputs identical:     yes" in out
        assert "incremental refresh" in out

    def test_delta_materializes_on_the_chosen_backend(self, capsys):
        code = main(
            ["delta", "--guard-tuples", "300", "--backend", "parallel",
             "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend parallel" in out
        assert "outputs identical:     yes" in out


class TestServeIncremental:
    def test_serve_incremental_refreshes_and_verifies(self, capsys):
        code = main(
            [
                "serve",
                "--query-ids",
                "A1,A3",
                "--requests",
                "8",
                "--guard-tuples",
                "200",
                "--incremental",
                "--insert-tuples",
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "incremental refresh(es)" in out
        assert "refreshed results match direct execution" in out


class TestFuzzIncrementalCommand:
    def test_fuzz_incremental_smoke(self, capsys):
        code = main(
            [
                "fuzz",
                "--incremental",
                "--seed",
                "2",
                "--iterations",
                "4",
                "--backend",
                "serial",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "incremental refreshes agree with full recomputes" in out


class TestKernelCommands:
    def test_bench_kernels_compares_paths_per_workload(self, capsys):
        code = main(["bench", "--kernels", "--guard-tuples", "60"])
        out = capsys.readouterr().out
        assert code == 0
        # One comparison row per Section 5 workload, plus the verified footer.
        for query_id in ("A1", "A3", "B2", "C1", "C4"):
            assert f"\n{query_id} " in out or out.startswith(f"{query_id} "), query_id
        assert "interpreted_s" in out
        assert "outputs and simulated metrics identical across paths: yes" in out

    def test_query_kernel_mode_off_matches_default(self, data_dir, capsys):
        runs = {}
        for mode in ("off", "auto", "on"):
            code = main(
                [
                    "query",
                    "--query",
                    QUERY,
                    "--data",
                    data_dir,
                    "--kernel-mode",
                    mode,
                ]
            )
            assert code == 0
            runs[mode] = capsys.readouterr().out
        # Identical outputs and identical simulated metrics in every mode
        # (only the wall_clock_s line may differ between runs).
        def stable(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("wall_clock_s")
            ]

        assert stable(runs["off"]) == stable(runs["auto"]) == stable(runs["on"])

    def test_query_rejects_unknown_kernel_mode(self, data_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--query",
                    QUERY,
                    "--data",
                    data_dir,
                    "--kernel-mode",
                    "sometimes",
                ]
            )

    def test_fuzz_no_kernel_axis_smoke(self, capsys):
        code = main(
            [
                "fuzz",
                "--seed",
                "4",
                "--iterations",
                "3",
                "--backend",
                "serial",
                "--no-kernel-axis",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "combinations agree with the reference evaluator" in out


class TestTraceCommand:
    def test_trace_writes_validated_chrome_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.json")
        metrics_path = str(tmp_path / "metrics.prom")
        code = main(
            [
                "trace",
                "A3",
                "--guard-tuples",
                "120",
                "--backend",
                "serial",
                "--trace-out",
                trace_path,
                "--metrics-out",
                metrics_path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "request 1 (planning miss):" in out
        assert "request 2 (plan-cache hit):" in out
        assert "service.request" in out
        assert "validated" in out
        from repro import obs

        assert obs.validate_chrome_trace(trace_path) > 0
        with open(metrics_path) as handle:
            text = handle.read()
        assert "repro_service_requests_total 2" in text

    def test_trace_jsonl_format(self, tmp_path, capsys):
        trace_path = str(tmp_path / "spans.jsonl")
        code = main(
            [
                "trace",
                "A1",
                "--guard-tuples",
                "80",
                "--backend",
                "sharded",
                "--shards",  # alone: --workers must not default to a rival width
                "3",
                "--trace-out",
                trace_path,
                "--trace-format",
                "jsonl",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(jsonl)" in out
        from repro import obs

        spans = obs.spans_from_jsonl(trace_path)
        assert {"service.request", "gumbo.plan", "job", "shard_fanout"} <= {
            s.name for s in spans
        }
        fanouts = [s for s in spans if s.name == "shard_fanout"]
        assert {s.attributes["shards"] for s in fanouts} == {3}

    def test_trace_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            main(["trace", "A3", "--trace-format", "xml"])


class TestObsFlags:
    def test_query_trace_export(self, data_dir, tmp_path, capsys):
        trace_path = str(tmp_path / "query-trace.json")
        code = main(
            [
                "query",
                "--query",
                QUERY,
                "--data",
                data_dir,
                "--trace",
                "--trace-out",
                trace_path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        from repro import obs

        assert obs.validate_chrome_trace(trace_path) > 0

    def test_serve_stats_json_to_stdout(self, capsys):
        import json as json_module

        code = main(
            [
                "serve",
                "--query-ids",
                "A1",
                "--requests",
                "4",
                "--guard-tuples",
                "80",
                "--stats-json",
                "-",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        start = out.index("{")
        end = out.rindex("}") + 1
        snapshot = json_module.loads(out[start:end])
        assert snapshot["stats"]["queries_served"] == 4
        assert snapshot["history"]
        record = next(iter(snapshot["history"].values()))
        assert record["queries"] == 4
        assert "exec_seconds" in record
        assert "repro_service_requests_total" in snapshot["metrics"]

    def test_serve_stats_json_to_file(self, tmp_path, capsys):
        import json as json_module

        stats_path = str(tmp_path / "stats.json")
        code = main(
            [
                "serve",
                "--query-ids",
                "A1",
                "--requests",
                "3",
                "--guard-tuples",
                "80",
                "--stats-json",
                stats_path,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote service stats" in out
        with open(stats_path) as handle:
            snapshot = json_module.load(handle)
        assert snapshot["stats"]["queries_served"] == 3
        assert snapshot["stats"]["queries_failed"] == 0

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rank_defaults(self):
        args = build_parser().parse_args(["rank"])
        assert args.capacity == 4
        assert args.direction == "forward"

    def test_figures_choices(self):
        args = build_parser().parse_args(["figures", "fig3"])
        assert args.figure == "fig3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize"])

    def test_simulate_fault_flags(self):
        args = build_parser().parse_args([
            "simulate", "--faults", "pm-crash=1,mig-fail=0.1",
            "--checkpoint", "ck.json", "--resume",
            "--retries", "5", "--cell-timeout", "30",
        ])
        assert args.faults == "pm-crash=1,mig-fail=0.1"
        assert args.checkpoint == "ck.json"
        assert args.resume is True
        assert args.retries == 5
        assert args.cell_timeout == 30.0

    def test_simulate_fault_flags_default_off(self):
        args = build_parser().parse_args(["simulate"])
        assert args.faults is None
        assert args.checkpoint is None
        assert args.resume is False

    def test_graph_build_flags(self):
        args = build_parser().parse_args([
            "graph", "build", "--pm", "M3", "C3", "--strategy", "all",
            "--mode", "full", "--node-limit", "5000",
        ])
        assert args.command == "graph"
        assert args.graph_command == "build"
        assert args.pm == ["M3", "C3"]
        assert args.strategy == "all"
        assert args.mode == "full"
        assert args.node_limit == 5000

    def test_graph_build_defaults(self):
        args = build_parser().parse_args(["graph", "build"])
        assert args.pm == ["M3"]
        assert args.strategy == "balanced"

    def test_graph_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["graph"])


class TestGraphCommand:
    def test_build_reports_nodes_and_source(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path / "graphs"))
        assert main(["graph", "build", "--pm", "C3"]) == 0
        first = capsys.readouterr().out
        assert "C3" in first
        assert "built" in first
        assert main(["graph", "build", "--pm", "C3"]) == 0
        second = capsys.readouterr().out
        assert "cache" in second

    def test_build_without_cache(self, capsys):
        assert main(["graph", "build", "--pm", "C3"]) == 0
        assert "built" in capsys.readouterr().out


class TestRankCommand:
    def test_prints_ranking(self, capsys):
        assert main(["rank", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "profiles: 70" in out
        assert "BPRU" in out

    def test_direction_changes_output(self, capsys):
        main(["rank", "--top", "3", "--direction", "forward"])
        forward = capsys.readouterr().out
        main(["rank", "--top", "3", "--direction", "reverse"])
        reverse = capsys.readouterr().out
        assert forward != reverse


class TestExactCommand:
    def test_reports_optimum(self, capsys):
        assert main(["exact", "--vms", "6", "--pms", "4"]) == 0
        out = capsys.readouterr().out
        assert "optimum:" in out
        assert "FF heuristic:" in out

    def test_infeasible_returns_nonzero(self, capsys):
        assert main(["exact", "--vms", "30", "--pms", "1"]) == 1
        assert "infeasible" in capsys.readouterr().out


class TestSimulateCommand:
    def test_small_simulation(self, capsys):
        code = main(
            ["simulate", "--vms", "20", "--policies", "FF",
             "--repetitions", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FF" in out
        assert "PMs" in out


class TestTestbedCommand:
    def test_small_testbed(self, capsys):
        code = main(
            ["testbed", "--jobs", "30", "--policies", "FF",
             "--hours", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "instances" in out


class TestFiguresCommand:
    def test_fig8_small(self, capsys):
        code = main(
            ["figures", "fig8", "--scale", "20", "40",
             "--repetitions", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 8" in out


class TestLintCommand:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("PRV001", "PRV008"):
            assert code in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("__all__ = []\nx = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "__all__ = []\ntry:\n    x = 1\nexcept:\n    pass\n"
        )
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "PRV006" in out

    def test_shipped_tree_is_clean(self, capsys):
        import repro

        src = str(
            __import__("pathlib").Path(repro.__file__).resolve().parent
        )
        assert main(["lint", src]) == 0


class TestAuditCommand:
    def test_placements_artifact_ok(self, tmp_path, toy_shape, vm2, capsys):
        from repro.analysis.invariants import save_placements
        from repro.core.permutations import balanced_placement
        from repro.model.analytic import PlacementInstance, PlacementSolution

        instance = PlacementInstance(vms=(vm2,), pms=(toy_shape,))
        placement = balanced_placement(
            toy_shape, toy_shape.empty_usage(), vm2
        )
        solution = PlacementSolution(assignments=((0, placement),))
        path = tmp_path / "placements.json"
        save_placements(instance, solution, path)
        assert main(["audit", str(path)]) == 0
        assert "audit OK" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, tmp_path, toy_shape, vm2, capsys):
        from repro.analysis.invariants import save_placements
        from repro.core.permutations import Placement
        from repro.model.analytic import PlacementInstance, PlacementSolution

        instance = PlacementInstance(vms=(vm2,), pms=(toy_shape,))
        collocated = Placement(
            new_usage=((2, 0, 0, 0),), assignments=(((0, 1), (0, 1)),)
        )
        solution = PlacementSolution(assignments=((0, collocated),))
        path = tmp_path / "bad.json"
        save_placements(instance, solution, path)
        assert main(["audit", str(path), "--verbose"]) == 1
        out = capsys.readouterr().out
        assert "audit FAILED" in out
        assert "[C4]" in out

    def test_score_table_artifact_ok(self, tmp_path, toy_table, capsys):
        path = tmp_path / "table.json"
        toy_table.save(path)
        assert main(["audit", str(path)]) == 0
        assert "profiles checked" in capsys.readouterr().out

    def test_unknown_format_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "who.knows"}')
        assert main(["audit", str(path)]) == 2

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "missing.json")]) == 2


class TestSimulateAuditFlag:
    def test_audited_simulate_runs(self, capsys):
        code = main(
            ["simulate", "--vms", "15", "--policies", "FF",
             "--repetitions", "1", "--audit"]
        )
        assert code == 0
        assert "FF" in capsys.readouterr().out


class TestSimulateFaults:
    def test_faulted_simulate_reports_resilience(self, capsys):
        code = main(
            ["simulate", "--vms", "15", "--policies", "FF",
             "--repetitions", "1", "--faults", "pm-crash=1", "--audit"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "down_s" in out
        assert "lost" in out

    def test_bad_fault_spec_rejected(self):
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError, match="bad fault spec"):
            main(
                ["simulate", "--vms", "10", "--policies", "FF",
                 "--repetitions", "1", "--faults", "pm-explode=1"]
            )

    def test_checkpoint_and_resume_reproduce_output(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        base_args = [
            "simulate", "--vms", "15", "--policies", "FF",
            "--repetitions", "1", "--checkpoint", ck,
        ]
        assert main(base_args) == 0
        first = capsys.readouterr().out
        assert main(base_args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestLintFormats:
    DIRTY = "__all__ = []\ntry:\n    x = 1\nexcept:\n    pass\n"

    def test_json_format_emits_machine_readable_findings(
        self, tmp_path, capsys
    ):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        assert main(["lint", str(dirty), "--format", "json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload[0]["code"] == "PRV006"
        # The human summary moves to stderr so stdout stays parseable.
        assert "repro lint" in captured.err

    def test_sarif_format_has_rules_and_results(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        assert main(["lint", str(dirty), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert any(
            rule["id"] == "PRV011"
            for rule in run["tool"]["driver"]["rules"]
        )
        assert run["results"][0]["ruleId"] == "PRV006"

    def test_output_file_keeps_stdout_quiet(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        out = tmp_path / "lint.sarif"
        code = main([
            "lint", str(dirty), "--format", "sarif",
            "--output", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().out == ""
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"]

    def test_stale_suppression_passes_by_default(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("__all__ = []\nx = 1  # prv: disable=PRV006\n")
        assert main(["lint", str(stale)]) == 0
        assert "stale suppression" in capsys.readouterr().out

    def test_strict_suppressions_fails_on_stale(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("__all__ = []\nx = 1  # prv: disable=PRV006\n")
        assert main(["lint", str(stale), "--strict-suppressions"]) == 1
        assert "PRV000" in capsys.readouterr().out


class TestSanitizeCommand:
    def test_run_defaults(self):
        args = build_parser().parse_args(["sanitize", "run"])
        assert args.twin == "soa"
        assert args.pms == 480
        assert args.quick is False
        assert args.seed == 0
        assert args.max_ulps is None
        assert args.dump is None

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sanitize"])

    def test_unknown_twin_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sanitize", "run", "--twin", "gpu"])

    def test_twin_choices_are_the_sanitizer_twins(self, monkeypatch):
        from repro.analysis import sanitize

        for name in sanitize.TWIN_NAMES:
            args = build_parser().parse_args(
                ["sanitize", "run", "--twin", name]
            )
            assert args.twin == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sanitize", "run", "--twin", "rank"])
        # The choices are read from TWIN_NAMES, not a copy of it.
        monkeypatch.setattr(
            sanitize, "TWIN_NAMES", sanitize.TWIN_NAMES + ("probe",)
        )
        args = build_parser().parse_args(
            ["sanitize", "run", "--twin", "probe"]
        )
        assert args.twin == "probe"

    def test_small_soa_run_is_lockstep(self, tmp_path, capsys):
        import json

        dump = tmp_path / "report.json"
        code = main([
            "sanitize", "run", "--twin", "soa", "--pms", "16",
            "--quick", "--dump", str(dump),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        payload = json.loads(dump.read_text())
        assert payload["ok"] is True
        assert "divergence" not in payload
        assert payload["n_events"][0] > 0
        assert payload["n_events"][0] == payload["n_events"][1]


class TestAuditFormats:
    """``repro audit --format json|sarif`` mirrors the lint formats."""

    def save_bad_artifact(self, tmp_path, toy_shape, vm2):
        from repro.analysis.invariants import save_placements
        from repro.core.permutations import Placement
        from repro.model.analytic import PlacementInstance, PlacementSolution

        instance = PlacementInstance(vms=(vm2,), pms=(toy_shape,))
        collocated = Placement(
            new_usage=((2, 0, 0, 0),), assignments=(((0, 1), (0, 1)),)
        )
        solution = PlacementSolution(assignments=((0, collocated),))
        path = tmp_path / "bad.json"
        save_placements(instance, solution, path)
        return path

    def test_json_format_lists_violations(
        self, tmp_path, toy_shape, vm2, capsys
    ):
        import json

        path = self.save_bad_artifact(tmp_path, toy_shape, vm2)
        assert main(["audit", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] is False
        assert "C4" in payload["constraints_violated"]
        assert payload["violations"][0]["constraint"] == "C4"
        # Human summary moves to stderr so stdout stays parseable.
        assert "audit FAILED" in captured.err

    def test_sarif_format_has_constraint_rules(
        self, tmp_path, toy_shape, vm2, capsys
    ):
        import json

        path = self.save_bad_artifact(tmp_path, toy_shape, vm2)
        assert main(["audit", str(path), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"C1", "C4", "C11"} <= rule_ids
        assert run["results"][0]["ruleId"] == "C4"
        assert run["results"][0]["level"] == "error"

    def test_output_file_keeps_stdout_quiet(
        self, tmp_path, toy_shape, vm2, capsys
    ):
        import json

        path = self.save_bad_artifact(tmp_path, toy_shape, vm2)
        out = tmp_path / "audit.sarif"
        code = main([
            "audit", str(path), "--format", "sarif", "--output", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["version"] == "2.1.0"

    def test_json_format_on_clean_artifact(
        self, tmp_path, toy_shape, vm2, capsys
    ):
        import json

        from repro.analysis.invariants import save_placements
        from repro.core.permutations import balanced_placement
        from repro.model.analytic import PlacementInstance, PlacementSolution

        instance = PlacementInstance(vms=(vm2,), pms=(toy_shape,))
        placement = balanced_placement(toy_shape, toy_shape.empty_usage(), vm2)
        solution = PlacementSolution(assignments=((0, placement),))
        path = tmp_path / "ok.json"
        save_placements(instance, solution, path)
        assert main(["audit", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []


class TestServeCommand:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "loadgen"])
        assert args.serve_command == "loadgen"
        assert args.mode == "closed"
        assert args.fleet == "toy"
        assert args.requests == 200
        chaos = parser.parse_args(["serve", "chaos"])
        assert chaos.faults == "pm-crash=2"
        assert chaos.requests == 120

    def test_serve_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_loadgen_records_serve_phase(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_perf.json"
        code = main([
            "serve", "loadgen", "--requests", "12", "--concurrency", "3",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "closed"
        assert sum(report["outcomes"].values()) == 12
        from repro.util.benchfile import latest_entry

        entry = latest_entry(out, phase="serve")
        assert entry is not None and entry["fleet"] == "toy"

    def test_chaos_drill_exits_zero_when_ok(self, capsys):
        code = main([
            "serve", "chaos", "--requests", "30", "--horizon", "300",
            "--corrupt", "50:120", "--stall", "150:170",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos drill: 30 requests" in out
        assert "ledger balanced: True" in out

    def test_run_gated_on_uvicorn(self, capsys):
        try:
            import uvicorn  # noqa: F401
        except ImportError:
            assert main(["serve", "run"]) == 2
            assert "uvicorn" in capsys.readouterr().err
        else:
            pytest.skip("uvicorn installed; serve run would block")


class TestPerfCheckCommand:
    def test_missing_file_is_informational(self, tmp_path, capsys):
        absent = tmp_path / "BENCH_perf.json"
        assert main(["perf", "check", "--file", str(absent)]) == 0
        out = capsys.readouterr().out
        assert "does not exist yet" in out
        assert "nothing to gate" in out

    def test_empty_trajectory_is_informational(self, tmp_path, capsys):
        import json

        from repro.util import benchfile

        empty = tmp_path / "BENCH_perf.json"
        empty.write_text(
            json.dumps({"format": benchfile.BENCH_FORMAT, "entries": []})
        )
        assert main(["perf", "check", "--file", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "no entries yet" in out
        assert "nothing to gate" in out

    def test_malformed_file_still_fails(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_perf.json"
        bad.write_text('{"format": "something.else", "entries": []}')
        assert main(["perf", "check", "--file", str(bad)]) == 2
        assert "perf check:" in capsys.readouterr().out

    def test_quick_only_history_notes_each_phase(self, tmp_path, capsys):
        from pathlib import Path

        from repro.util import benchfile

        out = tmp_path / "BENCH_perf.json"
        for stamp in ("t0", "t1"):
            benchfile.append_entry(
                {
                    "phase": "kernel",
                    "recorded_at": stamp,
                    "quick": True,
                    "sweep_wall_s": 0.005,
                    "sweep_speedup_vs_iterative": 5.0,
                },
                Path(out),
            )
        assert main(["perf", "check", "--file", str(out)]) == 0
        text = capsys.readouterr().out
        assert "only quick entries" in text
        assert "'kernel'" in text


class TestServeHotSwap:
    def test_loadgen_hot_swap_digest_matches_control(self, capsys):
        import json

        code = main([
            "serve", "loadgen", "--requests", "24", "--concurrency", "4",
            "--hot-swap-at", "10",
        ])
        assert code == 0
        swapped = json.loads(capsys.readouterr().out)
        assert swapped["hot_swaps"] == 1
        code = main([
            "serve", "loadgen", "--requests", "24", "--concurrency", "4",
        ])
        assert code == 0
        control = json.loads(capsys.readouterr().out)
        assert "hot_swaps" not in control
        assert swapped["decision_digest"] == control["decision_digest"]

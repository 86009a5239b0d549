"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_staleness, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pagerank_defaults(self):
        args = build_parser().parse_args(["pagerank"])
        assert args.graph == "A"
        assert args.mode == "both"
        assert args.partitions == 8

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pagerank", "--graph", "C"])

    def test_sweep_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.policy == "fair"
        assert args.jobs == "pagerank,kmeans,sssp"

    def test_schedule_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--policy", "lottery"])

    def test_adaptive_sync_flag(self):
        assert build_parser().parse_args(
            ["pagerank", "--adaptive-sync"]).adaptive_sync
        assert not build_parser().parse_args(["sssp"]).adaptive_sync
        assert build_parser().parse_args(
            ["kmeans", "--adaptive-sync"]).adaptive_sync

    def test_sweep_figure_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--figure", "10"])

    def test_async_flags(self):
        args = build_parser().parse_args(
            ["pagerank", "--backend", "async", "--staleness", "2"])
        assert args.backend == "async"
        assert args.staleness == "2"
        assert build_parser().parse_args(["jacobi"]).backend == "block"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pagerank", "--backend", "engine"])


class TestCommands:
    def test_pagerank_runs(self, capsys):
        rc = main(["pagerank", "--graph", "A", "--scale", "0.003",
                   "-k", "2", "--mode", "eager"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PageRank on Graph A" in out
        assert "eager" in out

    def test_sssp_runs(self, capsys):
        rc = main(["sssp", "--graph", "A", "--scale", "0.003", "-k", "2",
                   "--mode", "general"])
        assert rc == 0
        assert "SSSP on Graph A" in capsys.readouterr().out

    def test_kmeans_runs(self, capsys):
        rc = main(["kmeans", "--rows", "500", "--clusters", "3",
                   "--threshold", "0.1", "-k", "4", "--mode", "eager"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "K-Means on census sample" in out
        assert "SSE" in out

    def test_autotune_runs(self, capsys):
        rc = main(["autotune", "--graph", "A", "--scale", "0.003",
                   "--candidates", "2,4"])
        assert rc == 0
        assert "best k" in capsys.readouterr().out

    def test_schedule_runs_three_jobs_on_one_cluster(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank,kmeans,sssp",
                   "--policy", "fair", "--scale", "0.003", "-k", "2",
                   "--rows", "400", "--clusters", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 jobs on one shared cluster (fair)" in out
        for job in ("pagerank#0", "kmeans#1", "sssp#2"):
            assert job in out
        assert "mean job latency" in out

    def test_schedule_fifo_policy(self, capsys):
        rc = main(["schedule", "--jobs", "sssp,components",
                   "--policy", "fifo", "--scale", "0.003", "-k", "2"])
        assert rc == 0
        assert "(fifo)" in capsys.readouterr().out

    def test_schedule_rejects_unknown_job(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank,teleport",
                   "--scale", "0.003", "-k", "2"])
        assert rc == 2
        assert "unknown jobs" in capsys.readouterr().err

    def test_pagerank_adaptive_sync_runs(self, capsys):
        rc = main(["pagerank", "--graph", "A", "--scale", "0.003",
                   "-k", "2", "--mode", "eager", "--adaptive-sync"])
        assert rc == 0
        assert "PageRank on Graph A" in capsys.readouterr().out

    def test_jacobi_runs(self, capsys):
        rc = main(["jacobi", "--graph", "A", "--scale", "0.003", "-k", "2",
                   "--mode", "eager"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Jacobi solve on Graph A" in out
        assert "||Ax - b||_inf" in out

    def test_pagerank_async_backend_runs(self, capsys):
        rc = main(["pagerank", "--graph", "A", "--scale", "0.003", "-k", "2",
                   "--mode", "eager", "--backend", "async",
                   "--staleness", "2"])
        assert rc == 0
        assert "PageRank on Graph A" in capsys.readouterr().out

    def test_async_command_line_is_clean_under_deprecation_errors(self):
        """The CLI must not trip the library's own deprecations: the
        literal command line, in its own interpreter so no earlier test
        has already consumed a warn-once flag."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-m",
             "repro.cli", "pagerank", "--backend", "async",
             "--staleness", "1", "--scale", "0.002"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "PageRank on Graph A" in proc.stdout

    def test_sssp_unbounded_staleness_runs(self, capsys):
        rc = main(["sssp", "--graph", "A", "--scale", "0.003", "-k", "2",
                   "--mode", "eager", "--staleness", "none"])
        assert rc == 0
        assert "SSSP on Graph A" in capsys.readouterr().out

    def test_negative_staleness_exits_two(self, capsys):
        rc = main(["pagerank", "--graph", "A", "--scale", "0.003", "-k", "2",
                   "--mode", "eager", "--staleness", "-3"])
        assert rc == 2
        assert "--staleness" in capsys.readouterr().err

    def test_schedule_async_needs_online_store(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank,sssp", "--scale", "0.003",
                   "-k", "2", "--backend", "async", "--staleness", "1"])
        assert rc == 2
        assert "--state-store online" in capsys.readouterr().err

    def test_schedule_async_with_online_store_runs(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank,sssp", "--scale", "0.003",
                   "-k", "2", "--backend", "async", "--staleness", "1",
                   "--state-store", "online", "--tablets", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pagerank#0" in out and "sssp#1" in out

    def test_bad_candidates_reports_error(self, capsys):
        rc = main(["autotune", "--graph", "A", "--scale", "0.003",
                   "--candidates", ""])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_runs_at_tiny_scale(self, capsys):
        rc = main(["sweep", "--figure", "2", "--scale", "0.002"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "series Eager" in out

    def test_sssp_sweep_figure_runs(self, capsys):
        rc = main(["sweep", "--figure", "7", "--scale", "0.002"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "series Eager" in out

    def test_schedule_rejects_empty_job_list(self, capsys):
        rc = main(["schedule", "--jobs", " , ", "--scale", "0.003"])
        assert rc == 2
        assert "at least one job" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--split-threshold",
                                      "--merge-threshold"])
    def test_schedule_tablet_thresholds_need_online_store(self, capsys, flag):
        rc = main(["schedule", "--jobs", "pagerank", "--scale", "0.003",
                   "-k", "2", flag, "1000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and "--state-store online" in err

    def test_schedule_one_failure_domain_per_run(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank", "--scale", "0.003",
                   "-k", "2", "--kill-node", "1", "--kill-rack", "0"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    # A fair share takes every node's first slot before any node's
    # second, so killing rack 0 leaves each batch member live slots.
    def test_schedule_kill_rack_recovers(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank,sssp", "--scale", "0.003",
                   "-k", "2", "--kill-rack", "0"])
        assert rc == 0

    def test_schedule_kill_rack_mid_round_costs_recovery(self, capsys):
        # At the default kill clock the rack dies before any task runs;
        # 20.5 s into round 1 it takes running work down with it.
        rc = main(["schedule", "--jobs", "pagerank,sssp", "--scale", "0.003",
                   "-k", "2", "--kill-rack", "0", "--kill-round", "1",
                   "--kill-at", "20.5"])
        assert rc == 0
        out = capsys.readouterr().out
        [recovery] = [line.split("|") for line in out.splitlines()
                      if line.startswith("| pagerank#0 ")][1:]
        assert recovery[2].strip() == "4"  # the rack's four nodes
        assert float(recovery[5]) > 0.0

    def test_schedule_kill_node_reports_recovery(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank,sssp", "--scale", "0.003",
                   "-k", "2", "--kill-node", "1", "--kill-round", "1",
                   "--kill-at", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Correlated-failure recovery" in out
        deaths = [line.split("|")[2].strip() for line in out.splitlines()
                  if line.startswith(("| pagerank#0 ", "| sssp#1 "))]
        # the job table, then the recovery table: one death, on the job
        # running round 1 when the node dies
        assert deaths[2:] == ["1", "0"]

    def test_schedule_speculate_and_split_report(self, capsys):
        rc = main(["schedule", "--jobs", "pagerank,sssp", "--scale", "0.003",
                   "-k", "2", "--speculate", "--state-store", "online",
                   "--split-threshold", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Speculation / auto-split" in out
        assert "shared online store" in out
        assert " 0 splits" not in out  # a 1 kB threshold must split


class TestParseStaleness:
    @pytest.mark.parametrize("text,bound", [("none", None), ("INF", None),
                                            (" unbounded ", None),
                                            ("0", 0), ("3", 3)])
    def test_accepted(self, text, bound):
        assert _parse_staleness(text) == bound

    @pytest.mark.parametrize("text", ["two", "1.5", "-1"])
    def test_rejected(self, text):
        with pytest.raises(ValueError, match="--staleness"):
            _parse_staleness(text)


class TestNoLintCommand:
    def test_lint_is_an_unknown_subcommand(self, capsys):
        # The linter is a developer tool (python -m tools.reprolint).
        with pytest.raises(SystemExit) as exc_info:
            main(["lint", "src/repro/apps"])
        assert exc_info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

"""The ``python -m tools.reprolint`` exit-code contract: 0 clean, 1
findings, 2 usage error (an unknown or unparsable target)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lint_fixtures
import pytest

from tools.reprolint import lint_path
from tools.reprolint.cli import build_parser, main

FIXTURES = str(Path(__file__).parent / "lint_fixtures.py")
REPO = Path(__file__).resolve().parents[2]


class TestMain:
    def test_parser_accepts_lint_options(self):
        args = build_parser().parse_args(
            ["src/repro/apps", "examples", "--format", "json", "--strict"])
        assert args.targets == ["src/repro/apps", "examples"]
        assert args.fmt == "json"
        assert args.strict

    def test_no_target_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([])
        assert exc_info.value.code == 2

    def test_clean_target_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean_job.py"
        clean.write_text(
            "def count_map(key, value, ctx):\n"
            "    ctx.emit(key, 1)\n"
            "\n"
            "def sum_reduce(key, values, ctx):\n"
            "    ctx.emit(key, sum(values))\n")
        rc = main([str(clean)])
        assert rc == 0
        assert "0 at or above" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        rc = main([FIXTURES])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "hint:" in out

    def test_unknown_target_exits_two(self, capsys):
        rc = main(["no/such/target.py"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, capsys):
        rc = main([FIXTURES, "--format", "json"])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings
        assert {"code", "severity", "message", "function", "file",
                "line", "hint"} <= set(findings[0])
        assert any(f["code"] == "RPR021" for f in findings)

    def test_strict_lowers_threshold_to_warnings(self, tmp_path, capsys):
        warny = tmp_path / "warny_job.py"
        warny.write_text(
            "def fanout_map(key, value, ctx):\n"
            "    for n in {value, value + 1}:\n"
            "        ctx.emit(n, 1)\n")
        assert main([str(warny)]) == 0
        capsys.readouterr()
        assert main([str(warny), "--strict"]) == 1
        assert "RPR002" in capsys.readouterr().out

    def test_module_target_resolves(self, capsys):
        rc = main(["repro.apps.pagerank", "--strict"])
        assert rc == 0


class TestUnparsableTarget:
    """A file the linter cannot read is a usage error naming ``path:line``,
    never a traceback and never exit 1 (which means "findings")."""

    def test_syntax_error_names_the_line(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\ndef f(:\n    pass\n")
        with pytest.raises(ValueError, match=r"bad\.py:2: cannot parse"):
            lint_path(bad)

    def test_non_utf8_file_names_the_line(self, tmp_path):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b"# fine\nname = 'caf\xe9'\n")
        with pytest.raises(ValueError, match=r"latin\.py:2: not UTF-8"):
            lint_path(bad)

    def test_one_bad_file_in_a_directory_names_that_file(self, tmp_path):
        (tmp_path / "good.py").write_text(
            "def count_map(key, value, ctx):\n    ctx.emit(key, 1)\n")
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(ValueError, match=r"broken\.py:1: cannot parse"):
            lint_path(tmp_path)

    @pytest.mark.parametrize("content", [b"def f(:\n", b"\xff = 1\n"],
                             ids=["syntax", "non-utf8"])
    def test_main_exits_two_with_the_file_named(self, tmp_path, capsys,
                                                 content):
        bad = tmp_path / "bad.py"
        bad.write_bytes(content)
        assert main([str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:1: ")
        assert "Traceback" not in err


class TestFixtureCatalog:
    def test_static_path_flags_every_trigger_code(self):
        # The file path sees only source, yet every static rule has a
        # role-named trigger it must find.
        codes = {f.code for f in lint_path(FIXTURES)}
        assert codes == set(lint_fixtures.TRIGGERS)


def _run_tool(*args: str) -> subprocess.CompletedProcess:
    src = str(REPO / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *args], cwd=REPO,
        env=env, capture_output=True, text=True, timeout=120)


class TestCommandLine:
    """The steps CI's lint job runs, as its own interpreter runs them."""

    def test_bundled_apps_and_examples_are_strict_clean(self):
        proc = _run_tool("--strict", "src/repro/apps", "examples")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fixtures_file_exits_one(self):
        proc = _run_tool("tests/reprolint/lint_fixtures.py")
        assert proc.returncode == 1, proc.stderr
        assert {code for code in lint_fixtures.TRIGGERS
                if code in proc.stdout} == set(lint_fixtures.TRIGGERS)

    def test_unknown_target_exits_two(self):
        proc = _run_tool("no/such/target.py")
        assert proc.returncode == 2
        assert "cannot resolve lint target" in proc.stderr
        assert "Traceback" not in proc.stderr

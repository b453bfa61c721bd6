"""CLI tests: exit codes, the rule listing, and a run that writes
nothing to disk."""

import shutil
from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        assert run_cli(str(target)) == 0
        assert "clean" in capsys.readouterr().out

    def test_errors_exit_one(self, capsys):
        code = run_cli(str(FIXTURES / "jrs003_bad.py"))
        assert code == 1
        out = capsys.readouterr().out
        assert "JRS003" in out
        assert "finding(s) in 1 file(s)" in out

    def test_missing_path_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("definitely/not/a/path")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("layout", ["file", "directory"])
    def test_no_python_files_is_usage_error(
        self, tmp_path, capsys, layout
    ):
        """A gate that checked nothing must not report clean."""
        (tmp_path / "README.md").write_text("# not python\n")
        target = tmp_path / "README.md" if layout == "file" else tmp_path
        with pytest.raises(SystemExit) as excinfo:
            run_cli(str(target))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "clean" not in captured.out
        assert "no .py files" in captured.err


class TestFormats:
    def test_list_rules(self, capsys):
        assert run_cli("--list-rules") == 0
        out = capsys.readouterr().out
        for code in (
            "JRS001", "JRS002", "JRS003", "JRS004", "JRS010", "JRS011",
        ):
            assert code in out
        for code in ("JRS005", "JRS006", "JRS007", "JRS008", "JRS009"):
            assert code not in out
        assert "justification" in out


class TestNoArtifacts:
    def test_run_creates_nothing_under_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        shutil.copyfile(FIXTURES / "jrs003_bad.py", tree / "bad.py")
        (tree / "clean.py").write_text("VALUE = 1\n")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("src") == 1
        assert sorted(tmp_path.rglob("*")) == before
        capsys.readouterr()

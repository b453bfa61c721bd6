"""Meta-test: the repository's own source passes its lint gate.

This is the CI contract in miniature — if a change introduces an
unseeded RNG, a wall-clock read, a broad except, a typo'd metric name,
unlocked thread-shared state, a layering breach, or an in-place
Generator anywhere under ``src/``, this test fails locally before the
lint job does.  The seeded mutation tests prove JRS008, JRS010 and
JRS011 actually bite on the real tree, not just on fixtures.
"""

import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lint import lint_project
from repro.lint.engine import iter_python_files, module_name_for_path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: Exact count of files under src/ when last pinned.  Bump it when the
#: tree grows; lower it only in a change that deletes modules on
#: purpose, and say so in that change.
FILES_CHECKED_FLOOR = 91


def count_src_files() -> int:
    return sum(
        1
        for path in SRC.rglob("*.py")
        if "__pycache__" not in path.parts
    )


class TestRepoClean:
    def test_src_tree_has_no_findings(self):
        result = lint_project([str(SRC)])
        expected = count_src_files()
        assert result.files_checked == expected
        assert expected >= FILES_CHECKED_FLOOR, (
            "src/ shrank below the pinned floor — the lint gate may "
            "be analyzing a stale subset"
        )
        # The gate sees exactly the importable package, no more, no less.
        analyzed = {
            module_name_for_path(str(path.resolve()))
            for path in iter_python_files([str(SRC)])
        }
        importable = {"repro"} | {
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        }
        assert analyzed == importable
        assert result.violations == [], "\n".join(
            f"{v.path}:{v.line} {v.rule} {v.message}"
            for v in result.violations
        )

    def test_module_entry_point_exits_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(SRC)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert f"{count_src_files()} file(s) checked: clean" in result.stdout


@pytest.fixture()
def src_copy(tmp_path):
    """A mutable copy of the real src/ tree."""
    target = tmp_path / "src"
    shutil.copytree(
        SRC, target, ignore=shutil.ignore_patterns("__pycache__")
    )
    return target


def run_lint(tree: Path, code: str):
    """Lint the whole tree; every finding must belong to ``code``."""
    violations = lint_project([str(tree)]).violations
    assert all(v.rule == code for v in violations), violations
    return violations


class TestSeededMutations:
    """Remove a known-good safeguard from the real tree; the matching
    rule must catch it."""

    def test_jrs008_catches_removed_lock(self, src_copy):
        pool = src_copy / "repro" / "experiments" / "pool.py"
        lines = pool.read_text().splitlines(keepends=True)
        # Unwrap the first `with self._lock:` block inside close().
        start = next(
            i for i, line in enumerate(lines)
            if line.lstrip().startswith("def close(")
        )
        index = next(
            i
            for i, line in enumerate(lines[start:], start)
            if line.strip() == "with self._lock:"
        )
        indent = len(lines[index]) - len(lines[index].lstrip())
        del lines[index]
        cursor = index
        while cursor < len(lines):
            line = lines[cursor]
            if line.strip():
                if len(line) - len(line.lstrip()) <= indent:
                    break
                lines[cursor] = line[4:]
            cursor += 1
        pool.write_text("".join(lines))
        violations = run_lint(src_copy, "JRS008")
        assert violations, "JRS008 missed the removed lock"
        assert any("pool.py" in v.path for v in violations)

    def test_jrs008_clean_tree_is_silent(self, src_copy):
        assert run_lint(src_copy, "JRS008") == []

    def test_jrs010_catches_illegal_dsss_import(self, src_copy):
        module = src_copy / "repro" / "dsss" / "spreader.py"
        module.write_text(
            module.read_text()
            + "\nfrom repro.experiments import runner  # noqa-free\n"
        )
        violations = run_lint(src_copy, "JRS010")
        # The illegal edge is reported directly, and — because
        # experiments legitimately imports dsss — it also closes an
        # import cycle, which JRS010 reports separately.
        assert violations, "JRS010 missed the illegal import"
        layering = [
            v
            for v in violations
            if "'dsss' must not import 'experiments'" in v.message
        ]
        assert len(layering) == 1
        assert "spreader.py" in layering[0].path

    def test_jrs011_catches_generator_helper_and_local_rng(self, src_copy):
        """A utils helper that hands sim/ a fresh generator is flagged
        at its return; a seeded generator built in sim/ is flagged
        where it is built."""
        helper = src_copy / "repro" / "utils" / "stats.py"
        helper.write_text(
            helper.read_text()
            + "\n\nimport numpy as np\n\n\n"
            "def fresh_rng(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        field = src_copy / "repro" / "sim" / "field.py"
        field.write_text(
            field.read_text()
            + "\n\nfrom repro.utils.stats import fresh_rng\n\n\n"
            "def jitter(n):\n"
            "    return fresh_rng(7).normal(size=n)\n"
        )
        violations = run_lint(src_copy, "JRS011")
        assert [
            (Path(v.path).name, v.line) for v in violations
        ] == [("stats.py", len(helper.read_text().splitlines()))]

        medium = src_copy / "repro" / "sim" / "medium.py"
        medium.write_text(
            medium.read_text()
            + "\n\ndef local_noise(n):\n"
            "    return np.random.default_rng(3).normal(size=n)\n"
        )
        violations = run_lint(src_copy, "JRS011")
        flagged = {(Path(v.path).name, v.line) for v in violations}
        assert len(violations) == 2
        assert ("medium.py", len(medium.read_text().splitlines())) in flagged

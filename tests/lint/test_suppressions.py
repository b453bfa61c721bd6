"""Suppression edge cases.

Suppressions are per-physical-line: a ``# jrsnd: noqa(CODE) --
justification`` comment silences findings anchored on *that* line
only, for the per-file checks and the import-cycle pass alike, and an
unjustified noqa both fails to suppress and is itself a JRS000
finding.
"""

from pathlib import Path

import pytest

from repro.lint import lint_project, lint_source

JUSTIFIED = "# jrsnd: noqa({code}) -- pinned for the suppression suite"
UNJUSTIFIED = "# jrsnd: noqa({code})"


def lint(source: str, path: str = "src/repro/core/x.py"):
    return lint_source(source, path).violations


def lint_tree(tmp_path: Path, files: dict):
    for rel, source in files.items():
        target = tmp_path / "tree" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return lint_project([str(tmp_path / "tree")])


class TestMultilineStatements:
    SOURCE = (
        "import random\n"
        "value = random.randint({comment}\n"
        "    0,\n"
        "    10,\n"
        ")\n"
    )

    def test_noqa_on_first_physical_line_suppresses(self):
        source = self.SOURCE.format(
            comment="  " + JUSTIFIED.format(code="JRS001")
        )
        assert lint(source) == []

    def test_noqa_on_continuation_line_does_not(self):
        # The finding anchors on the call's first line; a comment on
        # the closing paren is on a different physical line.
        source = (
            "import random\n"
            "value = random.randint(\n"
            "    0,\n"
            "    10,\n"
            ")  " + JUSTIFIED.format(code="JRS001") + "\n"
        )
        violations = lint(source)
        assert [v.rule for v in violations] == ["JRS001"]
        assert violations[0].line == 2


class TestDecoratedDefs:
    # A draw in a default argument anchors on the def line, not on the
    # decorator line above it.
    def test_noqa_on_def_line_suppresses(self):
        source = (
            "import functools\n"
            "import random\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def f(x=random.random()):  "
            + JUSTIFIED.format(code="JRS001")
            + "\n"
            "    return x\n"
        )
        assert lint(source) == []

    def test_noqa_on_decorator_line_does_not(self):
        source = (
            "import functools\n"
            "import random\n"
            "@functools.lru_cache(maxsize=None)  "
            + JUSTIFIED.format(code="JRS001")
            + "\n"
            "def f(x=random.random()):\n"
            "    return x\n"
        )
        violations = lint(source)
        assert [v.rule for v in violations] == ["JRS001"]
        assert violations[0].line == 4


def project_cases(comment_for):
    """One minimal single-finding tree per project-tree case, keyed
    ``CODE`` or ``CODE-variant``, with ``comment_for(code)`` appended
    to the flagged line."""
    return {
        "JRS008": {
            "src/repro/experiments/box.py": (
                "import threading\n"
                "\n"
                "\n"
                "class Box:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._open = True\n"
                "        self._t = threading.Thread(target=self._run)\n"
                "\n"
                "    def _run(self):\n"
                "        self._open = False  "
                + comment_for("JRS008")
                + "\n"
                "\n"
                "    def is_open(self):\n"
                "        with self._lock:\n"
                "            return self._open\n"
            )
        },
        "JRS010": {
            "src/repro/dsss/leak.py": (
                "from repro.experiments import runner  "
                + comment_for("JRS010")
                + "\n"
                "\n"
                "USES = runner\n"
            )
        },
        "JRS011": {
            "src/repro/sim/draw.py": (
                "import numpy as np\n"
                "\n"
                "\n"
                "def draw(n):\n"
                "    rng = np.random.default_rng(7)  "
                + comment_for("JRS011")
                + "\n"
                "    return rng.normal(size=n)\n"
            )
        },
        # A helper outside utils.rng that mints a generator for the
        # simulated world: the finding anchors on the helper's return.
        "JRS011-cross-module": {
            "src/repro/utils/mkrng.py": (
                "import numpy as np\n"
                "\n"
                "\n"
                "def make_rng(seed):\n"
                "    return np.random.default_rng(seed)  "
                + comment_for("JRS011")
                + "\n"
            ),
            "src/repro/sim/noise.py": (
                "from repro.utils.mkrng import make_rng\n"
                "\n"
                "\n"
                "def sample(n):\n"
                "    rng = make_rng(7)\n"
                "    return rng.normal(size=n)\n"
            ),
        },
    }


PROJECT_CASES = sorted(project_cases(lambda code: "").keys())


@pytest.mark.parametrize("case", PROJECT_CASES)
class TestProjectRuleSuppression:
    def test_fires_without_noqa(self, case, tmp_path):
        files = project_cases(lambda c: "")[case]
        result = lint_tree(tmp_path, files)
        assert [v.rule for v in result.violations] == [case[:6]]

    def test_justified_noqa_suppresses(self, case, tmp_path):
        files = project_cases(
            lambda c: JUSTIFIED.format(code=c)
        )[case]
        result = lint_tree(tmp_path, files)
        assert result.violations == []

    def test_unjustified_noqa_keeps_finding_and_flags_jrs000(
        self, case, tmp_path
    ):
        files = project_cases(
            lambda c: UNJUSTIFIED.format(code=c)
        )[case]
        result = lint_tree(tmp_path, files)
        rules = sorted(v.rule for v in result.violations)
        assert rules == ["JRS000", case[:6]]

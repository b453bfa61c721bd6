"""Engine-level tests: suppressions, ordering, robustness."""

from pathlib import Path

from repro.lint import lint_source
from repro.lint.engine import parse_suppressions

FIXTURES = Path(__file__).parent / "fixtures"


def lint(source: str, path: str = "src/repro/core/x.py"):
    return lint_source(source, path).violations


class TestSuppressions:
    def test_justified_suppression_silences_its_line(self):
        source = (FIXTURES / "suppression_ok.py").read_text()
        assert lint(source) == []

    def test_unjustified_suppression_does_not_suppress(self):
        source = (FIXTURES / "suppression_bad.py").read_text()
        violations = lint(source)
        rules = sorted(v.rule for v in violations)
        # Both broad excepts still fire, plus one JRS000 per bad noqa.
        assert rules == ["JRS000", "JRS000", "JRS003", "JRS003"]
        messages = [
            v.message for v in violations if v.rule == "JRS000"
        ]
        assert any("justification" in m for m in messages)
        assert any("no valid rule codes" in m for m in messages)

    def test_suppression_only_covers_named_rules(self):
        source = (
            "try:\n"
            "    pass\n"
            "except Exception:  "
            "# jrsnd: noqa(JRS001) -- wrong code on purpose\n"
            "    pass\n"
        )
        assert [v.rule for v in lint(source)] == ["JRS003"]

    def test_multiple_codes_one_comment(self):
        source = (
            "import random\n"
            "import time\n"
            "def f():\n"
            "    return random.random(), time.time()  "
            "# jrsnd: noqa(JRS001, JRS002) -- fixture exercises both\n"
            "def g():\n"
            "    return random.random()\n"
        )
        violations = lint(source, path="src/repro/sim/x.py")
        # Only the unsuppressed draw in g() still fires.
        assert [(v.rule, v.line) for v in violations] == [("JRS001", 6)]

    def test_noqa_in_string_literal_is_not_a_suppression(self):
        source = 'POLICY = "# jrsnd: noqa(JRS003) -- not a comment"\n'
        assert lint(source) == []

    def test_parse_suppressions_round_trip(self):
        suppressions, hygiene = parse_suppressions(
            "x = 1  # jrsnd: noqa(JRS003) -- exact sentinel compare\n",
            "x.py",
        )
        assert hygiene == []
        assert suppressions[1].codes == ("JRS003",)
        assert suppressions[1].justification == (
            "exact sentinel compare"
        )


class TestEngineBehaviour:
    def test_findings_sorted_by_position(self):
        source = (
            "import random\n"
            "import time\n"
            "def f():\n"
            "    try:\n"
            "        return random.random(), time.time()\n"
            "    except Exception:\n"
            "        return random.random()\n"
        )
        violations = lint(source, path="src/repro/sim/x.py")
        assert [v.rule for v in violations] == [
            "JRS001", "JRS002", "JRS003", "JRS001",
        ]
        positions = [(v.line, v.col) for v in violations]
        assert positions == sorted(positions)

    def test_syntax_error_reported_not_raised(self):
        violations = lint("def broken(:\n")
        assert len(violations) == 1
        assert violations[0].rule == "JRS000"
        assert "syntax error" in violations[0].message

    def test_relative_imports_do_not_crash_alias_tracking(self):
        source = (
            "from . import sibling\n"
            "from .. import parent\n"
            "sibling.anything()\n"
        )
        assert lint(source) == []

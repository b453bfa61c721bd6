"""repro.lint — determinism-aware static analysis for JR-SND.

The reproduction's results (Theorem 1's P̂− at the Table I point, the
exact ``(l-1)·γ`` DoS bound, byte-identical serial, pool and
kill/resume runs) rest on conventions — seeded RNG only, simulated
time only, registered metric names, lock discipline, the package
layering — that no generic linter knows.  This package enforces them:
the rule framework and suppressions (:mod:`repro.lint.engine`), the
rule pack (:mod:`repro.lint.rules`), each rule checking one file at a
time, the runner (:mod:`repro.lint.project`), which adds one pass
over every file's imports for import cycles, and the ``python -m
repro.lint`` gate CI runs (:mod:`repro.lint.cli`).

Quick use::

    python -m repro.lint src/              # gate: exit 1 on findings
    python -m repro.lint --list-rules
"""

from repro.lint.engine import (
    ModuleContext,
    Rule,
    Violation,
)
from repro.lint.project import (
    FileResult,
    ProjectLintResult,
    lint_project,
    lint_source,
)
from repro.lint.rules import RULES, RULES_BY_CODE

__all__ = [
    "FileResult",
    "ModuleContext",
    "ProjectLintResult",
    "Rule",
    "Violation",
    "lint_project",
    "lint_source",
    "RULES",
    "RULES_BY_CODE",
]

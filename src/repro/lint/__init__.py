"""repro.lint — determinism-aware static analysis for JR-SND.

The reproduction's results (Theorem 1's P̂− at the Table I point, the
exact ``(l-1)·γ`` DoS bound, byte-identical serial, pool and
kill/resume runs) rest on conventions — seeded RNG only, simulated
time only, registered metric names, lock discipline, the package
layering — that no generic linter knows.  This package enforces them: the rule
framework and suppressions (:mod:`repro.lint.engine`), the per-file
and cross-module rule pack (:mod:`repro.lint.rules`), the project
index and flow analyses behind phase 2 (:mod:`repro.lint.graph`,
:mod:`repro.lint.flow`), the runner (:mod:`repro.lint.project`), and
the ``python -m repro.lint`` gate CI runs (:mod:`repro.lint.cli`).

Quick use::

    python -m repro.lint src/              # gate: exit 1 on findings
    python -m repro.lint --list-rules
"""

from repro.lint.engine import (
    ModuleContext,
    ProjectRule,
    Rule,
    Violation,
)
from repro.lint.graph import ModuleSummary, ProjectIndex, summarize_module
from repro.lint.project import (
    FileResult,
    ProjectLintResult,
    lint_project,
    lint_source,
)
from repro.lint.rules import FILE_RULES, PROJECT_RULES, RULES_BY_CODE

__all__ = [
    "FileResult",
    "ModuleContext",
    "ModuleSummary",
    "ProjectIndex",
    "ProjectLintResult",
    "ProjectRule",
    "Rule",
    "Violation",
    "lint_project",
    "lint_source",
    "summarize_module",
    "FILE_RULES",
    "PROJECT_RULES",
    "RULES_BY_CODE",
]

"""The lint runner: one sequential pass, nothing written to disk.

:func:`lint_source` is the per-file step: parse once, read the
justified-``noqa`` suppressions, run the per-file rule pack over the
module's nodes, and condense the same parse into a
:class:`~repro.lint.graph.ModuleSummary`.  :func:`lint_project` runs
that step over every file, assembles the
:class:`~repro.lint.graph.ProjectIndex`, runs the cross-module rules
(JRS008, JRS010, JRS011), and filters their findings with the same per-file
suppression maps.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Type

from repro.lint.engine import (
    SUPPRESSION_CODE,
    ModuleContext,
    Rule,
    Suppression,
    Violation,
    iter_python_files,
    module_name_for_path,
    parse_suppressions,
    syntax_error_violation,
)
from repro.lint.graph import ModuleSummary, ProjectIndex, summarize_module
from repro.lint.rules import FILE_RULES, PROJECT_RULES

__all__ = ["FileResult", "ProjectLintResult", "lint_project", "lint_source"]


@dataclass
class FileResult:
    """Phase 1 for one file."""

    #: Per-file findings with suppressions applied, sorted by position.
    violations: List[Violation]
    summary: ModuleSummary
    #: Justified suppressions by line, for filtering phase-2 findings.
    suppressions: Dict[int, Suppression]


@dataclass
class ProjectLintResult:
    violations: List[Violation]
    files_checked: int


def _position(violation: Violation) -> Tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.col, violation.rule)


def _suppressed(
    violation: Violation, suppressions: Mapping[int, Suppression]
) -> bool:
    suppression = suppressions.get(violation.line)
    return (
        suppression is not None
        and violation.rule in suppression.codes
        and violation.rule != SUPPRESSION_CODE
    )


def lint_source(source: str, path: str) -> FileResult:
    """Lint one module's source text (phase 1)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        empty = ModuleSummary(
            path=path,
            module=module_name_for_path(str(Path(path).resolve())),
            imports=(),
            classes=(),
            functions=(),
            rng_sites=(),
            factory_refs=(),
        )
        return FileResult([syntax_error_violation(path, exc)], empty, {})
    ctx = ModuleContext(path, tree)
    suppressions, findings = parse_suppressions(source, path)
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in FILE_RULES:
        if rule.applies_to(ctx):
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
    for node in ctx.nodes:
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.check(node, ctx))
    kept = [v for v in findings if not _suppressed(v, suppressions)]
    kept.sort(key=_position)
    return FileResult(kept, summarize_module(ctx), suppressions)


def lint_project(paths: Sequence[str]) -> ProjectLintResult:
    """Run both phases over every ``.py`` file under ``paths``."""
    results = [
        lint_source(file_path.read_text(encoding="utf-8"), str(file_path))
        for file_path in iter_python_files(paths)
    ]
    violations = [v for result in results for v in result.violations]
    suppressions = {
        result.summary.path: result.suppressions for result in results
    }
    index = ProjectIndex([result.summary for result in results])
    for rule in PROJECT_RULES:
        violations.extend(
            violation
            for violation in rule.check_project(index)
            if not _suppressed(
                violation, suppressions.get(violation.path, {})
            )
        )
    violations.sort(key=_position)
    return ProjectLintResult(violations, len(results))

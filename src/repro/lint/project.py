"""The lint runner: one sequential pass, nothing written to disk.

:func:`lint_source` checks one file: parse once, read the
justified-``noqa`` suppressions, run the rule pack over the module's
nodes, and keep the module-scope runtime imports.  :func:`lint_project`
runs that step over every file, then JRS010's import-cycle pass over
the imports they kept, and filters its findings with the same
per-file suppression maps.
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
from repro.lint.rules import (
    RULES,
    ImportRecord,
    JRS010ArchitectureLayering,
    module_imports,
)

__all__ = ["FileResult", "ProjectLintResult", "lint_project", "lint_source"]


@dataclass
class FileResult:
    """The per-file check of one file."""

    #: Findings with suppressions applied, sorted by position.
    violations: List[Violation]
    module: str
    #: Module-scope runtime imports, for the import-cycle pass.
    imports: Tuple[ImportRecord, ...]
    #: Justified suppressions by line, for filtering cycle findings.
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
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        module = module_name_for_path(str(Path(path).resolve()))
        return FileResult([syntax_error_violation(path, exc)], module, (), {})
    ctx = ModuleContext(path, tree)
    suppressions, findings = parse_suppressions(source, path)
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in RULES:
        if rule.applies_to(ctx):
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
    for node in ctx.nodes:
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.check(node, ctx))
    kept = [v for v in findings if not _suppressed(v, suppressions)]
    kept.sort(key=_position)
    return FileResult(kept, ctx.module, module_imports(ctx), suppressions)


def lint_project(paths: Sequence[str]) -> ProjectLintResult:
    """Lint every ``.py`` file under ``paths``, then look for import
    cycles among them."""
    results: Dict[str, FileResult] = {
        str(file_path): lint_source(
            file_path.read_text(encoding="utf-8"), str(file_path)
        )
        for file_path in iter_python_files(paths)
    }
    violations = [v for result in results.values() for v in result.violations]
    cycles = JRS010ArchitectureLayering.check_cycles(
        (path, result.module, result.imports)
        for path, result in results.items()
    )
    violations.extend(
        violation
        for violation in cycles
        if not _suppressed(violation, results[violation.path].suppressions)
    )
    violations.sort(key=_position)
    return ProjectLintResult(violations, len(results))

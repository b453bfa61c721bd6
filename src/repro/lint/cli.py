"""``python -m repro.lint`` — the determinism lint gate.

Examples::

    python -m repro.lint src/          # one row per finding, exit 1 on any
    python -m repro.lint --list-rules  # the JRS rule pack

Exit codes: 0 clean, 1 findings, 2 usage error (a missing path, or
paths that hold no ``.py`` file).  The run checks each file, then the
imports of all of them for cycles, in one sequential pass that writes
nothing to disk.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import Violation
from repro.lint.project import lint_project
from repro.lint.rules import RULES_BY_CODE

__all__ = ["main", "build_parser", "render_human"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "JR-SND determinism lints: AST rules guarding seeded "
            "randomness, simulated time, narrow excepts, registered "
            "metric names, thread-shared state, architecture layering "
            "and import cycles, and RNG provenance."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack and exit",
    )
    return parser


def _list_rules() -> str:
    lines = ["The JR-SND rule pack:"]
    for code in sorted(RULES_BY_CODE):
        lines.append(f"  {code}  {RULES_BY_CODE[code].description}")
    lines.append(
        "Suppress per line with "
        "'# jrsnd: noqa(CODE) -- justification' (justification "
        "required)."
    )
    return "\n".join(lines)


def render_human(
    violations: Sequence[Violation], files_checked: int
) -> str:
    """One ``path:line:col CODE message`` row per finding + summary."""
    lines: List[str] = [
        f"{v.path}:{v.line}:{v.col + 1} {v.rule} {v.message}"
        for v in violations
    ]
    if violations:
        lines.append(
            f"{len(violations)} finding(s) in {files_checked} file(s)"
        )
    else:
        lines.append(f"{files_checked} file(s) checked: clean")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    for raw in args.paths:
        if not Path(raw).exists():
            parser.error(f"path does not exist: {raw}")
    result = lint_project(args.paths)
    if result.files_checked == 0:
        parser.error(
            "no .py files under: " + ", ".join(args.paths)
        )
    print(render_human(result.violations, result.files_checked))
    return 1 if result.violations else 0

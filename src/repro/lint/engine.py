"""AST lint engine: findings, module context, rule bases, suppressions.

Each file is parsed once and its nodes are collected once, in
``ast.walk`` (breadth-first) order, into :attr:`ModuleContext.nodes`;
the context indexer and the rule dispatch both iterate that one list.
Rules never see each other and never mutate the tree, so adding a
rule cannot perturb another rule's findings.

Suppressions are per-line comments of the form::

    risky_call()  # jrsnd: noqa(JRS003) -- pool boundary must trap all

The justification after ``--`` is **required**: a suppression without
one does not suppress anything and is itself reported as ``JRS000``.
This keeps every waiver self-documenting — the same policy sanitizer
allowlists use.

See :mod:`repro.lint.rules` for the JR-SND rule pack and
:mod:`repro.lint.project` for the runner.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

__all__ = [
    "Violation",
    "ModuleContext",
    "Rule",
    "Suppression",
    "SUPPRESSION_CODE",
    "parse_suppressions",
    "iter_python_files",
    "module_name_for_path",
    "package_of",
    "syntax_error_violation",
]

#: Reserved code for suppression-hygiene findings (never a real rule).
SUPPRESSION_CODE = "JRS000"

_NOQA_RE = re.compile(
    r"#\s*jrsnd:\s*noqa\(\s*(?P<codes>[A-Za-z0-9_,\s]+?)\s*\)"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclass(frozen=True)
class Violation:
    """One finding, addressed by file position.  Every finding fails
    the gate; the only exemption is a justified ``noqa``."""

    rule: str
    path: str
    line: int
    col: int
    message: str


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# jrsnd: noqa(...)`` comment."""

    line: int
    codes: Tuple[str, ...]
    justification: str


def module_name_for_path(path: str) -> str:
    """Dotted module name for ``path``.

    Paths are anchored at the last ``repro`` component so both real
    trees (``src/repro/dsss/phy.py`` → ``repro.dsss.phy``) and the
    virtual fixture paths tests use resolve identically.  Files outside
    a ``repro`` tree fall back to their stem, which keeps scratch files
    indexable without pretending they belong to a package.
    """
    parts = list(Path(path).parts)
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else Path(path).stem


def package_of(module: str) -> str:
    """Layering package of a module (``repro.dsss.phy`` → ``dsss``).

    The ``repro`` root facade (it exists to re-export the public API)
    and everything outside ``repro`` map to ``""``: no package scope,
    no layering.
    """
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else ""


class ModuleContext:
    """Everything a rule may consult about the module being linted.

    Built once per file: every node in ``ast.walk`` order, a parent
    map, the names bound by module-scope ``def``/``class``
    statements, and resolved import aliases (``np`` → ``numpy``,
    ``nprand`` → ``numpy.random`` …).

    ``path`` is kept as given, for reports.  The module name — and with
    it every rule's scope — comes from the resolved path, so the same
    file gets the same findings however the path was spelled.
    """

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module_name_for_path(str(Path(path).resolve()))
        self.package = package_of(self.module)
        self.tree = tree
        self.nodes: List[ast.AST] = [tree]
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.module_scope_defs: Set[str] = set()
        self.aliases: Dict[str, str] = {}
        self._index()

    def _index(self) -> None:
        # Appending while iterating extends the loop: a breadth-first
        # walk identical to ast.walk.  A node's ancestors all precede
        # it, so the parent chain is complete when it is classified.
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
                self.nodes.append(child)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not self.in_function_scope(node):
                    self.module_scope_defs.add(node.name)
            elif isinstance(node, ast.Import):
                for name in node.names:
                    bound = name.asname or name.name.split(".")[0]
                    target = name.name if name.asname else bound
                    self.aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: not resolvable here
                for name in node.names:
                    bound = name.asname or name.name
                    self.aliases[bound] = f"{node.module}.{name.name}"

    def in_function_scope(self, node: ast.AST) -> bool:
        """True if ``node`` sits (transitively) inside a function."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return True
            current = self.parents.get(current)
        return False

    def resolve_call_chain(self, func: ast.expr) -> Optional[str]:
        """Resolve a ``Name``/``Attribute`` chain to a dotted module
        path using the module's import aliases.

        ``np.random.default_rng`` (after ``import numpy as np``)
        resolves to ``numpy.random.default_rng``; chains rooted at
        anything that is not an imported name resolve to ``None``.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class Rule:
    """Base class for one lint rule, checked one file at a time.

    Subclasses set :attr:`code`, :attr:`description`, and
    :attr:`node_types`, then implement :meth:`check`.  A rule may
    restrict itself to a module scope by overriding :meth:`applies_to`.
    """

    code: str = ""
    description: str = ""
    #: AST node classes dispatched to :meth:`check`.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _comment_tokens(source: str) -> Iterator[Tuple[int, int, str]]:
    """Yield ``(line, col, text)`` for every real comment token.

    Tokenizing (rather than scanning raw lines) keeps suppression
    syntax inside string literals and docstrings — such as this
    engine's own documentation — from being parsed as suppressions.
    """
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError):
        return  # ast.parse already vetted the file; be permissive here


def parse_suppressions(
    source: str, path: str
) -> Tuple[Dict[int, Suppression], List[Violation]]:
    """Extract per-line suppressions and suppression-hygiene findings."""
    suppressions: Dict[int, Suppression] = {}
    hygiene: List[Violation] = []
    if "jrsnd:" not in source:
        return suppressions, hygiene  # nothing to find; skip tokenizing
    for lineno, start_col, comment in _comment_tokens(source):
        match = _NOQA_RE.search(comment)
        if match is None:
            if "jrsnd:" in comment and "noqa" in comment:
                hygiene.append(
                    Violation(
                        rule=SUPPRESSION_CODE,
                        path=path,
                        line=lineno,
                        col=start_col,
                        message=(
                            "malformed suppression; expected "
                            "'# jrsnd: noqa(CODE) -- justification'"
                        ),
                    )
                )
            continue
        codes = tuple(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        why = (match.group("why") or "").strip()
        bad_codes = [
            code for code in codes if not re.fullmatch(r"JRS\d{3}", code)
        ]
        if not codes or bad_codes:
            hygiene.append(
                Violation(
                    rule=SUPPRESSION_CODE,
                    path=path,
                    line=lineno,
                    col=start_col + match.start(),
                    message=(
                        "suppression names no valid rule codes "
                        f"(got {', '.join(bad_codes) or 'nothing'}); "
                        "expected JRSnnn"
                    ),
                )
            )
            continue
        if not why:
            hygiene.append(
                Violation(
                    rule=SUPPRESSION_CODE,
                    path=path,
                    line=lineno,
                    col=start_col + match.start(),
                    message=(
                        "suppression requires a justification: "
                        "'# jrsnd: noqa("
                        + ", ".join(codes)
                        + ") -- <why this is safe>'"
                    ),
                )
            )
            continue
        suppressions[lineno] = Suppression(
            line=lineno, codes=codes, justification=why
        )
    return suppressions, hygiene


def syntax_error_violation(path: str, exc: SyntaxError) -> Violation:
    return Violation(
        rule=SUPPRESSION_CODE,
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"syntax error: {exc.msg}",
    )


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, deterministically."""
    seen: Set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates: Iterable[Path] = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate

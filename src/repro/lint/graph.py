"""Phase-1 project indexing for the cross-module lint rules.

The per-file rules see one ``ast.Module`` at a time, so they cannot
see a dispatcher thread sharing mutable pool state, a helper in another
module that returns a fresh generator, or the package DAG.
This module builds the whole-project view those checks need:

- a :class:`ModuleSummary` per file — import records (with their
  ``TYPE_CHECKING`` / function-scope flags), per-class attribute-access
  summaries with lock context, a lightweight call graph over module
  functions and methods, and RNG-construction sites;
- a :class:`ProjectIndex` over all summaries — module name resolution,
  the runtime import graph, and a global function table.

Summaries are plain frozen dataclasses, so phase 2 never touches an
AST.  The flow analyses that interpret them live in
:mod:`repro.lint.flow`; the cross-module rules that consume both live
in :mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.engine import ModuleContext

__all__ = [
    "AttrAccess",
    "CallRecord",
    "ClassSummary",
    "FactoryRef",
    "FunctionSummary",
    "ImportRecord",
    "MethodSummary",
    "ModuleSummary",
    "ProjectIndex",
    "RngSite",
    "summarize_module",
]

#: numpy.random entry points that mint a fresh generator.  Seeding one
#: directly is JRS001-legal but breaks JRS011's provenance contract
#: outside ``utils/rng.py``.
RNG_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
    }
)

@dataclass(frozen=True)
class ImportRecord:
    """One import statement, with the flags JRS010 keys off."""

    target: str
    line: int
    col: int
    #: Inside ``if TYPE_CHECKING:`` — not a runtime edge.
    type_checking: bool
    #: Inside a function body — a sanctioned lazy back edge.
    function_scope: bool


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` touch inside a method body."""

    attr: str
    line: int
    col: int
    write: bool
    #: Lexically inside a ``with self.<lock-ish>:`` block.
    locked: bool


@dataclass(frozen=True)
class MethodSummary:
    """Attribute accesses and self-calls of one method."""

    name: str
    line: int
    accesses: Tuple[AttrAccess, ...]
    self_calls: Tuple[str, ...]
    #: Methods handed to ``threading.Thread(target=self.X)`` here.
    thread_targets: Tuple[str, ...]

    @property
    def public(self) -> bool:
        return not self.name.startswith("_")


@dataclass(frozen=True)
class ClassSummary:
    """Per-class view JRS008's thread-shared-state analysis consumes."""

    name: str
    line: int
    methods: Tuple[MethodSummary, ...]

    def method(self, name: str) -> Optional[MethodSummary]:
        for candidate in self.methods:
            if candidate.name == name:
                return candidate
        return None

    @property
    def thread_targets(self) -> Tuple[str, ...]:
        targets: List[str] = []
        for method in self.methods:
            targets.extend(method.thread_targets)
        return tuple(targets)


@dataclass(frozen=True)
class CallRecord:
    """One call made by a function body.

    ``callee`` is the best-effort reference: a fully resolved dotted
    path for imported names (``repro.experiments.pool.collect_outcomes``),
    ``<module>.<name>`` for module-level functions of the same file,
    ``self.<attr>`` for method self-calls, or the bare name when
    unresolvable.
    """

    callee: str
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """Calls of one function (or method)."""

    qualname: str
    line: int
    calls: Tuple[CallRecord, ...]
    #: Callee refs whose results this function returns (directly or
    #: through one local assignment) — the JRS011 producer signal.
    returns_refs: Tuple[str, ...]

    @property
    def is_method(self) -> bool:
        return "." in self.qualname


@dataclass(frozen=True)
class RngSite:
    """A ``numpy.random`` generator constructed outside utils.rng."""

    line: int
    col: int
    #: The resolved constructor chain, or the alias it was called via.
    via: str


@dataclass(frozen=True)
class FactoryRef:
    """A ``field(default_factory=<ref>)`` callable reference."""

    line: int
    col: int
    ref: str


@dataclass(frozen=True)
class ModuleSummary:
    """Everything phase 2 needs to know about one file."""

    path: str
    module: str
    imports: Tuple[ImportRecord, ...]
    classes: Tuple[ClassSummary, ...]
    functions: Tuple[FunctionSummary, ...]
    rng_sites: Tuple[RngSite, ...]
    factory_refs: Tuple[FactoryRef, ...]


# ---------------------------------------------------------------------
# Summary construction
# ---------------------------------------------------------------------


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` → attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lockish(attr: str) -> bool:
    return "lock" in attr.lower()


class _MethodWalker(ast.NodeVisitor):
    """Collect attribute accesses / self-calls of one method body."""

    def __init__(self, ctx: ModuleContext) -> None:
        self._ctx = ctx
        self.accesses: List[AttrAccess] = []
        self.self_calls: List[str] = []
        self.thread_targets: List[str] = []
        self._lock_depth = 0

    def visit_With(self, node: ast.With) -> None:
        lockish = any(
            (attr := _self_attr(item.context_expr)) is not None
            and _is_lockish(attr)
            for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if lockish:
            self._lock_depth += 1
        for statement in node.body:
            self.visit(statement)
        if lockish:
            self._lock_depth -= 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and not _is_lockish(attr):
            self.accesses.append(
                AttrAccess(
                    attr=attr,
                    line=node.lineno,
                    col=node.col_offset,
                    write=isinstance(node.ctx, (ast.Store, ast.Del)),
                    locked=self._lock_depth > 0,
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = _self_attr(func)
            if attr is not None:
                self.self_calls.append(attr)
        target = self._ctx.resolve_call_chain(func)
        if target == "threading.Thread":
            for keyword in node.keywords:
                if keyword.arg != "target":
                    continue
                thread_target = _self_attr(keyword.value)
                if thread_target is not None:
                    self.thread_targets.append(thread_target)
        self.generic_visit(node)


def _summarize_method(
    node: ast.FunctionDef, ctx: ModuleContext
) -> MethodSummary:
    walker = _MethodWalker(ctx)
    for statement in node.body:
        walker.visit(statement)
    return MethodSummary(
        name=node.name,
        line=node.lineno,
        accesses=tuple(walker.accesses),
        self_calls=tuple(sorted(set(walker.self_calls))),
        thread_targets=tuple(sorted(set(walker.thread_targets))),
    )


def _summarize_class(
    node: ast.ClassDef, ctx: ModuleContext
) -> ClassSummary:
    methods = tuple(
        _summarize_method(child, ctx)
        for child in node.body
        if isinstance(child, ast.FunctionDef)
    )
    return ClassSummary(name=node.name, line=node.lineno, methods=methods)


def _resolve_ref(name: str, ctx: ModuleContext) -> Optional[str]:
    """Resolve a bare name to a global callable reference."""
    resolved = ctx.aliases.get(name)
    if resolved is not None:
        return resolved
    if name in ctx.module_scope_defs:
        return f"{ctx.module}.{name}"
    return None


def _summarize_function(
    node: ast.FunctionDef,
    qualname: str,
    subtree: Sequence[ast.AST],
    ctx: ModuleContext,
) -> FunctionSummary:
    """Summarize one function from its nodes in ``ast.walk`` order."""
    calls: List[CallRecord] = []
    assigned_from: Dict[str, str] = {}
    returns_refs: List[str] = []

    def callee_ref(func: ast.expr) -> str:
        if isinstance(func, ast.Name):
            return _resolve_ref(func.id, ctx) or func.id
        if isinstance(func, ast.Attribute):
            attr = _self_attr(func)
            if attr is not None:
                return f"self.{attr}"
            return ctx.resolve_call_chain(func) or func.attr
        return "<dynamic>"

    for child in subtree:
        if isinstance(child, ast.Call):
            calls.append(
                CallRecord(
                    callee=callee_ref(child.func),
                    line=child.lineno,
                    col=child.col_offset,
                )
            )
        elif isinstance(child, ast.Assign) and isinstance(
            child.value, ast.Call
        ):
            ref = callee_ref(child.value.func)
            for target in child.targets:
                if isinstance(target, ast.Name):
                    assigned_from[target.id] = ref
        elif isinstance(child, ast.Return) and child.value is not None:
            if isinstance(child.value, ast.Call):
                returns_refs.append(callee_ref(child.value.func))
            elif isinstance(child.value, ast.Name):
                ref_opt = assigned_from.get(child.value.id)
                if ref_opt is not None:
                    returns_refs.append(ref_opt)
    return FunctionSummary(
        qualname=qualname,
        line=node.lineno,
        calls=tuple(calls),
        returns_refs=tuple(sorted(set(returns_refs))),
    )


def _import_records(
    node: Union[ast.Import, ast.ImportFrom], ctx: ModuleContext
) -> List[ImportRecord]:
    """One record per import target, flagged by enclosing scope."""
    if isinstance(node, ast.Import):
        targets = [name.name for name in node.names]
    else:
        if node.module is None or node.level:
            return []  # relative imports stay module-local
        targets = [node.module]
        if node.module == "repro" or node.module.startswith("repro."):
            # `from repro.x import y` may bind the submodule x.y.
            targets.extend(
                f"{node.module}.{name.name}" for name in node.names
            )
    type_checking = False
    function_scope = False
    current = ctx.parents.get(node)
    while current is not None:
        if isinstance(current, ast.If) and _is_type_checking_test(
            current.test
        ):
            type_checking = True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function_scope = True
        current = ctx.parents.get(current)
    return [
        ImportRecord(
            target=target,
            line=node.lineno,
            col=node.col_offset,
            type_checking=type_checking,
            function_scope=function_scope,
        )
        for target in targets
    ]


def _factory_refs(call: ast.Call, ctx: ModuleContext) -> List[FactoryRef]:
    """``field(default_factory=<ref>)`` references made by ``call``."""
    func = call.func
    is_field = (isinstance(func, ast.Name) and func.id == "field") or (
        isinstance(func, ast.Attribute) and func.attr == "field"
    )
    if not is_field:
        return []
    refs: List[FactoryRef] = []
    for keyword in call.keywords:
        if keyword.arg != "default_factory":
            continue
        value = keyword.value
        ref: Optional[str] = None
        if isinstance(value, ast.Name):
            ref = _resolve_ref(value.id, ctx)
        elif isinstance(value, ast.Attribute):
            ref = ctx.resolve_call_chain(value)
        if ref is not None:
            refs.append(
                FactoryRef(line=value.lineno, col=value.col_offset, ref=ref)
            )
    return refs


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Build the phase-2 summary for one parsed module.

    One pass over :attr:`ModuleContext.nodes`.  Module functions and
    methods of module-level classes each collect their own subtree on
    the way; breadth-first order restricted to a subtree is that
    subtree's own ``ast.walk`` order.
    """
    qualnames: Dict[ast.FunctionDef, str] = {}
    for node in ctx.tree.body:
        if isinstance(node, ast.FunctionDef):
            qualnames[node] = node.name
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    qualnames[child] = f"{node.name}.{child.name}"
    subtrees: Dict[ast.AST, List[ast.AST]] = {fn: [] for fn in qualnames}
    owner: Dict[ast.AST, ast.AST] = {}

    imports: List[ImportRecord] = []
    classes: List[ClassSummary] = []
    calls: List[ast.Call] = []
    constructor_aliases: Set[str] = set()
    for node in ctx.nodes:
        parent = ctx.parents.get(node)
        fn = node if node in subtrees else (
            owner.get(parent) if parent is not None else None
        )
        if fn is not None:
            owner[node] = fn
            subtrees[fn].append(node)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.extend(_import_records(node, ctx))
        elif isinstance(node, ast.ClassDef):
            classes.append(_summarize_class(node, ctx))
        elif isinstance(node, ast.Call):
            calls.append(node)
        elif (
            isinstance(node, ast.Assign)
            and not isinstance(node.value, ast.Call)
            and ctx.resolve_call_chain(node.value) in RNG_CONSTRUCTORS
        ):
            constructor_aliases.update(
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            )

    rng_sites: List[RngSite] = []
    factory_refs: List[FactoryRef] = []
    for call in calls:
        chain = ctx.resolve_call_chain(call.func)
        if chain in RNG_CONSTRUCTORS:
            rng_sites.append(
                RngSite(line=call.lineno, col=call.col_offset, via=chain or "")
            )
        elif (
            isinstance(call.func, ast.Name)
            and call.func.id in constructor_aliases
        ):
            rng_sites.append(
                RngSite(
                    line=call.lineno,
                    col=call.col_offset,
                    via=f"alias '{call.func.id}'",
                )
            )
        factory_refs.extend(_factory_refs(call, ctx))

    return ModuleSummary(
        path=ctx.path,
        module=ctx.module,
        imports=tuple(
            sorted(imports, key=lambda i: (i.line, i.col, i.target))
        ),
        classes=tuple(classes),
        functions=tuple(
            _summarize_function(fn, qualname, subtrees[fn], ctx)
            for fn, qualname in qualnames.items()
        ),
        rng_sites=tuple(rng_sites),
        factory_refs=tuple(factory_refs),
    )


# ---------------------------------------------------------------------
# The project index
# ---------------------------------------------------------------------


class ProjectIndex:
    """Whole-project view assembled from per-file summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries: Tuple[ModuleSummary, ...] = tuple(
            sorted(summaries, key=lambda s: s.path)
        )
        self.by_module: Dict[str, ModuleSummary] = {}
        for summary in self.summaries:
            # Last writer wins deterministically (sorted by path); real
            # trees never collide, virtual fixture trees may.
            self.by_module[summary.module] = summary
        self.functions: Dict[str, FunctionSummary] = {}
        for summary in self.summaries:
            for function in summary.functions:
                self.functions[
                    f"{summary.module}.{function.qualname}"
                ] = function

    # -- module / package resolution -----------------------------------

    def resolve_module(self, target: str) -> Optional[str]:
        """Resolve a dotted import target to an indexed module.

        ``repro.obs`` resolves to the package module (its
        ``__init__``); ``repro.obs.names`` to the submodule; targets
        outside the project resolve to ``None``.
        """
        if target in self.by_module:
            return target
        return None

    # -- import graph ---------------------------------------------------

    def runtime_imports(
        self, module: str, include_lazy: bool = True
    ) -> List[ImportRecord]:
        """Non-``TYPE_CHECKING`` imports of ``module``.

        ``include_lazy=False`` drops function-scope imports as well —
        the edge set used for import-cycle detection, since a deferred
        import cannot participate in an import-time cycle.
        """
        summary = self.by_module.get(module)
        if summary is None:
            return []
        records = [
            record
            for record in summary.imports
            if not record.type_checking
        ]
        if not include_lazy:
            records = [r for r in records if not r.function_scope]
        return records

    def import_edges(
        self, module: str, include_lazy: bool = True
    ) -> List[Tuple[str, ImportRecord]]:
        """(resolved project module, record) pairs for ``module``."""
        edges: List[Tuple[str, ImportRecord]] = []
        seen: Set[Tuple[str, int]] = set()
        for record in self.runtime_imports(module, include_lazy):
            resolved = self.resolve_module(record.target)
            if resolved is None or resolved == module:
                continue
            key = (resolved, record.line)
            if key in seen:
                continue
            seen.add(key)
            edges.append((resolved, record))
        return edges

"""The JR-SND determinism rule pack.

Every rule guards an invariant this repository's results rest on:
Theorem 1's P̂− at the Table I point, the exact ``(l−1)γ`` DoS bound,
and byte-identical serial, pool and kill/resume runs all need seeded
randomness only, simulated time only, and registered metric names.

Every rule checks one module's AST: seeded randomness (JRS001), no
wall clock inside the simulated world (JRS002), narrow excepts
(JRS003), registered metric names (JRS004), the package layering
(JRS010) and RNG provenance (JRS011).  The one check that needs more
than one file is JRS010's import-cycle pass
(:meth:`JRS010ArchitectureLayering.check_cycles`), which runs over the
module-scope runtime imports each file contributes.  What crosses the
process-pool boundary needs no rule: the pool's only unit of work is
a ``NetworkExperiment``, and ``WorkerPool.submit`` refuses anything
else.  See ``docs/architecture.md`` ("Static analysis & determinism
lints") for the rationale table and the policy for adding a rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.engine import (
    ModuleContext,
    Rule,
    Violation,
    package_of,
)
from repro.obs import names as _metric_names

__all__ = [
    "JRS001UnseededRandomness",
    "JRS002WallClock",
    "JRS003BroadExcept",
    "JRS004UnregisteredMetricName",
    "JRS010ArchitectureLayering",
    "JRS011RngProvenance",
    "ImportRecord",
    "RULES",
    "RULES_BY_CODE",
    "find_import_cycles",
    "module_imports",
    "runtime_import_targets",
]


class JRS001UnseededRandomness(Rule):
    """Unseeded randomness breaks run-for-run reproducibility.

    Every stochastic draw must flow from a ``numpy.random.Generator``
    derived via :mod:`repro.utils.rng`; stdlib ``random.*``, legacy
    ``numpy.random.*`` module functions, and an argless
    ``default_rng()`` all read hidden global state.
    """

    code = "JRS001"
    description = (
        "no unseeded randomness: stdlib random.*, legacy np.random.*, "
        "or argless default_rng() outside utils/rng.py"
    )
    node_types = (ast.Call,)

    #: numpy.random attributes that are seeded-construction APIs, not
    #: hidden-global draws.
    _NUMPY_OK = frozenset(
        {
            "default_rng",
            "SeedSequence",
            "Generator",
            "BitGenerator",
            # Seeded bit-generator constructors: explicit-state APIs,
            # not hidden-global draws (JRS011 owns their *provenance*).
            "PCG64",
            "MT19937",
            "Philox",
            "SFC64",
        }
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.utils.rng"

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        target = ctx.resolve_call_chain(node.func)
        if target is None:
            return
        if target == "random" or target.startswith("random."):
            yield self.violation(
                ctx,
                node,
                f"call to stdlib '{target}' reads hidden global RNG "
                "state; draw from a Generator provided by "
                "repro.utils.rng instead",
            )
            return
        if not target.startswith("numpy.random."):
            return
        attr = target[len("numpy.random."):]
        if attr == "default_rng":
            if not node.args and not node.keywords:
                yield self.violation(
                    ctx,
                    node,
                    "default_rng() without a seed is entropy-seeded "
                    "and irreproducible; pass a seed or derive via "
                    "repro.utils.rng",
                )
            return
        if "." not in attr and attr not in self._NUMPY_OK:
            yield self.violation(
                ctx,
                node,
                f"legacy 'numpy.random.{attr}' uses the hidden global "
                "RandomState; use a seeded Generator instead",
            )


class JRS002WallClock(Rule):
    """Wall-clock reads inside the simulated world desynchronize runs.

    Simulation, protocol, and PHY code must tell time via the event
    loop (``Simulator.now``), never via the host clock — a wall-clock
    read makes behaviour depend on machine load.
    """

    code = "JRS002"
    description = (
        "no wall-clock (time.time, datetime.now, ...) in sim/, "
        "core/, dsss/"
    )
    node_types = (ast.Call,)

    _BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.package in ("sim", "core", "dsss")

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        target = ctx.resolve_call_chain(node.func)
        if target in self._BANNED:
            yield self.violation(
                ctx,
                node,
                f"'{target}' reads the host clock inside the simulated "
                "world; use the event loop's Simulator.now",
            )


class JRS003BroadExcept(Rule):
    """Broad excepts swallow the invariant breaches the soaks hunt for.

    A ``except Exception`` around protocol or decode logic silently
    converts a codec bug into 'channel noise'; handlers must name the
    concrete error families they expect.
    """

    code = "JRS003"
    description = "no bare/broad except"
    node_types = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException"})

    def _broad_name(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name) and expr.id in self._BROAD:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in self._BROAD:
            return expr.attr
        return None

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Violation]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.violation(
                ctx,
                node,
                "bare 'except:' catches everything including "
                "KeyboardInterrupt; name the concrete error types",
            )
            return
        exprs: Sequence[ast.expr]
        if isinstance(node.type, ast.Tuple):
            exprs = node.type.elts
        else:
            exprs = [node.type]
        for expr in exprs:
            name = self._broad_name(expr)
            if name is not None:
                yield self.violation(
                    ctx,
                    node,
                    f"'except {name}' is too broad; name the concrete "
                    "error types (see repro.errors) or suppress with "
                    "a justification",
                )


class JRS004UnregisteredMetricName(Rule):
    """Metric names must come from the ``repro.obs.names`` registry.

    A typo'd counter name silently no-ops — the counter is written but
    nothing ever reads it.  Literals must be declared in
    ``obs/names.py``; dynamic names must be built by one of its
    helpers.  A *registered* literal is flagged too: the message names
    the constant to report through, so the registry stays the only
    place a name is spelled.
    """

    code = "JRS004"
    description = (
        "metric names passed to repro.obs must be declared in "
        "repro.obs.names (literals registered, dynamics via helpers)"
    )
    node_types = (ast.Call,)

    _METHODS = frozenset(
        {
            "inc",
            "gauge",
            "gauge_max",
            "observe",
            "record_seconds",
            "timer",
            "event",
            "increment",
            "count",
            "_count",
            "counter",
        }
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.obs.names"

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Violation]:
        assert isinstance(node, ast.Call)
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in self._METHODS:
            return
        if not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
            if not _metric_names.looks_like_metric_name(name):
                return  # not metric-shaped: list.count("x"), etc.
            if not _metric_names.is_registered(name):
                yield self.violation(
                    ctx,
                    node.func,
                    f"metric name '{name}' is not declared in "
                    "repro.obs.names; a typo here silently no-ops — "
                    "declare the constant and report through it",
                )
                return
            constant = _metric_names.CONSTANT_FOR.get(name)
            if constant is None:
                return  # helper-shaped literal: no constant to name
            yield self.violation(
                ctx,
                node.func,
                f"registered metric name '{name}' written as a raw "
                f"literal; report through repro.obs.names.{constant}",
            )
            return
        if isinstance(arg, ast.JoinedStr):
            prefix = ""
            if arg.values and isinstance(arg.values[0], ast.Constant):
                prefix = str(arg.values[0].value)
            if "." in prefix or not prefix:
                yield self.violation(
                    ctx,
                    node.func,
                    "dynamically built metric name; use a helper from "
                    "repro.obs.names (e.g. cache_hits(kind)) so the "
                    "shape stays registered",
                )


#: Leaf packages any layer may import.
_LAYER_LEAVES: FrozenSet[str] = frozenset({"errors", "version"})

#: The docs/architecture.md dependency DAG: package -> packages it may
#: import at module scope.  ``TYPE_CHECKING`` and function-scope
#: imports are exempt (they cannot create import-time coupling and are
#: the sanctioned escape hatches for back references).
_LAYER_ALLOWED: Dict[str, FrozenSet[str]] = {
    "errors": frozenset(),
    "version": frozenset(),
    "obs": frozenset(),
    "utils": frozenset({"obs"}),
    "ecc": frozenset({"obs", "utils"}),
    "sim": frozenset({"obs", "utils", "ecc"}),
    "predistribution": frozenset({"obs", "utils"}),
    "adversary": frozenset(
        {"obs", "utils", "sim", "predistribution"}
    ),
    "dsss": frozenset({"obs", "utils", "ecc", "adversary"}),
    "crypto": frozenset({"obs", "utils", "dsss"}),
    "core": frozenset(
        {
            "obs", "utils", "ecc", "sim", "dsss", "crypto",
            "adversary", "predistribution",
        }
    ),
    "analysis": frozenset(
        {"obs", "utils", "core", "sim", "predistribution"}
    ),
    "experiments": frozenset(
        {
            "obs", "utils", "ecc", "sim", "dsss", "crypto", "core",
            "adversary", "predistribution", "analysis",
        }
    ),
    "campaigns": frozenset(
        {
            "obs", "utils", "ecc", "sim", "dsss", "crypto", "core",
            "adversary", "predistribution", "analysis", "experiments",
        }
    ),
    "lint": frozenset({"obs", "utils"}),
    "cli": frozenset(
        {
            "obs", "utils", "ecc", "sim", "dsss", "crypto", "core",
            "adversary", "predistribution", "analysis", "experiments",
            "campaigns",
        }
    ),
    "__main__": frozenset({"cli"}),
}


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def runtime_import_targets(
    node: Union[ast.Import, ast.ImportFrom], ctx: ModuleContext
) -> List[str]:
    """Sorted dotted targets of a module-scope runtime import.

    An import under ``if TYPE_CHECKING:`` or inside a function body
    creates no import-time edge, so it yields no target; neither does
    a relative import (it stays module-local).  ``from repro.x import
    y`` yields ``repro.x`` and ``repro.x.y``, since ``y`` may be a
    submodule.
    """
    current = ctx.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return []
        if isinstance(current, ast.If) and _is_type_checking_test(
            current.test
        ):
            return []
        current = ctx.parents.get(current)
    if isinstance(node, ast.Import):
        return sorted(name.name for name in node.names)
    if node.module is None or node.level:
        return []
    targets = [node.module]
    if node.module == "repro" or node.module.startswith("repro."):
        targets.extend(f"{node.module}.{name.name}" for name in node.names)
    return sorted(targets)


@dataclass(frozen=True, order=True)
class ImportRecord:
    """One module-scope runtime import target, for the cycle pass."""

    line: int
    col: int
    target: str


def module_imports(ctx: ModuleContext) -> Tuple[ImportRecord, ...]:
    """Every module-scope runtime import target of one file, sorted."""
    return tuple(
        sorted(
            ImportRecord(node.lineno, node.col_offset, target)
            for node in ctx.nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for target in runtime_import_targets(node, ctx)
        )
    )


def find_import_cycles(
    edges: Mapping[str, Iterable[str]]
) -> List[Tuple[str, ...]]:
    """The strongly connected components of ``edges`` that hold a
    cycle, each as its sorted modules, in sorted order.

    A module is on a cycle when it can reach itself; its component is
    every module it reaches that reaches it back.
    """
    reach: Dict[str, Set[str]] = {}
    for start in edges:
        seen: Set[str] = set()
        stack = list(edges[start])
        while stack:
            module = stack.pop()
            if module not in seen:
                seen.add(module)
                stack.extend(edges.get(module, ()))
        reach[start] = seen
    return sorted(
        {
            tuple(sorted(m for m in reach[start] if start in reach[m]))
            for start in edges
            if start in reach[start]
        }
    )


class JRS010ArchitectureLayering(Rule):
    """The package DAG in docs/architecture.md is load-bearing.

    ``utils``/``obs`` are leaves; ``sim``/``dsss``/``ecc`` must never
    import ``experiments``/``campaigns``/``cli``; and module-level
    import cycles are forbidden outright.  Violations here are how
    "the PHY layer quietly grew a dependency on the campaign runner"
    happens.  The layering check reads one import statement; the
    cycle check (:meth:`check_cycles`) is the lint's one pass over the
    whole file set.
    """

    code = "JRS010"
    description = (
        "imports must respect the docs/architecture.md package DAG; "
        "no module-level import cycles"
    )
    node_types = (ast.Import, ast.ImportFrom)

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Violation]:
        assert isinstance(node, (ast.Import, ast.ImportFrom))
        allowed = _LAYER_ALLOWED.get(ctx.package)
        if allowed is None:
            return  # root facade or a package outside the DAG
        reported: Set[str] = set()
        for target in runtime_import_targets(node, ctx):
            # "" is stdlib/third-party, or the root facade.
            package = package_of(target)
            if (
                not package
                or package == ctx.package
                or package in _LAYER_LEAVES
                or package not in _LAYER_ALLOWED
                or package in allowed
                or package in reported
            ):
                continue
            reported.add(package)
            yield self.violation(
                ctx,
                node,
                f"layering violation: '{ctx.package}' must not "
                f"import '{package}' (via '{target}'); see the "
                "package DAG in docs/architecture.md — use a "
                "TYPE_CHECKING or function-scope import if a back "
                "reference is unavoidable",
            )

    @classmethod
    def check_cycles(
        cls, files: Iterable[Tuple[str, str, Tuple[ImportRecord, ...]]]
    ) -> Iterator[Violation]:
        """Import cycles among ``(path, module, imports)`` files.

        Each cycle is reported once, on the first import in its
        first module (by name) that points into the cycle.
        """
        by_module: Dict[str, Tuple[str, Tuple[ImportRecord, ...]]] = {}
        # Sorted by path, the last writer wins deterministically; real
        # trees never map two files to one module.
        for path, module, imports in sorted(files):
            by_module[module] = (path, imports)
        edges = {
            module: {
                record.target for record in imports
                if record.target in by_module and record.target != module
            }
            for module, (_, imports) in by_module.items()
        }
        for cycle in find_import_cycles(edges):
            path, imports = by_module[cycle[0]]
            anchor = next(r for r in imports if r.target in cycle[1:])
            yield Violation(
                rule=cls.code,
                path=path,
                line=anchor.line,
                col=anchor.col,
                message=(
                    "module-level import cycle: "
                    + " -> ".join(cycle)
                    + " -> ... ; break it with a TYPE_CHECKING or "
                    "function-scope import"
                ),
            )


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

#: The simulated world: generators here must all come from utils.rng.
_SIM_WORLD: FrozenSet[str] = frozenset({"sim", "dsss"})


def _module_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """``(qualname, def)`` of module functions and of the methods of
    module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, ast.FunctionDef):
                    yield f"{node.name}.{child.name}", child


def _fresh_generator_returns(
    function: ast.FunctionDef, ctx: ModuleContext
) -> List[ast.Return]:
    """The ``return`` statements of ``function`` that hand back a
    fresh generator: a constructor call, or a local name last assigned
    (in ``ast.walk`` order) from one."""

    def constructs(value: ast.expr) -> bool:
        return (
            isinstance(value, ast.Call)
            and ctx.resolve_call_chain(value.func) in RNG_CONSTRUCTORS
        )

    fresh: Dict[str, bool] = {}
    returns: List[ast.Return] = []
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fresh[target.id] = constructs(node.value)
        elif isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            if constructs(value) or (
                isinstance(value, ast.Name) and fresh.get(value.id, False)
            ):
                returns.append(node)
    return returns


class JRS011RngProvenance(Rule):
    """Generators must flow from ``utils.rng``.

    Seeded construction satisfies JRS001, but two call sites seeding
    ``default_rng(42)`` independently still decouple their streams
    from the experiment's ``SeedSequencer`` tree — kill/resume
    bit-identity and the per-run seed audit both break.  Inside the
    simulated world (``sim/``, ``dsss/``), constructing a
    ``numpy.random.Generator`` directly, via an alias, or as a
    dataclass ``default_factory`` (a constructor, or a function of the
    same module that returns a fresh generator) is flagged.  Anywhere
    else but ``repro.utils.rng``, a function that returns a fresh
    generator (directly or through one local) is flagged at its
    ``return``: with no such helper outside ``utils.rng``, a call from
    the simulated world into another module cannot mint one either.
    """

    code = "JRS011"
    description = (
        "numpy Generators in sim/ and dsss/ must be derived via "
        "repro.utils.rng, not constructed in place; only utils.rng "
        "returns fresh ones"
    )
    #: Dispatched once per file: the alias and producer sets are
    #: module-wide facts.
    node_types = (ast.Module,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.utils.rng"

    def check(
        self, node: ast.AST, ctx: ModuleContext
    ) -> Iterable[Violation]:
        if ctx.package not in _SIM_WORLD:
            for qualname, function in _module_functions(ctx.tree):
                for statement in _fresh_generator_returns(function, ctx):
                    yield self.violation(
                        ctx,
                        statement,
                        f"'{qualname}' returns a fresh numpy Generator; "
                        "only repro.utils.rng may mint one — derive it "
                        "there (derive_rng / SeedSequencer) so it hangs "
                        "off the experiment seed tree",
                    )
            return
        producers = {
            f"{ctx.module}.{qualname}"
            for qualname, function in _module_functions(ctx.tree)
            if _fresh_generator_returns(function, ctx)
        }
        aliases = {
            target.id
            for assign in ctx.nodes
            if isinstance(assign, ast.Assign)
            and not isinstance(assign.value, ast.Call)
            and ctx.resolve_call_chain(assign.value) in RNG_CONSTRUCTORS
            for target in assign.targets
            if isinstance(target, ast.Name)
        }
        for call in ctx.nodes:
            if not isinstance(call, ast.Call):
                continue
            chain = ctx.resolve_call_chain(call.func)
            via: Optional[str] = None
            if chain in RNG_CONSTRUCTORS:
                via = chain
            elif isinstance(call.func, ast.Name) and call.func.id in aliases:
                via = f"alias '{call.func.id}'"
            if via is not None:
                yield self.violation(
                    ctx,
                    call,
                    f"fresh numpy Generator constructed via {via} "
                    "inside the simulated world; derive it from "
                    "repro.utils.rng (derive_rng / SeedSequencer) so "
                    "it hangs off the experiment seed tree",
                )
            for value, ref in _default_factories(call, ctx):
                if ref in RNG_CONSTRUCTORS or ref in producers:
                    yield self.violation(
                        ctx,
                        value,
                        f"dataclass default_factory '{ref}' mints a "
                        "fresh numpy Generator per instance; inject a "
                        "Generator derived via repro.utils.rng instead",
                    )


def _default_factories(
    call: ast.Call, ctx: ModuleContext
) -> Iterator[Tuple[ast.expr, str]]:
    """``(value, dotted ref)`` of a ``field(default_factory=...)``
    call's factory, when it names an import or a module-scope def."""
    func = call.func
    if not (
        (isinstance(func, ast.Name) and func.id == "field")
        or (isinstance(func, ast.Attribute) and func.attr == "field")
    ):
        return
    for keyword in call.keywords:
        if keyword.arg != "default_factory":
            continue
        value = keyword.value
        ref: Optional[str] = None
        if isinstance(value, ast.Name):
            ref = ctx.aliases.get(value.id)
            if ref is None and value.id in ctx.module_scope_defs:
                ref = f"{ctx.module}.{value.id}"
        elif isinstance(value, ast.Attribute):
            ref = ctx.resolve_call_chain(value)
        if ref is not None:
            yield value, ref


#: The rule pack, run over each module's nodes.
RULES: Tuple[Rule, ...] = (
    JRS001UnseededRandomness(),
    JRS002WallClock(),
    JRS003BroadExcept(),
    JRS004UnregisteredMetricName(),
    JRS010ArchitectureLayering(),
    JRS011RngProvenance(),
)

#: code -> rule, for --list-rules and docs.
RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}

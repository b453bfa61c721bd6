"""The JR-SND determinism rule pack.

Every rule guards an invariant this repository's results rest on:
Theorem 1's P̂− at the Table I point, the exact ``(l−1)γ`` DoS bound,
and byte-identical serial, pool and kill/resume runs all need seeded
randomness only, simulated time only, and registered metric names.

Per-file rules (JRS001–JRS004) check one module's AST: seeded
randomness, no wall clock inside the simulated world, narrow excepts,
and registered metric names.  Cross-module rules (JRS008, JRS010,
JRS011) run in phase 2 against the
:class:`~repro.lint.graph.ProjectIndex`: thread-shared-state lock
discipline, architecture layering with cycle detection, and RNG
provenance.  What crosses the process-pool boundary needs no rule: the
pool's only unit of work is a ``NetworkExperiment``, and
``WorkerPool.submit`` refuses anything else.  See
``docs/architecture.md`` ("Static analysis & determinism lints") for
the rationale table and the policy for adding a rule.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.engine import (
    ModuleContext,
    ProjectRule,
    Rule,
    Violation,
    package_of,
)
from repro.lint.flow import (
    find_import_cycles,
    reachable_methods,
    tainted_rng_producers,
)
from repro.lint.graph import (
    RNG_CONSTRUCTORS,
    ClassSummary,
    ModuleSummary,
    ProjectIndex,
)
from repro.obs import names as _metric_names

__all__ = [
    "JRS001UnseededRandomness",
    "JRS002WallClock",
    "JRS003BroadExcept",
    "JRS004UnregisteredMetricName",
    "JRS008ThreadSharedState",
    "JRS010ArchitectureLayering",
    "JRS011RngProvenance",
    "FILE_RULES",
    "PROJECT_RULES",
    "RULES_BY_CODE",
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


class JRS008ThreadSharedState(ProjectRule):
    """State shared with a ``threading.Thread`` needs lock discipline.

    For every class that spawns a thread on one of its own methods
    (``threading.Thread(target=self.x)``): an attribute that is
    plain-written outside ``__init__`` and touched both by the thread
    target's reachable methods and by the public API is *shared*, and
    every access to it outside ``__init__`` must sit inside a
    ``with self._lock:`` (any lock-named attribute) block.  Container
    mutations through a stable reference (``self._jobs.append``,
    ``self._workers[k] = v``) don't make the *attribute* shared — the
    reference never changes — which keeps single-owner dispatcher
    state such as per-job bookkeeping out of scope.
    """

    code = "JRS008"
    description = (
        "attributes shared between a threading.Thread target and "
        "public methods must be accessed under 'with self._lock'"
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        for summary in index.summaries:
            for cls in summary.classes:
                yield from self._check_class(summary, cls)

    def _check_class(
        self, summary: ModuleSummary, cls: ClassSummary
    ) -> Iterable[Violation]:
        targets = cls.thread_targets
        if not targets:
            return
        thread_set = reachable_methods(cls, targets)
        if not thread_set:
            return
        written_outside_init: Set[str] = set()
        thread_touched: Set[str] = set()
        public_touched: Set[str] = set()
        for method in cls.methods:
            if method.name == "__init__":
                continue
            for access in method.accesses:
                if access.write:
                    written_outside_init.add(access.attr)
                if method.name in thread_set:
                    thread_touched.add(access.attr)
                if method.public:
                    public_touched.add(access.attr)
        shared = written_outside_init & thread_touched & public_touched
        if not shared:
            return
        target_list = ", ".join(sorted(set(targets)))
        for method in cls.methods:
            if method.name == "__init__":
                continue
            for access in method.accesses:
                if access.attr not in shared or access.locked:
                    continue
                yield self.violation_at(
                    summary.path,
                    access.line,
                    access.col,
                    f"'self.{access.attr}' is shared between thread "
                    f"target '{target_list}' and public methods of "
                    f"'{cls.name}' but accessed here "
                    f"(in '{method.name}') outside 'with self._lock'",
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
    "faults": frozenset({"obs", "utils", "core", "sim"}),
    "experiments": frozenset(
        {
            "obs", "utils", "ecc", "sim", "dsss", "crypto", "core",
            "adversary", "predistribution", "analysis", "faults",
        }
    ),
    "campaigns": frozenset(
        {
            "obs", "utils", "ecc", "sim", "dsss", "crypto", "core",
            "adversary", "predistribution", "analysis", "faults",
            "experiments",
        }
    ),
    "lint": frozenset({"obs", "utils"}),
    "cli": frozenset(
        {
            "obs", "utils", "ecc", "sim", "dsss", "crypto", "core",
            "adversary", "predistribution", "analysis", "faults",
            "experiments", "campaigns",
        }
    ),
    "__main__": frozenset({"cli"}),
}


class JRS010ArchitectureLayering(ProjectRule):
    """The package DAG in docs/architecture.md is load-bearing.

    ``utils``/``obs`` are leaves; ``sim``/``dsss``/``ecc`` must never
    import ``experiments``/``campaigns``/``cli``; and module-level
    import cycles are forbidden outright.  Violations here are how
    "the PHY layer quietly grew a dependency on the campaign runner"
    happens.
    """

    code = "JRS010"
    description = (
        "imports must respect the docs/architecture.md package DAG; "
        "no module-level import cycles"
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        for summary in index.summaries:
            source_package = package_of(summary.module)
            allowed = _LAYER_ALLOWED.get(source_package)
            if allowed is None:
                continue  # root facade or a package outside the DAG
            reported: Set[Tuple[int, str]] = set()
            for record in summary.imports:
                if record.type_checking or record.function_scope:
                    continue
                # "" is stdlib/third-party, or the root facade.
                target_package = package_of(record.target)
                if not target_package:
                    continue
                if target_package == source_package:
                    continue
                if target_package in _LAYER_LEAVES:
                    continue
                if target_package not in _LAYER_ALLOWED:
                    continue
                if target_package in allowed:
                    continue
                key = (record.line, target_package)
                if key in reported:
                    continue
                reported.add(key)
                yield self.violation_at(
                    summary.path,
                    record.line,
                    record.col,
                    f"layering violation: '{source_package}' must not "
                    f"import '{target_package}' "
                    f"(via '{record.target}'); see the package DAG in "
                    "docs/architecture.md — use a TYPE_CHECKING or "
                    "function-scope import if a back reference is "
                    "unavoidable",
                )
        for cycle in find_import_cycles(index):
            anchor = index.by_module.get(cycle[0])
            line, col = 1, 0
            if anchor is not None:
                members = set(cycle)
                for target, record in index.import_edges(
                    cycle[0], include_lazy=False
                ):
                    if target in members:
                        line, col = record.line, record.col
                        break
            yield self.violation_at(
                anchor.path if anchor is not None else cycle[0],
                line,
                col,
                "module-level import cycle: "
                + " -> ".join(cycle)
                + " -> ... ; break it with a TYPE_CHECKING or "
                "function-scope import",
            )


class JRS011RngProvenance(ProjectRule):
    """Generators in sim/dsss/faults must flow from ``utils.rng``.

    Seeded construction satisfies JRS001, but two call sites seeding
    ``default_rng(42)`` independently still decouple their streams
    from the experiment's ``SeedSequencer`` tree — kill/resume
    bit-identity and the per-run seed audit both break.  Inside the
    simulated world (``sim/``, ``dsss/``, ``faults/``), every
    ``numpy.random.Generator`` must be minted by ``repro.utils.rng``
    (``derive_rng`` / ``SeedSequencer`` children) — constructing one
    directly, via an alias, via a helper that transitively returns a
    fresh generator, or as a dataclass ``default_factory`` is flagged.
    """

    code = "JRS011"
    description = (
        "numpy Generators in sim/, dsss/, faults/ must be derived via "
        "repro.utils.rng, not constructed in place"
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        producers = tainted_rng_producers(index)
        for summary in index.summaries:
            if package_of(summary.module) not in ("sim", "dsss", "faults"):
                continue
            for site in summary.rng_sites:
                yield self.violation_at(
                    summary.path,
                    site.line,
                    site.col,
                    f"fresh numpy Generator constructed via {site.via} "
                    "inside the simulated world; derive it from "
                    "repro.utils.rng (derive_rng / SeedSequencer) so "
                    "it hangs off the experiment seed tree",
                )
            for fn in summary.functions:
                for call in fn.calls:
                    if call.callee not in producers:
                        continue
                    yield self.violation_at(
                        summary.path,
                        call.line,
                        call.col,
                        f"'{call.callee}' transitively returns a "
                        "fresh numpy Generator; inside sim/dsss/faults "
                        "generators must be derived via repro.utils.rng",
                    )
            for ref in summary.factory_refs:
                if (
                    ref.ref not in producers
                    and ref.ref not in RNG_CONSTRUCTORS
                ):
                    continue
                yield self.violation_at(
                    summary.path,
                    ref.line,
                    ref.col,
                    f"dataclass default_factory '{ref.ref}' mints a "
                    "fresh numpy Generator per instance; inject a "
                    "Generator derived via repro.utils.rng instead",
                )


#: Per-file rules, run in phase 1 over each module's nodes.
FILE_RULES: Tuple[Rule, ...] = (
    JRS001UnseededRandomness(),
    JRS002WallClock(),
    JRS003BroadExcept(),
    JRS004UnregisteredMetricName(),
)

#: Cross-module rules, run in phase 2 over the ProjectIndex.
PROJECT_RULES: Tuple[ProjectRule, ...] = (
    JRS008ThreadSharedState(),
    JRS010ArchitectureLayering(),
    JRS011RngProvenance(),
)

#: code -> rule, for --list-rules and docs.
RULES_BY_CODE: Dict[str, Union[Rule, ProjectRule]] = {
    rule.code: rule for rule in (*FILE_RULES, *PROJECT_RULES)
}

"""Flow analyses over the :class:`~repro.lint.graph.ProjectIndex`.

These are the interprocedural halves of the cross-module rules:
thread-target reachability inside a class (JRS008), import-cycle
detection via Tarjan's SCC algorithm (JRS010), and taint of
fresh-generator producers (JRS011).  Each analysis is a pure function
over the summaries — no AST access.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.lint.graph import RNG_CONSTRUCTORS, ClassSummary, ProjectIndex

__all__ = [
    "find_import_cycles",
    "reachable_methods",
    "tainted_rng_producers",
]


def reachable_methods(
    cls: ClassSummary, roots: Sequence[str]
) -> FrozenSet[str]:
    """Methods of ``cls`` reachable from ``roots`` via self-calls.

    Used by JRS008 with the ``threading.Thread`` target methods as
    roots: everything in the returned set may execute on the spawned
    thread.  Roots that don't name a method of ``cls`` are ignored.
    """
    reachable: Set[str] = set()
    stack = [name for name in roots if cls.method(name) is not None]
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        method = cls.method(name)
        if method is None:
            continue
        for callee in method.self_calls:
            if callee not in reachable and cls.method(callee) is not None:
                stack.append(callee)
    return frozenset(reachable)


def tainted_rng_producers(index: ProjectIndex) -> FrozenSet[str]:
    """Project functions that (transitively) return fresh generators.

    Seeds: functions whose ``returns_refs`` include a
    ``numpy.random`` constructor.  Propagation: functions returning a
    tainted producer's result are tainted themselves.  Functions
    defined in ``utils/rng.py`` are the blessed laundering point and
    never enter the set — everything must flow *through* them.
    """
    blessed_module = "repro.utils.rng"
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualname, fn in index.functions.items():
            if qualname in tainted:
                continue
            # Index keys are module + qualname; methods carry an extra
            # Class component before the name.
            parts_to_strip = 2 if fn.is_method else 1
            module = qualname.rsplit(".", parts_to_strip)[0]
            if module == blessed_module:
                continue
            for ref in fn.returns_refs:
                if ref in RNG_CONSTRUCTORS or ref in tainted:
                    tainted.add(qualname)
                    changed = True
                    break
    return frozenset(tainted)


def find_import_cycles(index: ProjectIndex) -> List[Tuple[str, ...]]:
    """Import-time cycles among project modules (Tarjan SCCs).

    Only module-level runtime edges participate: ``TYPE_CHECKING``
    and function-scope imports cannot create an import-time cycle and
    are the sanctioned ways to break one.  Each returned cycle is the
    SCC's modules sorted, deterministically ordered across runs.
    """
    edges: Dict[str, List[str]] = {}
    for module in index.by_module:
        edges[module] = sorted(
            {
                target
                for target, _ in index.import_edges(
                    module, include_lazy=False
                )
            }
        )

    counter = [0]
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    cycles: List[Tuple[str, ...]] = []

    def strongconnect(module: str) -> None:
        # Iterative Tarjan: recursion would overflow on deep chains.
        work: List[Tuple[str, int]] = [(module, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index_of[node] = counter[0]
                lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            neighbors = edges.get(node, [])
            while edge_index < len(neighbors):
                successor = neighbors[edge_index]
                edge_index += 1
                if successor not in index_of:
                    work[-1] = (node, edge_index)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(
                        lowlink[node], index_of[successor]
                    )
            if advanced:
                continue
            work[-1] = (node, edge_index)
            if edge_index >= len(neighbors):
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(
                        lowlink[parent], lowlink[node]
                    )
                if lowlink[node] == index_of[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        cycles.append(tuple(sorted(component)))
                    elif node in edges.get(node, []):
                        cycles.append((node,))

    for module in sorted(edges):
        if module not in index_of:
            strongconnect(module)
    return sorted(cycles)

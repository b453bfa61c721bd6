"""Span tracing installed from outside the program.

The benchmark never edits ``src/``: to see where a run spends its time
it wraps the public calls each layer exposes, at the attribute its
caller resolves, with a shim that records one span per call.  A span is
``(name, start, end, parent, run_id)``; ``parent`` is the index of the
enclosing span on the same thread, and spans without an explicit run id
inherit their parent's, so every span of one Monte Carlo run (or one
campaign shard) shares an identifier.

Spans stay in memory.  Pool workers are separate processes, so the
worker loop itself is wrapped too: each worker records into a fresh
tracer and writes its spans to ``<trace_dir>/worker-<pid>.json`` when
the pool stops it.  The parent reads those files after the campaign.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; :func:`layer_table` sums self times per
span name, so the rows of one process always add up to the wall time of
its root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: [name, start, end, parent index or None, run id or None].
Span = List[Any]

#: The public calls wrapped in a traced run: (module, attribute path,
#: span name).  Each is patched where its caller resolves it: methods on
#: their class, ``uniform_positions`` and ``collect_outcomes`` in the
#: module that imported them by name.
SHIM_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.field", "RectangularField.neighbor_pairs", "sim.neighbor_pairs"),
    ("repro.experiments.runner", "uniform_positions", "sim.uniform_positions"),
    ("repro.predistribution.authority", "PreDistributor.assign",
     "predistribution.assign"),
    ("repro.adversary.compromise", "CompromiseModel.compromise_random",
     "adversary.compromise_random"),
    ("repro.adversary.jammer", "JammingModel.from_compromise",
     "adversary.from_compromise"),
    ("repro.dsss.phy", "ChiplessModel.pair_success_probability",
     "dndp.pair_success_probability"),
    ("repro.core.mndp", "LogicalGraph.add_links", "mndp.add_links"),
    ("repro.core.mndp", "MNDPSampler.discover", "mndp.discover"),
    ("repro.experiments.runner", "NetworkExperiment.run_once",
     "experiments.run_once"),
    ("repro.experiments.pool", "WorkerPool.submit", "pool.submit"),
    ("repro.experiments.pool", "PendingRun.wait", "pool.wait"),
    ("repro.campaigns.executor", "collect_outcomes",
     "experiments.collect_outcomes"),
    ("repro.campaigns.store", "CampaignStore.write_shard",
     "campaigns.write_shard"),
    ("repro.campaigns.store", "CampaignStore.canonical_digest",
     "campaigns.canonical_digest"),
    ("repro.campaigns.executor", "run_campaign", "campaigns.run_campaign"),
)

#: Span name of a pool worker's whole lifetime; its self time is the
#: worker's idle, IPC and experiment-build time.
WORKER_LOOP = "pool.worker_loop"


class Tracer:
    """An in-memory span recorder with one span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, run_id: Optional[str] = None) -> int:
        """Open a span under the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if run_id is None and parent is not None:
                run_id = self.spans[parent][4]
            index = len(self.spans)
            self.spans.append([name, self._clock(), None, parent, run_id])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned; it must be innermost."""
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self.spans[index][2] = self._clock()
        stack.pop()


#: The tracer shims report into; ``None`` outside a traced window.
_active: Optional[Tracer] = None
#: Original objects replaced by :func:`install`: (owner, attr, original).
_patched: List[Tuple[Any, str, Any]] = []


def activate(tracer: Optional[Tracer]) -> None:
    """Route shim spans to ``tracer`` (``None`` stops recording)."""
    global _active
    _active = tracer


def _run_id(name: str, args: Sequence[Any]) -> Optional[str]:
    """Identifier shared by the spans of one run or one shard."""
    if name == "experiments.run_once" and len(args) >= 2:
        seeds = getattr(args[0], "_seeds", None)
        return f"run-{args[1]}@{getattr(seeds, 'seed', '?')}"
    if name == "campaigns.write_shard" and len(args) >= 4:
        return f"shard-{getattr(args[3], 'index', '?')}"
    return None


def _wrap(function: Callable[..., Any], name: str) -> Callable[..., Any]:
    @functools.wraps(function)
    def shim(*args: Any, **kwargs: Any) -> Any:
        tracer = _active
        if tracer is None:
            return function(*args, **kwargs)
        index = tracer.begin(name, _run_id(name, args))
        try:
            return function(*args, **kwargs)
        finally:
            tracer.end(index)

    return shim


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(trace_dir: Optional[str] = None) -> None:
    """Wrap every :data:`SHIM_TARGETS` call (and, given ``trace_dir``,
    the pool worker loop).  Idempotent; undo with :func:`uninstall`."""
    if _patched:
        return
    for module_name, path, name in SHIM_TARGETS:
        owner, attr = _resolve(module_name, path)
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (classmethod, staticmethod)):
            replacement: Any = type(static)(_wrap(static.__func__, name))
        else:
            replacement = _wrap(static, name)
        _patched.append((owner, attr, static))
        setattr(owner, attr, replacement)
    if trace_dir is not None:
        pool = importlib.import_module("repro.experiments.pool")
        _patched.append((pool, "_worker_main", pool._worker_main))
        pool._worker_main = functools.partial(
            traced_worker_main, trace_dir, pool._worker_main
        )


def uninstall() -> None:
    """Restore every object :func:`install` replaced."""
    while _patched:
        owner, attr, original = _patched.pop()
        setattr(owner, attr, original)


def traced_worker_main(
    trace_dir: str, worker_main: Callable[..., None], *args: Any
) -> None:
    """Pool worker entry point in a traced run.

    Records the worker's spans into a fresh tracer (a forked worker
    inherits a copy of the parent's) and writes them out when the pool
    stops the worker.
    """
    install()
    tracer = Tracer()
    activate(tracer)
    root = tracer.begin(WORKER_LOOP, f"worker-{os.getpid()}")
    try:
        worker_main(*args)
    finally:
        tracer.end(root)
        activate(None)
        path = os.path.join(trace_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


def read_worker_spans(trace_dir: str) -> List[List[Span]]:
    """Every worker's span list written under ``trace_dir``."""
    lists = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
                lists.append(json.load(handle))
    return lists


# -- self-time arithmetic ---------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(index, ()), start, end)
        for index, (_, start, end, _, _) in enumerate(spans)
    ]


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``busy`` (summed durations) and ``self``.

    The ``self`` column over all names sums to the duration of the root
    spans (those without a parent), because every instant inside a root
    is either covered by some child or counted as its parent's self.
    """
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[0], span[1], span[2]
        row = table.setdefault(name, {"count": 0, "busy": 0.0, "self": 0.0})
        row["count"] += 1
        row["busy"] += end - start
        row["self"] += own
    return table


def root_wall(spans: Sequence[Span]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)


def merge_tables(tables: Iterable[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Add per-name rows of several processes' layer tables."""
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, {"count": 0, "busy": 0.0, "self": 0.0})
            for key in into:
                into[key] += row[key]
    return merged


def carve_sweep(
    table: Dict[str, Dict[str, float]], sweep_seconds: float, sweep_count: int
) -> None:
    """Split the D-NDP sweep out of ``experiments.run_once`` self time.

    The chipless sweep has no public call of its own; the program times
    it with the ``phy.sweep_seconds`` timer, which runs inside
    ``run_once`` and around every ``pair_success_probability`` span.  The
    timer minus those spans moves from ``run_once``'s self time into a
    ``dndp.sweep`` row that also absorbs the ``pair_success_probability``
    row, so the rows still sum to the same wall.
    """
    inner = table.pop("dndp.pair_success_probability", None)
    inner_busy = inner["busy"] if inner else 0.0
    run = table["experiments.run_once"]
    carved = min(max(sweep_seconds - inner_busy, 0.0), run["self"])
    run["self"] -= carved
    table["dndp.sweep"] = {
        "count": sweep_count,
        "busy": sweep_seconds,
        "self": carved + (inner["self"] if inner else 0.0),
    }

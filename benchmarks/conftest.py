"""Shared benchmark configuration.

The figure benchmarks (``test_fig*.py``) launch their figure's spec,
``examples/figN.json``, into a temporary store and assert the paper's
shapes on its ``campaign query`` rows (:func:`repro.campaigns.query_rows`).

Environment knobs:

- ``REPRO_BENCH_RUNS``   Monte Carlo runs per sweep point (default 5;
  the figure specs and the paper use 100 — set it for a full
  reproduction).  Overrides a figure spec's ``runs_per_point``.
- ``REPRO_BENCH_SEED``   root seed (default 2011).  Overrides a figure
  spec's ``seed``.

Command-line knobs:

- ``--bench-json PATH``  write a machine-readable JSON record of every
  benchmark that called the ``bench_record`` fixture (timings, speedup
  ratios, workload sizes) — CI uploads it as an artifact so perf
  regressions are diffable across commits.
"""

import json
import os
from pathlib import Path
from typing import Any, Dict, List

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

_BENCH_RECORDS: Dict[str, Dict[str, Any]] = {}


def bench_runs() -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", "5"))


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "2011"))


@pytest.fixture
def runs() -> int:
    return bench_runs()


@pytest.fixture
def seed() -> int:
    return bench_seed()


@pytest.fixture
def figure_rows(tmp_path, runs, seed):
    """``figure_rows(name)`` launches ``examples/<name>.json`` at the
    bench's runs and seed into a fresh store; its query rows."""
    from repro.campaigns import (
        CampaignSpec,
        CampaignStore,
        query_rows,
        run_campaign,
    )

    def launch(name: str) -> List[Dict[str, Any]]:
        data = json.loads((EXAMPLES / f"{name}.json").read_text())
        data.update(runs_per_point=runs, seed=seed)
        spec = CampaignSpec.from_dict(data)
        path = str(tmp_path / f"{name}.sqlite")
        assert run_campaign(spec, path, git_revision="bench").complete
        with CampaignStore(path) as store:
            results = store.point_results(
                spec.name, spec.spec_hash(), "bench"
            )
        return query_rows(spec, results)

    return launch


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="write recorded benchmark timings/speedups as JSON",
    )


@pytest.fixture
def bench_record():
    """Record one benchmark's structured results for ``--bench-json``."""

    def record(name: str, **fields: Any) -> None:
        _BENCH_RECORDS[name] = fields

    return record


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    if path and _BENCH_RECORDS:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_BENCH_RECORDS, handle, indent=2, sort_keys=True)
            handle.write("\n")

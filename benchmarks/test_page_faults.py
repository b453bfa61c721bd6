"""Steady-state page faults of the Table I run.

A stage whose transient peak rises above the rest of the run's heap
leaves a free block at the top of the heap after it returns; glibc
hands that block back to the kernel once it passes the trim threshold,
and the next run faults it in again, one zeroed page at a time.  The
neighbor search used to do that: screening all five stencil columns at
once peaked at 3.9 MB, ~800 minor faults per Table I run.  It now
screens one column at a time and stays under the other stages' peaks.

Whether a freed peak sits at the heap top depends on where the
process's long-lived blocks happen to fall, so one interpreter can read
0 faults where another reads hundreds.  This bench therefore runs the
``paper-chipless`` point (the perfbench ``table1-chipless`` workload)
in several fresh interpreters, each with a different seed and a
different ballast: 0, 2, 4, 6 or 8 live 120 KB blocks, under glibc's
initial 128 KB mmap threshold so they land on the heap and push the
run's transients up to its top (with 4 or more, the all-columns search
re-faulted ~800 pages per run on every seed and environment tried;
with none it read anywhere from 0 to 250).  Each keeps every
result in a dict keyed by run index, as the perfbench loop does, and
counts the minor faults (``getrusage().ru_minflt``) per ``run_once``
after a warm-up.  The worst layout is recorded and gated.

Results land in ``--bench-json`` (see ``conftest``) for CI artifacts.
Skipped where ``resource`` or ``ru_minflt`` is unavailable.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

import repro  # noqa: E402

#: Ballast blocks of each fresh interpreter (heap layout) measured;
#: the layout with ``k`` blocks runs seed ``seed + k``.
BALLAST_BLOCKS = (0, 2, 4, 6, 8)
BALLAST_BYTES = 120 * 1024
WARMUP_RUNS = 5
MEASURED_RUNS = 40
#: Faults per run the gate allows: a re-faulted heap top costs
#: hundreds, a steady heap a handful.
FAULT_LIMIT = 100

CHILD = """
import resource, sys
from repro.experiments.runner import NetworkExperiment
from repro.experiments.scenarios import preset_config

seed, blocks, size, warmup, measured = map(int, sys.argv[1:])
ballast = [bytearray(size) for _ in range(blocks)]
experiment = NetworkExperiment(preset_config("paper-chipless"), seed=seed)
results = {}
for index in range(warmup):
    results[index] = experiment.run_once(index)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for index in range(warmup, warmup + measured):
    results[index] = experiment.run_once(index)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / measured)
"""


def _faults_per_run(seed: int, blocks: int) -> float:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(seed), str(blocks),
         str(BALLAST_BYTES), str(WARMUP_RUNS), str(MEASURED_RUNS)],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(done.stdout.split()[-1])


def test_table1_run_does_not_refault_the_heap(seed, bench_record):
    if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
        pytest.skip("getrusage() reports no ru_minflt here")
    per_layout = [_faults_per_run(seed + k, k) for k in BALLAST_BLOCKS]
    worst = max(per_layout)
    bench_record(
        "table1_minor_faults",
        n_nodes=2000,
        runs=MEASURED_RUNS,
        ballast_blocks=list(BALLAST_BLOCKS),
        minor_faults_per_run=round(worst, 1),
        per_layout=[round(value, 1) for value in per_layout],
        limit=FAULT_LIMIT,
    )
    print(
        "\nTable I run_once minor faults per run, per layout: "
        + ", ".join(f"{value:.1f}" for value in per_layout)
    )
    assert worst < FAULT_LIMIT, (
        f"{worst:.0f} minor faults per Table I run (limit "
        f"{FAULT_LIMIT}): a stage's transient peak is re-faulted "
        "every run"
    )

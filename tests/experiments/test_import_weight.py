"""The run path imports neither scipy, networkx nor the test oracles.

scipy is most of ``import repro``'s cost and only the aggregation
helpers and the Theorem 3 quadrature use it; networkx only answers
``LogicalGraph`` graph queries.  Both are imported inside the functions
that need them, so a fresh interpreter that loads the campaign executor,
the experiment runner, the worker pool, the PHY models and the CLI must
not have either loaded.  :mod:`repro.oracles` holds the reference
correlation engine, RS codec and per-draw pair PHYs (the chip PHY among
them) for the equivalence tests and speed-up benchmarks; no runtime
module may load it, at import or while a chipless run executes.  A bare ``import repro``
(config, node, runner, metrics) does not load the worker pool or
``multiprocessing`` either: only code that fans runs out pays for them.
The pool itself loads numpy's lazily imported ``numpy.random`` and
``numpy.ma`` before it forks, so no fresh worker imports them on its
first run.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro.campaigns.executor
import repro.experiments.pool
import repro.experiments.runner
import repro.dsss.phy
import repro.cli
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
    or name == "repro.oracles"
)
print(",".join(heavy))
"""


RUN_PROBE = """
import sys
from repro.experiments.runner import NetworkExperiment
from repro.experiments.scenarios import preset_config
NetworkExperiment(preset_config("tiny-chipless"), seed=0).run_once(0)
print("repro.oracles" in sys.modules)
"""


POOL_PROBE = """
import sys
import repro
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] == "multiprocessing"
    or name == "repro.experiments.pool"
)
print(",".join(loaded))
"""


WARM_PROBE = """
import sys
import repro.experiments.pool
print(",".join(
    name for name in ("numpy.random", "numpy.ma") if name in sys.modules
))
"""


def _probe(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return result.stdout.strip()


def test_run_path_imports_no_scipy_or_networkx():
    assert _probe(PROBE) == ""


def test_chipless_run_loads_no_oracles():
    assert _probe(RUN_PROBE) == "False"


def test_import_repro_loads_no_pool_or_multiprocessing():
    assert _probe(POOL_PROBE) == ""


def test_pool_loads_numpy_lazy_modules_before_forking():
    assert _probe(WARM_PROBE) == "numpy.random,numpy.ma"

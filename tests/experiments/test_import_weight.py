"""The run path imports neither scipy nor networkx.

scipy is most of ``import repro``'s cost and only the aggregation
helpers and the Theorem 3 quadrature use it; networkx only answers
``LogicalGraph`` graph queries.  Both are imported inside the functions
that need them, so a fresh interpreter that loads the campaign executor,
the experiment runner and the worker pool must not have either loaded.
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
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
)
print(",".join(heavy))
"""


def test_run_path_imports_no_scipy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == ""

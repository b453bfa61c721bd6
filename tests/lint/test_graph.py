"""ProjectIndex tests: module naming, import records, and the flow
analyses phase 2 builds on."""

import ast

from repro.lint.engine import ModuleContext, module_name_for_path, package_of
from repro.lint.flow import (
    find_import_cycles,
    reachable_methods,
    tainted_rng_producers,
)
from repro.lint.graph import ModuleSummary, ProjectIndex, summarize_module


def summarize(path: str, source: str) -> ModuleSummary:
    tree = ast.parse(source, filename=path)
    return summarize_module(ModuleContext(path, tree))


def build_index(files: dict) -> ProjectIndex:
    return ProjectIndex(
        [summarize(path, source) for path, source in files.items()]
    )


class TestModuleNaming:
    def test_anchors_at_repro(self):
        assert (
            module_name_for_path("src/repro/dsss/phy.py")
            == "repro.dsss.phy"
        )
        assert (
            module_name_for_path("/abs/tree/src/repro/sim/core.py")
            == "repro.sim.core"
        )

    def test_package_init_maps_to_package(self):
        assert (
            module_name_for_path("src/repro/obs/__init__.py")
            == "repro.obs"
        )

    def test_outside_repro_falls_back_to_stem(self):
        assert module_name_for_path("/tmp/scratch.py") == "scratch"

    def test_package_of(self):
        assert package_of("repro.dsss.phy") == "dsss"
        assert package_of("repro") == ""
        assert package_of("scratch") == ""


class TestImportRecords:
    SOURCE = (
        "from typing import TYPE_CHECKING\n"
        "import repro.ecc\n"
        "from repro.obs import names\n"
        "if TYPE_CHECKING:\n"
        "    from repro.experiments import runner\n"
        "def late():\n"
        "    from repro.campaigns import spec\n"
        "    return spec\n"
    )

    def test_flags(self):
        summary = summarize("src/repro/sim/x.py", self.SOURCE)
        by_target = {
            record.target: record for record in summary.imports
        }
        assert not by_target["repro.ecc"].type_checking
        assert not by_target["repro.ecc"].function_scope
        assert by_target["repro.experiments"].type_checking
        assert by_target["repro.campaigns"].function_scope
        # `from repro.obs import names` also binds the submodule.
        assert "repro.obs.names" in by_target

    def test_runtime_imports_exclude_type_checking(self):
        index = build_index({"src/repro/sim/x.py": self.SOURCE})
        targets = {
            record.target
            for record in index.runtime_imports("repro.sim.x")
        }
        assert "repro.experiments" not in targets
        assert "repro.campaigns" in targets
        lazy_free = {
            record.target
            for record in index.runtime_imports(
                "repro.sim.x", include_lazy=False
            )
        }
        assert "repro.campaigns" not in lazy_free


class TestFlowAnalyses:
    #: a -> b -> c, with d independent: a DAG.
    DAG = {
        "src/repro/sim/a.py": "from repro.sim import b\n",
        "src/repro/sim/b.py": "from repro.sim import c\n",
        "src/repro/sim/c.py": "X = 1\n",
        "src/repro/sim/d.py": "Y = 2\n",
    }

    def test_reachable_methods(self):
        source = (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self._t = threading.Thread(target=self._run)\n"
            "    def _run(self):\n"
            "        self._helper()\n"
            "    def _helper(self):\n"
            "        pass\n"
            "    def public(self):\n"
            "        pass\n"
        )
        summary = summarize("src/repro/experiments/x.py", source)
        cls = summary.classes[0]
        assert cls.thread_targets == ("_run",)
        reachable = reachable_methods(cls, cls.thread_targets)
        assert reachable == {"_run", "_helper"}

    def test_rng_producer_taint(self):
        index = build_index(
            {
                "src/repro/utils/helpers.py": (
                    "import numpy as np\n"
                    "def fresh(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                    "def indirect(seed):\n"
                    "    rng = fresh(seed)\n"
                    "    return rng\n"
                    "def unrelated():\n"
                    "    return 3\n"
                ),
                "src/repro/utils/rng.py": (
                    "import numpy as np\n"
                    "def derive_rng(seed, label):\n"
                    "    return np.random.default_rng(seed)\n"
                ),
            }
        )
        producers = tainted_rng_producers(index)
        assert "repro.utils.helpers.fresh" in producers
        assert "repro.utils.helpers.indirect" in producers
        assert "repro.utils.helpers.unrelated" not in producers
        # The blessed module never enters the taint set.
        assert "repro.utils.rng.derive_rng" not in producers

    def test_cycle_detection(self):
        index = build_index(
            {
                "src/repro/sim/a.py": "from repro.sim import b\n",
                "src/repro/sim/b.py": "from repro.sim import a\n",
                "src/repro/sim/c.py": "from repro.sim import a\n",
            }
        )
        cycles = find_import_cycles(index)
        assert cycles == [("repro.sim.a", "repro.sim.b")]

    def test_no_cycles_in_dag(self):
        index = build_index(self.DAG)
        assert find_import_cycles(index) == []

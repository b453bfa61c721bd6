"""Import-graph tests: module naming, the runtime import records the
cycle pass reads, and cycle detection."""

import ast

from repro.lint.engine import ModuleContext, module_name_for_path, package_of
from repro.lint.rules import (
    find_import_cycles,
    module_imports,
    runtime_import_targets,
)


def context(path: str, source: str) -> ModuleContext:
    return ModuleContext(path, ast.parse(source, filename=path))


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
        ctx = context("src/repro/sim/x.py", self.SOURCE)
        targets = {
            node.lineno: runtime_import_targets(node, ctx)
            for node in ctx.nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
        assert targets[2] == ["repro.ecc"]
        # `from repro.obs import names` also binds the submodule.
        assert targets[3] == ["repro.obs", "repro.obs.names"]
        # TYPE_CHECKING and function-scope imports are no runtime edge.
        assert targets[5] == []
        assert targets[7] == []

    def test_runtime_imports_exclude_type_checking(self):
        ctx = context("src/repro/sim/x.py", self.SOURCE)
        records = [
            (record.line, record.target) for record in module_imports(ctx)
        ]
        assert records == [
            (1, "typing"),
            (2, "repro.ecc"),
            (3, "repro.obs"),
            (3, "repro.obs.names"),
        ]


class TestFlowAnalyses:
    def test_cycle_detection(self):
        edges = {
            "repro.sim.a": {"repro.sim.b"},
            "repro.sim.b": {"repro.sim.a"},
            "repro.sim.c": {"repro.sim.a"},
        }
        assert find_import_cycles(edges) == [("repro.sim.a", "repro.sim.b")]

    def test_no_cycles_in_dag(self):
        #: a -> b -> c, with d independent: a DAG.
        edges = {
            "repro.sim.a": {"repro.sim.b"},
            "repro.sim.b": {"repro.sim.c"},
            "repro.sim.c": set(),
            "repro.sim.d": set(),
        }
        assert find_import_cycles(edges) == []

    def test_separate_cycles_are_separate_components(self):
        edges = {
            "a": {"b"},
            "b": {"a", "c"},
            "c": {"d"},
            "d": {"c"},
        }
        assert find_import_cycles(edges) == [("a", "b"), ("c", "d")]

"""Per-rule fixture tests: each JRS rule fires on its known-bad
fixture and stays silent on the corrected version."""

import shutil
from pathlib import Path

import pytest

from repro.lint import lint_project, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"

#: Virtual paths: scoped rules (JRS002) key off the module's location,
#: so fixtures are linted as-if they lived in scope.
IN_SCOPE = {
    "JRS001": "src/repro/core/fixture.py",
    "JRS002": "src/repro/sim/fixture.py",
    "JRS003": "src/repro/core/fixture.py",
    "JRS004": "src/repro/experiments/fixture.py",
}

#: Minimum findings each bad fixture must produce for its own rule.
EXPECTED_MIN = {
    "JRS001": 7,
    "JRS002": 6,
    "JRS003": 4,
    "JRS004": 8,
}

#: Rules that need a package scope or the import-cycle pass: fixtures
#: are linted as a one-file project tree rooted at the virtual path
#: (every rule runs, so a bad fixture must be free of other findings).
PROJECT_IN_SCOPE = {
    "JRS010": "src/repro/dsss/fixture.py",
    "JRS011": "src/repro/sim/fixture.py",
}

PROJECT_EXPECTED_MIN = {
    "JRS010": 5,
    "JRS011": 5,
}


def run_fixture(name: str, virtual_path: str):
    source = (FIXTURES / name).read_text()
    return lint_source(source, virtual_path).violations


def run_project_fixture(name: str, virtual_path: str, tmp_path: Path):
    """Lint one fixture as a project tree at its virtual location."""
    target = tmp_path / virtual_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text((FIXTURES / name).read_text())
    return lint_project([str(tmp_path)]).violations


def run_project_tree(tmp_path: Path, files: dict):
    """Lint a dict of {virtual_path: source} as one project tree."""
    for virtual_path, source in files.items():
        target = tmp_path / virtual_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return lint_project([str(tmp_path)]).violations


@pytest.mark.parametrize("code", sorted(IN_SCOPE))
class TestRulePack:
    def test_fires_on_bad_fixture(self, code):
        violations = run_fixture(
            f"{code.lower()}_bad.py", IN_SCOPE[code]
        )
        own = [v for v in violations if v.rule == code]
        assert len(own) >= EXPECTED_MIN[code]
        others = {v.rule for v in violations} - {code}
        assert not others, f"unexpected cross-rule noise: {others}"

    def test_silent_on_good_fixture(self, code):
        violations = run_fixture(
            f"{code.lower()}_good.py", IN_SCOPE[code]
        )
        assert violations == []


@pytest.mark.parametrize("code", sorted(PROJECT_IN_SCOPE))
class TestProjectRulePack:
    def test_fires_on_bad_fixture(self, code, tmp_path):
        violations = run_project_fixture(
            f"{code.lower()}_bad.py", PROJECT_IN_SCOPE[code], tmp_path
        )
        own = [v for v in violations if v.rule == code]
        assert len(own) >= PROJECT_EXPECTED_MIN[code]
        others = {v.rule for v in violations} - {code}
        assert not others, f"unexpected cross-rule noise: {others}"

    def test_silent_on_good_fixture(self, code, tmp_path):
        violations = run_project_fixture(
            f"{code.lower()}_good.py", PROJECT_IN_SCOPE[code], tmp_path
        )
        assert violations == []


class TestProjectRuleDetails:
    def test_jrs010_import_cycle_detected(self, tmp_path):
        violations = run_project_tree(
            tmp_path,
            {
                "src/repro/sim/alpha.py": "from repro.sim import beta\n",
                "src/repro/sim/beta.py": "from repro.sim import alpha\n",
            },
        )
        cycles = [
            v for v in violations if "import cycle" in v.message
        ]
        assert len(cycles) == 1
        assert cycles[0].rule == "JRS010"
        assert "repro.sim.alpha" in cycles[0].message
        assert "repro.sim.beta" in cycles[0].message

    def test_jrs010_lazy_import_breaks_cycle(self, tmp_path):
        violations = run_project_tree(
            tmp_path,
            {
                "src/repro/sim/alpha.py": "from repro.sim import beta\n",
                "src/repro/sim/beta.py": (
                    "def late():\n"
                    "    from repro.sim import alpha\n"
                    "    return alpha\n"
                ),
            },
        )
        assert violations == []

    def test_jrs011_cross_module_producer(self, tmp_path):
        """A helper outside utils.rng that returns a fresh generator
        is flagged at its return, so a call to it from the simulated
        world cannot mint an unflagged one."""
        violations = run_project_tree(
            tmp_path,
            {
                "src/repro/utils/mkrng.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def make_rng(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                ),
                "src/repro/sim/noise.py": (
                    "from repro.utils.mkrng import make_rng\n"
                    "\n"
                    "\n"
                    "def sample(n):\n"
                    "    rng = make_rng(7)\n"
                    "    return rng.normal(size=n)\n"
                ),
            },
        )
        assert [(v.rule, v.line) for v in violations] == [("JRS011", 5)]
        assert violations[0].path.endswith("mkrng.py")
        assert "make_rng" in violations[0].message

    def test_jrs011_producer_outside_sim_flagged_at_return(self, tmp_path):
        """Outside the simulated world, only a function that returns
        a fresh generator (directly or through one local) is flagged;
        constructing one for local use, or in utils.rng, is not."""
        violations = run_project_tree(
            tmp_path,
            {
                "src/repro/utils/helpers.py": (
                    "import numpy as np\n"
                    "def fresh(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                    "def through_local(seed):\n"
                    "    rng = np.random.default_rng(seed)\n"
                    "    return rng\n"
                    "def indirect(seed):\n"
                    "    rng = fresh(seed)\n"
                    "    return rng\n"
                    "def local_use(seed):\n"
                    "    rng = np.random.default_rng(seed)\n"
                    "    return rng.normal()\n"
                    "class Box:\n"
                    "    def make(self):\n"
                    "        return np.random.Generator(np.random.PCG64(1))\n"
                ),
                "src/repro/utils/rng.py": (
                    "import numpy as np\n"
                    "def derive_rng(seed, label):\n"
                    "    return np.random.default_rng(seed)\n"
                ),
            },
        )
        assert [(v.rule, v.line) for v in violations] == [
            ("JRS011", 3), ("JRS011", 6), ("JRS011", 15),
        ]
        assert all(v.path.endswith("helpers.py") for v in violations)
        assert "'Box.make'" in violations[2].message

    def test_jrs011_utils_rng_is_blessed(self, tmp_path):
        """utils/rng.py itself may mint generators; callers that go
        through it are clean."""
        violations = run_project_tree(
            tmp_path,
            {
                "src/repro/utils/rng.py": (
                    "import numpy as np\n"
                    "\n"
                    "\n"
                    "def derive_rng(seed, label):\n"
                    "    return np.random.default_rng((seed, hash(label)))\n"
                ),
                "src/repro/sim/noise.py": (
                    "from repro.utils.rng import derive_rng\n"
                    "\n"
                    "\n"
                    "def sample(n):\n"
                    "    rng = derive_rng(7, 'noise')\n"
                    "    return rng.normal(size=n)\n"
                ),
            },
        )
        assert violations == []


class TestScoping:
    """Scoped rules must ignore the same code outside their paths."""

    @pytest.mark.parametrize(
        "fixture, code, out_of_scope_path",
        [
            ("jrs002_bad.py", "JRS002",
             "src/repro/experiments/fixture.py"),
        ],
    )
    def test_out_of_scope_is_silent(
        self, fixture, code, out_of_scope_path
    ):
        violations = run_fixture(fixture, out_of_scope_path)
        assert [v for v in violations if v.rule == code] == []

    def test_jrs001_exempts_rng_module(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        inside = lint_source(source, "src/repro/utils/rng.py")
        outside = lint_source(source, "src/repro/utils/other.py")
        assert inside.violations == []
        assert [v.rule for v in outside.violations] == ["JRS001"]

    def test_scope_ignores_path_spelling(self, tmp_path, monkeypatch):
        """A relative and an absolute spelling of the same mutated file
        get the same findings: scope and module name come from the
        resolved path, not the string given."""
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            SRC / "repro" / "sim",
            package / "sim",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        medium = package / "sim" / "medium.py"
        medium.write_text(
            medium.read_text()
            + "\nimport time\n"
            "from repro.experiments import runner\n"
            "STARTED = time.time()\n"
        )
        monkeypatch.chdir(package)

        def findings(path):
            return [
                (v.rule, v.line, v.col, v.message)
                for v in lint_project([path]).violations
            ]

        relative = findings("sim")
        assert relative == findings(str(package / "sim"))
        assert {rule for rule, *_ in relative} == {"JRS002", "JRS010"}


class TestRuleDetails:
    def test_jrs001_alias_resolution(self):
        source = (
            "import numpy.random as npr\n"
            "import random as rnd\n"
            "a = npr.randint(3)\n"
            "b = rnd.choice([1])\n"
        )
        violations = run_fixture_source(source)
        assert [v.rule for v in violations] == ["JRS001", "JRS001"]

    def test_jrs001_seeded_default_rng_ok(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
        )
        assert run_fixture_source(source) == []

    def test_jrs004_registered_literal_is_error(self):
        """A registered name written as a raw literal is a finding
        that names the constant to report through."""
        source = (
            "from repro.obs import current\n"
            'current().inc("dsss.scans")\n'
        )
        violations = run_fixture_source(source)
        assert [v.rule for v in violations] == ["JRS004"]
        assert "repro.obs.names.DSSS_SCANS" in violations[0].message


def run_fixture_source(source: str):
    return lint_source(source, "src/repro/core/fixture.py").violations

"""Tests for campaign spec validation, hashing, and expansion."""

import json
import re
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, GRID_AXES
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[2]


def tiny_spec(**overrides):
    kwargs = dict(
        name="smoke",
        seed=2011,
        runs_per_point=4,
        runs_per_shard=2,
        base="tiny",
        grid={"n_compromised": [5, 10]},
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestValidation:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="unknown grid axis"):
            tiny_spec(grid={"warp_factor": [9]})

    def test_rejects_empty_axis_values(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            tiny_spec(grid={"n_compromised": []})

    def test_rejects_bad_name(self):
        with pytest.raises(ConfigurationError, match="slug"):
            tiny_spec(name="not a slug!")

    def test_rejects_bad_strategy(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            tiny_spec(strategy="psychic")

    def test_rejects_bad_grid_strategy(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            tiny_spec(grid={"strategy": ["psychic"]})

    def test_rejects_bad_preset(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(base="enormous")

    def test_rejects_unknown_spec_field(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            CampaignSpec.from_dict(
                {"name": "x", "seed": 1, "runs_per_point": 1,
                 "color": "red"}
            )

    def test_requires_mandatory_fields(self):
        with pytest.raises(ConfigurationError, match="missing"):
            CampaignSpec.from_dict({"name": "x", "seed": 1})

    @pytest.mark.parametrize(
        "field, value", [("pool_cache_size", 8), ("pool_chunksize", None)]
    )
    def test_from_dict_rejects_removed_pool_fields(self, field, value):
        with pytest.raises(ConfigurationError, match="removed"):
            CampaignSpec.from_dict(
                {"name": "x", "seed": 1, "runs_per_point": 1, field: value}
            )

    @pytest.mark.parametrize("value", [0, 2])
    def test_from_dict_rejects_removed_max_run_retries(self, value):
        data = tiny_spec().to_dict()
        assert "max_run_retries" not in data
        with pytest.raises(ConfigurationError, match="resume"):
            CampaignSpec.from_dict({**data, "max_run_retries": value})

    @pytest.mark.parametrize("value", [None, 600.0])
    def test_from_dict_rejects_removed_run_timeout(self, value):
        data = tiny_spec().to_dict()
        assert "run_timeout" not in data
        with pytest.raises(ConfigurationError, match="seed-pure"):
            CampaignSpec.from_dict({**data, "run_timeout": value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "abc"),
            ("grid", [1, 2]),
            ("grid", {"n_compromised": 5}),
            ("collect_metrics", "false"),
            ("runs_per_point", 2.7),
            ("runs_per_shard", True),
            ("mndp_rounds", None),
        ],
    )
    def test_from_dict_rejects_mistyped_field(self, field, value):
        data = tiny_spec().to_dict()
        data[field] = value
        with pytest.raises(ConfigurationError, match=field):
            CampaignSpec.from_dict(data)

    def test_from_dict_accepts_integral_floats(self):
        data = tiny_spec().to_dict()
        data.update(seed=2011.0, runs_per_point=4.0, mndp_rounds=3.0)
        spec = CampaignSpec.from_dict(data)
        assert spec.seed == 2011 and isinstance(spec.seed, int)
        assert spec.mndp_rounds == 3
        assert isinstance(spec.mndp_rounds, int)
        assert spec.spec_hash() == tiny_spec(mndp_rounds=3).spec_hash()

    def test_cli_launch_rejects_mistyped_seed(self, tmp_path, cli_refused):
        data = tiny_spec().to_dict()
        data["seed"] = "abc"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        cli_refused([
            "campaign", "launch", "--spec", str(spec_path),
            "--store", str(tmp_path / "never.sqlite"),
            "--revision", "r",
        ], "seed")
        assert not (tmp_path / "never.sqlite").exists()

    def test_bad_grid_value_fails_the_spec_not_a_shard(
        self, tmp_path, cli_refused
    ):
        """A config value only the third point uses is refused when the
        spec is built, before any shard runs or any store exists."""
        data = {
            "name": "badnu", "seed": 2011, "runs_per_point": 2,
            "base": "tiny", "grid": {"nu": [2, 3, 0]},
        }
        with pytest.raises(ConfigurationError, match="nu must be > 0"):
            CampaignSpec(**data)
        with pytest.raises(ConfigurationError, match="nu must be > 0"):
            CampaignSpec.from_json(json.dumps(data))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        cli_refused([
            "campaign", "launch", "--spec", str(spec_path),
            "--store", str(tmp_path / "never.sqlite"),
            "--revision", "r",
        ], "nu must be > 0")
        assert not (tmp_path / "never.sqlite").exists()

    def test_rejects_bad_phy_backend(self):
        with pytest.raises(ConfigurationError, match="phy_backend"):
            tiny_spec(phy_backend="analog")
        # A stored spec naming the retired chip backend no longer loads.
        data = json.loads(tiny_spec().to_json())
        data["phy_backend"] = "chip"
        with pytest.raises(ConfigurationError, match="phy_backend"):
            CampaignSpec.from_dict(data)

    def test_phy_backend_round_trip(self):
        spec = tiny_spec(phy_backend="chipless")
        again = CampaignSpec.from_json(spec.to_json())
        assert again.phy_backend == "chipless"
        assert again.spec_hash() == spec.spec_hash()
        # Default (None) means "use the base preset's backend", so a
        # tiny-chipless base is not silently overridden.
        assert tiny_spec().phy_backend is None
        assert tiny_spec(base="tiny-chipless").phy_backend is None


def _documented_specs():
    """Every campaign spec the docs and examples ship, as JSON text."""
    examples = REPO_ROOT / "examples"
    texts = [
        (path.name, path.read_text(encoding="utf-8"))
        for pattern in ("campaign_smoke*.json", "fig*.json")
        for path in sorted(examples.glob(pattern))
    ]
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", experiments, flags=re.DOTALL)
    texts += [(f"EXPERIMENTS.md block {i}", text) for i, text in enumerate(blocks)]
    return texts


class TestDocumentedSpecs:
    def test_every_shipped_spec_parses(self):
        """The recipes users copy must load with the current fields."""
        specs = _documented_specs()
        assert len(specs) >= 6
        for where, text in specs:
            data = json.loads(text)
            try:
                CampaignSpec.from_dict(data)
            except ConfigurationError as error:
                pytest.fail(f"{where}: {error}")

    def test_figure_specs_sweep_the_papers_axes(self):
        """One spec per figure: Section VI-B's axes at 100 runs per
        point, seed 2011, Table I base, reactive jamming."""
        figures = {
            "fig2.json": {
                "codes_per_node": [20, 40, 60, 80, 100, 140, 200],
            },
            "fig3a.json": {
                "share_count": [5, 10, 20, 40, 60, 100, 150, 200],
            },
            "fig3b.json": {"n_nodes": [500, 1000, 1500, 2000, 3000, 4000]},
            "fig4.json": {
                "n_compromised": [0, 20, 40, 60, 80, 100],
                "share_count": [40, 20],
            },
            "fig5.json": {
                "n_compromised": [100],
                "nu": [1, 2, 3, 4, 5, 6, 7, 8],
                "link_model": ["independent", "codes"],
            },
        }
        shipped = {
            where: CampaignSpec.from_json(text)
            for where, text in _documented_specs()
            if where.startswith("fig")
        }
        assert sorted(shipped) == sorted(figures)
        for where, grid in figures.items():
            spec = shipped[where]
            assert dict(spec.grid) == grid, where
            assert (spec.runs_per_point, spec.seed, spec.base,
                    spec.strategy) == (100, 2011, "paper", "reactive")


#: Every example spec's ``spec_hash()``.  Stores key their rows by it
#: and CI pins the fig4/fig5 canonical digests, which cover it, so a
#: change that moves one strands every store written before it.
PINNED_HASHES = {
    "campaign_smoke": "d2f0a67f33757678",
    "campaign_smoke_block": "088ce16560f3d3fc",
    "campaign_smoke_chipless": "64ec43b1e4666e93",
    "campaign_smoke_nu": "bfb0878f40384209",
    "fig2": "700df69f8cb257b4",
    "fig3a": "d3af313fc8e4d3b1",
    "fig3b": "9852a432f72e64fb",
    "fig4": "32a4f9c1e2574f02",
    "fig5": "8df137efa86a266b",
}


class TestPinnedHashes:
    def test_example_spec_hashes_are_pinned(self):
        hashes = {
            path.stem: CampaignSpec.from_file(str(path)).spec_hash()
            for path in (REPO_ROOT / "examples").glob("*.json")
        }
        assert hashes == PINNED_HASHES

    def test_canonical_json_writes_the_one_compute_backend(self):
        """``compute_backend`` is written like ``sampling``: a value the
        program writes, which a spec may leave out."""
        data = tiny_spec().to_dict()
        assert data["compute_backend"] == "vectorized"
        assert tiny_spec().compute_backend == "vectorized"
        del data["compute_backend"]
        assert CampaignSpec.from_dict(data) == tiny_spec()

    @pytest.mark.parametrize("value", ["reference", "cuda", None, 1])
    def test_reference_compute_backend_is_refused(
        self, value, tmp_path, cli_refused
    ):
        """From a dict, and from a store whose ``spec_json`` holds it
        under its own (valid) hash: every read is refused and the file
        keeps its bytes."""
        import hashlib
        import sqlite3

        from repro.campaigns import CampaignStore

        data = dict(tiny_spec().to_dict(), compute_backend=value)
        with pytest.raises(ConfigurationError, match="compute_backend"):
            CampaignSpec.from_dict(data)

        path = tmp_path / "old.sqlite"
        with CampaignStore(str(path)) as store:
            store.register_campaign(tiny_spec(), "rev")
        stored = json.dumps(data, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(stored.encode("utf-8")).hexdigest()[:16]
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE campaigns SET spec_json = ?, spec_hash = ?",
                (stored, digest),
            )
        conn.close()
        before = path.read_bytes()
        with CampaignStore(str(path)) as store:
            with pytest.raises(ConfigurationError, match="compute_backend"):
                store.spec_for("smoke")
            with pytest.raises(ConfigurationError, match="compute_backend"):
                store.list_campaigns()
        for command in ("status", "resume"):
            argv = ["campaign", command, "--store", str(path)]
            if command == "resume":
                argv += ["--campaign", "smoke", "--revision", "rev"]
            cli_refused(argv, "compute_backend")
        assert path.read_bytes() == before


class TestHashing:
    def test_hash_is_stable_across_constructions(self):
        """The hash is a content address: key order and container
        types must not affect it."""
        a = tiny_spec(grid={"n_compromised": [5, 10], "nu": [1, 2]})
        b = tiny_spec(grid={"nu": (1, 2), "n_compromised": (5, 10)})
        assert a.spec_hash() == b.spec_hash()

    def test_hash_changes_with_content(self):
        assert tiny_spec().spec_hash() != tiny_spec(seed=7).spec_hash()
        assert (tiny_spec().spec_hash()
                != tiny_spec(runs_per_point=8).spec_hash())

    def test_json_round_trip_preserves_hash(self):
        spec = tiny_spec(grid={"n_compromised": [5, 10], "nu": [1, 2]})
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_canonical_json_names_the_sampling_design(self):
        """The hash covers the sampling design, so a spec written while
        every point had its own seed hashes differently."""
        import hashlib

        data = json.loads(tiny_spec().to_json())
        assert data["sampling"] == "common-random-numbers"
        del data["sampling"]
        assert CampaignSpec.from_dict(data) == tiny_spec()
        old_json = json.dumps(data, sort_keys=True, separators=(",", ":"))
        old_hash = hashlib.sha256(old_json.encode("utf-8")).hexdigest()
        assert old_hash[:16] != tiny_spec().spec_hash()

    def test_from_dict_rejects_another_sampling_design(self):
        data = dict(tiny_spec().to_dict(), sampling="per-point-seeds")
        with pytest.raises(ConfigurationError, match="sampling"):
            CampaignSpec.from_dict(data)


class TestExpansion:
    def test_point_count_is_cartesian_product(self):
        spec = tiny_spec(grid={"n_compromised": [5, 10], "nu": [1, 2, 3]})
        assert len(spec.points()) == 6

    def test_no_grid_is_a_single_point(self):
        spec = tiny_spec(grid={})
        points = spec.points()
        assert len(points) == 1
        assert points[0].params_dict == {
            "strategy": "reactive", "link_model": "codes",
        }

    def test_expansion_is_deterministic(self):
        spec = tiny_spec(grid={"n_compromised": [5, 10], "nu": [1, 2]})
        assert spec.points() == spec.points()
        assert spec.shards() == spec.shards()

    def test_every_point_runs_on_the_campaign_seed(self):
        """Common random numbers: every point's experiment is seeded
        with the campaign seed, so run i draws the same streams at
        every point."""
        spec = tiny_spec(grid={"n_compromised": [5, 10], "nu": [1, 2]})
        assert [point.seed for point in spec.points()] == [2011] * 4
        other = tiny_spec(seed=7, grid={"n_compromised": [5, 10],
                                        "nu": [1, 2]})
        assert {point.seed for point in other.points()} == {7}

    def test_shards_iterate_points_inside_run_blocks(self):
        spec = tiny_spec(runs_per_point=5, runs_per_shard=2)
        assert [
            (shard.index, shard.point.index, shard.run_start,
             shard.run_stop)
            for shard in spec.shards()
        ] == [
            (0, 0, 0, 2), (1, 1, 0, 2),
            (2, 0, 2, 4), (3, 1, 2, 4),
            (4, 0, 4, 5), (5, 1, 4, 5),
        ]

    def test_shard_chunking_covers_all_runs(self):
        spec = tiny_spec(runs_per_point=5, runs_per_shard=2)
        shards = spec.shards()
        # 2 points x ceil(5/2) shards
        assert len(shards) == 6
        for point_index in (0, 1):
            ranges = [
                (shard.run_start, shard.run_stop)
                for shard in shards
                if shard.point.index == point_index
            ]
            assert ranges == [(0, 2), (2, 4), (4, 5)]
        assert [shard.index for shard in shards] == list(range(6))

    def test_default_is_one_shard_per_point(self):
        spec = tiny_spec(runs_per_shard=None)
        shards = spec.shards()
        assert len(shards) == 2
        assert all(shard.n_runs == 4 for shard in shards)

    def test_point_config_applies_overrides(self):
        spec = tiny_spec()
        configs = [spec.point_config(p) for p in spec.points()]
        assert [c.n_compromised for c in configs] == [5, 10]

    def test_phy_noise_axis_applies_to_point_configs(self):
        spec = tiny_spec(grid={"phy_noise_std": [0.0, 2.0]})
        configs = [spec.point_config(p) for p in spec.points()]
        assert [c.phy_noise_std for c in configs] == [0.0, 2.0]

    def test_axes_registry_matches_paper_parameters(self):
        for axis in ("n_nodes", "codes_per_node", "share_count",
                     "n_compromised", "nu", "phy_noise_std",
                     "strategy", "link_model"):
            assert axis in GRID_AXES

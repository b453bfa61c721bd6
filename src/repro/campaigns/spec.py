"""Declarative campaign specs and their deterministic expansion.

A spec is data, not code: a base config preset, a grid of axis values,
runs per point, and a root seed.  Everything downstream — point order,
shard boundaries, the content hash — is a pure function of that data,
which is what makes a campaign resumable: any process expanding the
same spec produces the same shard list, so a store populated by a
killed run composes seamlessly with the shards a resuming run still
has to execute.

Every point runs on the campaign seed (common random numbers): run
``i`` of every point draws the same placement, code assignment,
compromise and jamming streams, so each point keeps its marginal
distribution while the noise between points is paired.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.errors import ConfigurationError
from repro.experiments.scenarios import preset_config
from repro.utils.validation import check_positive

__all__ = ["GRID_AXES", "CampaignPoint", "Shard", "CampaignSpec"]

#: Sweepable axes: the paper's n / m / l / q / nu plus the PHY noise
#: level, the jammer strategy, and the link model.  Config axes map
#: straight onto :class:`JRSNDConfig` fields; the two protocol axes
#: are handled by the experiment constructor.
CONFIG_AXES = (
    "n_nodes",
    "codes_per_node",
    "share_count",
    "n_compromised",
    "nu",
    "phy_noise_std",
)
PROTOCOL_AXES = ("strategy", "link_model")
GRID_AXES = CONFIG_AXES + PROTOCOL_AXES

_STRATEGIES = {
    "reactive": JammerStrategy.REACTIVE,
    "random": JammerStrategy.RANDOM,
}
_LINK_MODELS = ("codes", "independent")

#: The sampling design, written into every spec's canonical JSON so a
#: store's ``spec_json`` says how its rows were drawn, and specs from
#: before the design (each point on its own derived seed) hash
#: differently.  It is not a setting: :meth:`CampaignSpec.from_dict`
#: accepts this value or none.
SAMPLING = "common-random-numbers"

#: The one snapshot pipeline, written into the canonical JSON as specs
#: wrote it while a reference one could be picked, so no spec hash
#: moved.  Like :data:`SAMPLING`, it is not a setting.
COMPUTE_BACKEND = "vectorized"

#: Fields older specs carried and :meth:`CampaignSpec.from_dict` now
#: rejects, each with the reason it went.  A store still holds them in
#: the ``spec_json`` it wrote, so :mod:`repro.campaigns.store` strips
#: them before parsing.
REMOVED_FIELDS: Dict[str, str] = {
    "pool_cache_size": "the pool no longer caches experiments",
    "pool_chunksize": "the pool sizes its own chunks",
    "run_timeout": (
        "runs are seed-pure, so a run that hangs hangs again on retry; "
        "there is no per-run soft timeout"
    ),
    "max_run_retries": (
        "a worker death fails the launch and resume re-runs the lost "
        "shards; runs are seed-pure, so a retry inside the pool gives "
        "nothing resume does not"
    ),
}


def _typed(name: str, value: Any, kind: type) -> Any:
    """``value`` of spec field ``name`` as the JSON type ``kind``.

    Integers also accept integral floats (``2.0``); nothing else is
    coerced, so ``"abc"``, ``2.7`` or ``"false"`` fail here instead of
    becoming a traceback or a silently different spec.
    """
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    # bool is an int subclass: only a bool field takes one.
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, numbers.Integral if kind is int else kind
    ):
        raise ConfigurationError(
            f"campaign spec field {name!r} must be {kind.__name__}, "
            f"got {value!r}"
        )
    return kind(value)


#: :func:`preset_config`, built once per preset name: every point's
#: config is a ``replace`` of it, and a config is immutable.
_preset = functools.lru_cache(maxsize=None)(preset_config)


@dataclass(frozen=True)
class CampaignPoint:
    """One fully resolved grid point of a campaign.

    ``params`` holds the axis values that distinguish this point
    (config overrides plus strategy/link_model), in sorted-key order;
    ``seed`` is the root seed of the point's experiment, which is the
    campaign seed for every point.
    """

    index: int
    params: Tuple[Tuple[str, Any], ...]
    seed: int

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def params_json(self) -> str:
        """Canonical JSON of the point's parameters (stable key order)."""
        return json.dumps(dict(self.params), sort_keys=True,
                          separators=(",", ":"))


@dataclass(frozen=True)
class Shard:
    """A checkpointable unit of work: a run range of one point."""

    index: int
    point: CampaignPoint
    run_start: int
    run_stop: int

    @property
    def n_runs(self) -> int:
        return self.run_stop - self.run_start

    @property
    def run_indices(self) -> range:
        return range(self.run_start, self.run_stop)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative, hashable description of one sweep campaign.

    Attributes
    ----------
    name:
        Campaign identifier; the store keys results under it.
    seed:
        Root seed of every point's experiment, so run ``i`` of every
        point shares its placement, code assignment, compromise and
        jamming streams (common random numbers).
    runs_per_point:
        Monte Carlo runs per grid point (the paper uses 100).
    grid:
        Axis name -> value list; axes are :data:`GRID_AXES`.  The
        expansion is the cartesian product with axes iterated in
        sorted-name order and values in their given order.
    base:
        Config preset name (``paper`` / ``small`` / ``tiny``, see
        :data:`repro.experiments.scenarios.CONFIG_PRESETS`).
    strategy, link_model:
        Defaults for points whose grid does not sweep them.
    runs_per_shard:
        Checkpoint granularity: a point's runs are chunked into shards
        of at most this many runs (default: one shard per point), and
        shards run block by block, every point within a block.
    mndp_rounds, collect_metrics, sample_latency:
        Forwarded to :class:`~repro.experiments.runner.NetworkExperiment`.
    phy_backend:
        Optional PHY override forwarded to the experiment; ``None``
        (default) keeps the base preset's ``config.phy_backend`` (so a
        ``*-chipless`` base is not silently overridden).
    """

    name: str
    seed: int
    runs_per_point: int
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: str = "paper"
    strategy: str = "reactive"
    link_model: str = "codes"
    runs_per_shard: Optional[int] = None
    mndp_rounds: int = 1
    collect_metrics: bool = True
    sample_latency: bool = False
    phy_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").replace(
            "_", ""
        ).isalnum():
            raise ConfigurationError(
                f"campaign name must be a non-empty slug, got {self.name!r}"
            )
        check_positive("runs_per_point", self.runs_per_point)
        if self.runs_per_shard is not None:
            check_positive("runs_per_shard", self.runs_per_shard)
        check_positive("mndp_rounds", self.mndp_rounds)
        for axis, values in self.grid.items():
            if axis not in GRID_AXES:
                raise ConfigurationError(
                    f"unknown grid axis {axis!r}; sweepable axes are "
                    f"{sorted(GRID_AXES)}"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"grid axis {axis!r} needs a non-empty value list"
                )
        if self.strategy not in _STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {sorted(_STRATEGIES)}, "
                f"got {self.strategy!r}"
            )
        for value in self.grid.get("strategy", ()):
            if value not in _STRATEGIES:
                raise ConfigurationError(
                    f"grid strategy {value!r} must be one of "
                    f"{sorted(_STRATEGIES)}"
                )
        if self.link_model not in _LINK_MODELS:
            raise ConfigurationError(
                f"link_model must be one of {_LINK_MODELS}, "
                f"got {self.link_model!r}"
            )
        for value in self.grid.get("link_model", ()):
            if value not in _LINK_MODELS:
                raise ConfigurationError(
                    f"grid link_model {value!r} must be one of "
                    f"{_LINK_MODELS}"
                )
        if self.phy_backend is not None:
            from repro.dsss.phy import PHY_BACKENDS

            if self.phy_backend not in PHY_BACKENDS:
                raise ConfigurationError(
                    f"phy_backend must be one of {PHY_BACKENDS}, "
                    f"got {self.phy_backend!r}"
                )
        # Resolving the preset and every distinct combination of
        # config-axis values now surfaces a bad name or value at
        # spec-build time, not in the first shard that reaches it.
        base = _preset(self.base)
        config_axes = [
            axis for axis in sorted(self.grid) if axis in CONFIG_AXES
        ]
        for combo in itertools.product(
            *(self.grid[axis] for axis in config_axes)
        ):
            base.replace(**dict(zip(config_axes, combo)))

    @property
    def compute_backend(self) -> str:
        """:data:`COMPUTE_BACKEND`, which ``perfbench/`` still reads."""
        return COMPUTE_BACKEND

    # -- canonical form and hashing ------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (grid values as lists)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "runs_per_point": self.runs_per_point,
            "grid": {
                axis: list(values)
                for axis, values in sorted(self.grid.items())
            },
            "base": self.base,
            "strategy": self.strategy,
            "link_model": self.link_model,
            "runs_per_shard": self.runs_per_shard,
            "mndp_rounds": self.mndp_rounds,
            "compute_backend": COMPUTE_BACKEND,
            "collect_metrics": self.collect_metrics,
            "sample_latency": self.sample_latency,
            "phy_backend": self.phy_backend,
            "sampling": SAMPLING,
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators.

        Two specs with the same content always serialize to the same
        bytes, so :meth:`spec_hash` is a content address.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON (first 16 hex chars)."""
        digest = hashlib.sha256(self.to_json().encode("utf-8"))
        return digest.hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        known = {
            "name", "seed", "runs_per_point", "grid", "base",
            "strategy", "link_model", "runs_per_shard", "mndp_rounds",
            "compute_backend", "collect_metrics", "sample_latency",
            "phy_backend", "sampling",
        }
        removed = sorted(REMOVED_FIELDS.keys() & data.keys())
        if removed:
            reasons = "; ".join(
                f"{name!r}: {REMOVED_FIELDS[name]}" for name in removed
            )
            raise ConfigurationError(
                f"campaign spec fields {removed} were removed "
                f"({reasons}); delete them from the spec"
            )
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec fields: {sorted(unknown)}"
            )
        for name, fixed in (
            ("sampling", SAMPLING), ("compute_backend", COMPUTE_BACKEND)
        ):
            if data.get(name, fixed) != fixed:
                raise ConfigurationError(
                    f"campaign spec field {name!r} is written by the "
                    f"program and must be {fixed!r}, got {data[name]!r}"
                )
        for required in ("name", "seed", "runs_per_point"):
            if required not in data:
                raise ConfigurationError(
                    f"campaign spec is missing {required!r}"
                )

        def get(key: str, kind: type, default: Any = None) -> Any:
            return _typed(key, data.get(key, default), kind)

        def optional(key: str, kind: type) -> Any:
            value = data.get(key)
            return None if value is None else _typed(key, value, kind)

        grid = data.get("grid", {})
        if not isinstance(grid, Mapping):
            raise ConfigurationError(
                f"campaign spec field 'grid' must map axes to value "
                f"lists, got {grid!r}"
            )
        for axis, values in grid.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"grid axis {axis!r} needs a value list, got {values!r}"
                )
        return cls(
            name=get("name", str),
            seed=get("seed", int),
            runs_per_point=get("runs_per_point", int),
            grid={str(axis): list(values) for axis, values in grid.items()},
            base=get("base", str, "paper"),
            strategy=get("strategy", str, "reactive"),
            link_model=get("link_model", str, "codes"),
            runs_per_shard=optional("runs_per_shard", int),
            mndp_rounds=get("mndp_rounds", int, 1),
            collect_metrics=get("collect_metrics", bool, True),
            sample_latency=get("sample_latency", bool, False),
            phy_backend=optional("phy_backend", str),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"campaign spec is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError("campaign spec must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- deterministic expansion ---------------------------------------

    def points(self) -> List[CampaignPoint]:
        """The grid's cartesian product, in deterministic order.

        Axes iterate in sorted-name order, values in spec order; the
        point index is the product's enumeration order, and every point
        runs on the campaign seed.
        """
        axes = sorted(self.grid)
        value_lists = [list(self.grid[axis]) for axis in axes]
        points = []
        for index, combo in enumerate(
            itertools.product(*value_lists) if axes else [()]
        ):
            params = dict(zip(axes, combo))
            params.setdefault("strategy", self.strategy)
            params.setdefault("link_model", self.link_model)
            points.append(
                CampaignPoint(
                    index=index,
                    params=tuple(sorted(params.items())),
                    seed=self.seed,
                )
            )
        return points

    def shards(self) -> List[Shard]:
        """Every point's runs chunked into checkpointable shards.

        Blocks of ``runs_per_shard`` run indices form the outer loop and
        points the inner one, so consecutive shards run the same
        indices on the same seed and a pool worker can reuse their
        field snapshots (see :mod:`repro.experiments.pool`).
        """
        chunk = self.runs_per_shard or self.runs_per_point
        points = self.points()
        shards = []
        for start in range(0, self.runs_per_point, chunk):
            stop = min(start + chunk, self.runs_per_point)
            for point in points:
                shards.append(
                    Shard(
                        index=len(shards),
                        point=point,
                        run_start=start,
                        run_stop=stop,
                    )
                )
        return shards

    def point_config(self, point: CampaignPoint) -> JRSNDConfig:
        """The resolved :class:`JRSNDConfig` for one point."""
        overrides = {
            axis: value
            for axis, value in point.params
            if axis in CONFIG_AXES
        }
        return _preset(self.base).replace(**overrides)

    def point_strategy(self, point: CampaignPoint) -> JammerStrategy:
        return _STRATEGIES[point.params_dict["strategy"]]

    def point_link_model(self, point: CampaignPoint) -> str:
        return str(point.params_dict["link_model"])

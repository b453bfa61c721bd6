"""Tests for the central metric-name registry (repro.obs.names)."""

import re

from repro.obs import names


class TestRegistry:
    def test_every_constant_is_well_formed(self):
        pattern = re.compile(names.NAME_PATTERN)
        for name in names.ALL_NAMES:
            assert pattern.match(name), name

    def test_constant_lookup_round_trips(self):
        for name, constant in names.CONSTANT_FOR.items():
            assert getattr(names, constant) == name

    def test_prefixes_are_not_registered_as_names(self):
        assert names.RETRY_PREFIX == "retry."
        assert names.RETRY_PREFIX not in names.ALL_NAMES

    def test_registry_is_reasonably_populated(self):
        # Every subsystem reports; a shrinking registry means call
        # sites drifted away from the single source of truth.
        assert len(names.ALL_NAMES) >= 50
        prefixes = {name.split(".")[0] for name in names.ALL_NAMES}
        assert {
            "sim", "dsss", "ecc", "wire", "dndp", "mndp",
            "revocation", "dos", "neighbors", "retry", "experiment",
        } <= prefixes


class TestLookupApi:
    def test_static_names_are_registered(self):
        assert names.is_registered(names.DSSS_SCANS)
        assert names.is_registered(names.REVOCATION_REVOKED)

    def test_dynamic_helper_products_are_registered(self):
        assert names.is_registered(names.cache_hits("rs_codec"))
        assert names.is_registered(names.cache_misses("waveform"))

    def test_typos_are_not_registered(self):
        assert not names.is_registered("dsss.scnas")
        assert not names.is_registered("cache.hits")
        assert not names.is_registered("ecc.symbols_encoded.")

    def test_looks_like_metric_name(self):
        assert names.looks_like_metric_name("dsss.scans")
        assert not names.looks_like_metric_name("x")
        assert not names.looks_like_metric_name("faults.")
        assert not names.looks_like_metric_name("Dsss.Scans")

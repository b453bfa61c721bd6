"""Unit tests for the configuration (Table I)."""

import numpy as np
import pytest

from repro.core.config import JRSNDConfig, default_config
from repro.errors import ConfigurationError


class TestDefaults:
    def test_table1_values(self):
        config = default_config()
        assert config.n_nodes == 2000
        assert config.codes_per_node == 100
        assert config.share_count == 40
        assert config.n_compromised == 20
        assert config.code_length == 512
        assert config.chip_rate == pytest.approx(22e6)
        assert config.rho == pytest.approx(1e-11)
        assert config.mu == 1.0
        assert config.nu == 2
        assert config.type_bits == 5
        assert config.id_bits == 16
        assert config.nonce_bits == 20
        assert config.auth_frame_bits == 160
        assert config.hop_field_bits == 4
        assert config.signature_bits == 672
        assert config.t_key == pytest.approx(11e-3)
        assert config.t_sig == pytest.approx(5.7e-3)
        assert config.t_ver == pytest.approx(35.5e-3)

    def test_field_parameters(self):
        config = default_config()
        assert config.field_width == 5000.0
        assert config.tx_range == 300.0


class TestDerived:
    def test_pool_size(self):
        config = default_config()
        assert config.subsets_per_round == 50
        assert config.pool_size == 5000

    def test_hello_coded_bits(self):
        # l_h = (1 + mu)(l_t + l_id) = 2 * 21 = 42.
        assert default_config().hello_coded_bits == 42

    def test_mac_bits_from_l_f(self):
        # l_f = (1+mu)(l_id + l_n + l_mac) = 160 -> l_mac = 44.
        assert default_config().mac_bits == 44

    def test_expected_degree(self):
        g = default_config().expected_degree
        assert 22 < g < 23  # ~22.6 at the paper's parameters

    def test_replace(self):
        config = default_config().replace(codes_per_node=50)
        assert config.codes_per_node == 50
        assert config.n_nodes == 2000  # untouched

    def test_replace_validates(self):
        with pytest.raises(ConfigurationError):
            default_config().replace(share_count=1)


class TestValidation:
    def test_q_cannot_exceed_n(self):
        with pytest.raises(ConfigurationError):
            JRSNDConfig(n_nodes=10, share_count=5, n_compromised=11)

    def test_l_bounds(self):
        with pytest.raises(ConfigurationError):
            JRSNDConfig(share_count=1)

    def test_tau_range(self):
        with pytest.raises(ConfigurationError):
            JRSNDConfig(tau=0.0)

    def test_tau_one_boundary_accepted(self):
        # The receivers' hit masks use >= tau and a clean block
        # correlates to exactly 1.0: the valid range is (0, 1].
        assert JRSNDConfig(tau=1.0).tau == 1.0

    def test_auth_frame_must_fit_mac(self):
        config = JRSNDConfig(auth_frame_bits=60)
        with pytest.raises(ConfigurationError):
            _ = config.mac_bits

    def test_frozen(self):
        config = default_config()
        with pytest.raises(Exception):
            config.n_nodes = 5


class TestCorrelationBackend:
    def test_default_is_batched(self, small_config):
        # No config field selects the correlation arithmetic: every
        # node's receiver scans with the batched engine.
        from repro.dsss.engine import BatchedCorrelationEngine
        from repro.experiments.scenarios import build_event_network

        net = build_event_network(small_config, seed=11)
        sync = net.nodes[0].build_synchronizer()
        assert type(sync.engine) is BatchedCorrelationEngine


class TestIntegerFields:
    """Every field type fails fast: int, float, bool and str fields
    (the class keeps its first name so its test ids stay stable)."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nu", 2.5),
            ("nu", True),
            ("n_compromised", 5.0),
            ("codes_per_node", np.float64(100.0)),
            ("retry_max_attempts", "2"),
            ("use_gps", "no"),
            ("wire_fidelity", 1),
            ("phy_noise_std", "0.5"),
            ("tx_range", True),
            ("phy_backend", 1),
        ],
    )
    def test_non_integers_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            JRSNDConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            default_config().replace(**{field: value})

    def test_numpy_integers_accepted(self):
        config = JRSNDConfig(nu=np.int64(3), n_compromised=np.int32(5))
        assert config.nu == 3 and config.n_compromised == 5

    def test_float_fields_take_integers_and_numpy_reals(self):
        config = JRSNDConfig(
            tx_range=300, phy_noise_std=np.float64(0.5), use_gps=np.bool_(1)
        )
        assert config.tx_range == 300.0 and config.phy_noise_std == 0.5
        assert config.use_gps

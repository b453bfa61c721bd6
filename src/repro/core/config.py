"""JR-SND configuration (Table I of the paper, plus field geometry).

Every symbol the paper uses appears here under a readable name with the
paper's letter documented.  :func:`default_config` returns the exact
Table I defaults used throughout the evaluation section.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = ["JRSNDConfig", "default_config"]

#: The value types each field annotation accepts.
_KINDS = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "bool": (bool, np.bool_),
    "str": str,
}

#: Builtin types each annotation accepts, checked by exact type before
#: the ABC checks of :data:`_KINDS` (which give the same answer for
#: them, far slower).
_EXACT = {
    "int": (int,),
    "float": (float, int),
    "bool": (bool,),
    "str": (str,),
}


@dataclass(frozen=True)
class JRSNDConfig:
    """All parameters of a JR-SND deployment.

    Attributes (paper symbol in parentheses)
    ----------------------------------------
    n_nodes (n):
        Number of MANET nodes.
    codes_per_node (m):
        Spread codes preloaded per node.
    share_count (l):
        Nodes sharing each pool code.
    n_compromised (q):
        Compromised nodes assumed by the adversary model.
    code_length (N):
        Spread-code length in chips.
    chip_rate (R):
        DSSS chip rate in chips per second.
    rho:
        Seconds per correlated bit at the receiver (``rho``).
    mu:
        ECC expansion parameter.
    nu:
        Maximum M-NDP hop count.
    type_bits (l_t), id_bits (l_id), nonce_bits (l_n):
        Field widths of the over-the-air messages.
    auth_frame_bits (l_f):
        Coded length of each authentication message.
    hop_field_bits (l_nu):
        Width of the M-NDP hop-budget field.
    signature_bits (l_sig):
        Wire width of an ID-based signature.
    t_key, t_sig, t_ver:
        Crypto timing (seconds).
    z_jamming_signals (z):
        Parallel jamming signals available to the adversary.
    revocation_gamma (gamma):
        Invalid-request threshold for local code revocation.
    tau:
        DSSS correlation decision threshold.
    field_width, field_height:
        Deployment field in meters.
    tx_range (a):
        Transmission range in meters.
    use_gps:
        Enable Section V-C's optional false-positive elimination: nodes
        include their position in M-NDP requests and peers only respond
        when the source is within transmission range.
    tx_antennas:
        Transmit antennas available for parallel HELLO broadcasts (the
        paper assumes 1 TX + 1 RX and leaves more as future work; this
        implements that extension for the antenna ablation).
    wire_fidelity:
        Event-simulation option: serialize every protocol message to
        its bit-level wire format before transmission and parse it on
        delivery, instead of passing typed objects.  Slower, but any
        divergence between the object model and the wire encoding
        surfaces immediately.
    retry_max_attempts:
        Bounded-retry limit for the AUTH leg of the D-NDP handshake: an
        initiator that sent AUTH_REQUEST and hears nothing retransmits
        up to this many times (exponential backoff), then marks the
        session FAILED and releases its monitors.  0 disables the
        timers entirely, restoring the original fire-and-forget
        behavior.
    phy_backend:
        Which PHY model the Monte Carlo experiments decide D-NDP
        outcomes with: ``"message"`` (default; the paper's per-message
        Bernoulli model) or ``"chipless"`` (the chip model's
        correlation statistics in closed form, no chips materialised;
        :class:`~repro.dsss.phy.ChiplessModel`).  Its chip-level
        reference, which builds real waveforms, is the test oracle
        :class:`repro.oracles.ChipPairPHY`.
    phy_noise_std:
        Per-chip AWGN sigma of the chipless model (0 = noiseless, the
        default).
    phy_jam_amplitude:
        Jam power relative to the legitimate signal in the chipless
        model.  2.0 (default) makes a disagreeing jam bit flip the
        block decision; 1.0 cancels it into an erasure.
    """

    n_nodes: int = 2000
    codes_per_node: int = 100
    share_count: int = 40
    n_compromised: int = 20
    code_length: int = 512
    chip_rate: float = 22e6
    rho: float = 1e-11
    mu: float = 1.0
    nu: int = 2
    type_bits: int = 5
    id_bits: int = 16
    nonce_bits: int = 20
    auth_frame_bits: int = 160
    hop_field_bits: int = 4
    signature_bits: int = 672
    t_key: float = 11e-3
    t_sig: float = 5.7e-3
    t_ver: float = 35.5e-3
    z_jamming_signals: int = 8
    revocation_gamma: int = 5
    tau: float = 0.15
    field_width: float = 5000.0
    field_height: float = 5000.0
    tx_range: float = 300.0
    use_gps: bool = False
    tx_antennas: int = 1
    retry_max_attempts: int = 2
    wire_fidelity: bool = False
    phy_backend: str = "message"
    phy_noise_std: float = 0.0
    phy_jam_amplitude: float = 2.0

    def __post_init__(self) -> None:
        for name, kind in _FIELD_KINDS:
            value = getattr(self, name)
            if type(value) in _EXACT[kind]:
                continue
            # numpy scalars register as Integral/Real; bool does too,
            # but only a bool field takes a flag.
            flag = isinstance(value, _KINDS["bool"])
            if flag != (kind == "bool") or not isinstance(
                value, _KINDS[kind]
            ):
                raise ConfigurationError(
                    f"{name} must be {kind}, got {value!r}"
                )
        check_positive("n_nodes", self.n_nodes)
        check_positive("codes_per_node", self.codes_per_node)
        if not 2 <= self.share_count <= self.n_nodes:
            raise ConfigurationError(
                f"share_count (l) must be in [2, n], got {self.share_count}"
            )
        check_non_negative("n_compromised", self.n_compromised)
        if self.n_compromised > self.n_nodes:
            raise ConfigurationError(
                "n_compromised (q) cannot exceed n_nodes"
            )
        check_positive("code_length", self.code_length)
        check_positive("chip_rate", self.chip_rate)
        check_positive("rho", self.rho)
        check_positive("mu", self.mu)
        check_positive("nu", self.nu)
        for name in ("type_bits", "id_bits", "nonce_bits",
                     "auth_frame_bits", "hop_field_bits", "signature_bits"):
            check_positive(name, getattr(self, name))
        for name in ("t_key", "t_sig", "t_ver"):
            check_non_negative(name, getattr(self, name))
        check_positive("z_jamming_signals", self.z_jamming_signals)
        check_positive("revocation_gamma", self.revocation_gamma)
        check_fraction("tau", self.tau)
        if not 0 < self.tau <= 1:
            # (0, 1], matching the synchronizer/despreader: decisions
            # use >= tau, and noiseless self-correlation is exactly 1.0.
            raise ConfigurationError(
                f"tau must be in (0,1], got {self.tau}"
            )
        check_positive("field_width", self.field_width)
        check_positive("field_height", self.field_height)
        check_positive("tx_range", self.tx_range)
        check_positive("tx_antennas", self.tx_antennas)
        check_non_negative("retry_max_attempts", self.retry_max_attempts)
        from repro.dsss.phy import PHY_BACKENDS

        if self.phy_backend not in PHY_BACKENDS:
            raise ConfigurationError(
                f"phy_backend must be one of {PHY_BACKENDS}, "
                f"got {self.phy_backend!r}"
            )
        check_non_negative("phy_noise_std", self.phy_noise_std)
        check_positive("phy_jam_amplitude", self.phy_jam_amplitude)
        if self.tx_antennas > self.codes_per_node:
            raise ConfigurationError(
                "tx_antennas cannot exceed codes_per_node: there are "
                "only m distinct codes to broadcast in parallel"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def subsets_per_round(self) -> int:
        """``w = ceil(n / l)``."""
        return math.ceil(self.n_nodes / self.share_count)

    @property
    def pool_size(self) -> int:
        """``s = w * m``."""
        return self.subsets_per_round * self.codes_per_node

    @property
    def hello_plain_bits(self) -> int:
        """Un-coded HELLO length ``l_t + l_id``."""
        return self.type_bits + self.id_bits

    @property
    def hello_coded_bits(self) -> int:
        """The paper's ``l_h = (1 + mu)(l_t + l_id)``."""
        return int(round((1.0 + self.mu) * self.hello_plain_bits))

    @property
    def auth_plain_bits(self) -> int:
        """Un-coded auth message length ``l_id + l_n + l_mac``."""
        return int(round(self.auth_frame_bits / (1.0 + self.mu)))

    @property
    def mac_bits(self) -> int:
        """``l_mac`` implied by ``l_f = (1+mu)(l_id + l_n + l_mac)``."""
        l_mac = self.auth_plain_bits - self.id_bits - self.nonce_bits
        if l_mac <= 0:
            raise ConfigurationError(
                f"auth_frame_bits={self.auth_frame_bits} leaves no room "
                "for a MAC tag"
            )
        return l_mac

    @property
    def expected_degree(self) -> float:
        """Mean physical neighbors ``g`` for uniform placement."""
        return (
            (self.n_nodes - 1)
            * math.pi
            * self.tx_range**2
            / (self.field_width * self.field_height)
        )

    def replace(self, **changes: object) -> "JRSNDConfig":
        """A copy with the given fields changed (validates again)."""
        return dataclasses.replace(self, **changes)


#: ``(name, annotation)`` of every :class:`JRSNDConfig` field, read by
#: its ``__post_init__``; annotations are strings under ``from
#: __future__ import annotations``.
_FIELD_KINDS = tuple(
    (field.name, field.type) for field in dataclasses.fields(JRSNDConfig)
)


def default_config() -> JRSNDConfig:
    """The exact Table I defaults."""
    return JRSNDConfig()

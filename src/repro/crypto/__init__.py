"""Simulated identity-based cryptography (IBC) substrate.

The paper builds mutual authentication on the certificateless/ID-based
scheme of Zhang et al. [13] (itself on Boneh-Franklin pairings [14]): each
node's ID is its public key, the authority issues the matching private
key, any two nodes can *non-interactively* compute the same pairwise key
``K_AB = K_BA`` from their own private key and the peer's ID, and nodes
sign M-NDP messages with ID-verifiable signatures.

No pairing library is available offline, so this package simulates the
IBC primitives with HMAC constructions that preserve the exact interfaces
and agreement properties the protocol needs (see ``DESIGN.md``):

- the math trapdoor of the pairing is modelled by *object encapsulation*:
  a node can only compute what its :class:`~repro.crypto.identity.IBCPrivateKey`
  object exposes, and the adversary models in :mod:`repro.adversary` only
  ever use key objects captured from compromised nodes;
- wall-clock cost of the real primitives is Table I's ``t_key``,
  ``t_sig`` and ``t_ver`` on :class:`~repro.core.config.JRSNDConfig`,
  which the protocol engines charge on the simulated clock.
"""

from repro.crypto.identity import (
    IBCPrivateKey,
    NodeId,
    PublicParameters,
    TrustedAuthority,
)
from repro.crypto.kdf import derive_bytes, expand_bytes
from repro.crypto.mac import MessageAuthenticator
from repro.crypto.nonces import NonceGenerator, ReplayCache
from repro.crypto.session import derive_session_code
from repro.crypto.signatures import IdentitySignature, SignatureScheme

__all__ = [
    "NodeId",
    "TrustedAuthority",
    "IBCPrivateKey",
    "PublicParameters",
    "SignatureScheme",
    "IdentitySignature",
    "MessageAuthenticator",
    "NonceGenerator",
    "ReplayCache",
    "derive_session_code",
    "derive_bytes",
    "expand_bytes",
]

"""Error-correcting codes (the paper's reference [15], Reed-Solomon).

JR-SND encodes every protocol message with an ECC whose expansion factor is
``1 + mu``: an ``l_t + l_id``-bit message becomes ``(1 + mu)(l_t + l_id)``
bits and tolerates up to a fraction ``mu / (1 + mu)`` of erased or
corrupted bits.  This package provides:

- :mod:`repro.ecc.gf256` — arithmetic in GF(2^8),
- :mod:`repro.ecc.reed_solomon` — a full RS codec with errors-and-erasures
  decoding (Berlekamp-Massey + Chien search + Forney),
- :mod:`repro.ecc.interleaver` — block interleaving to spread bursts,
- :mod:`repro.ecc.codec` — the rate-``mu`` bit-level wrapper the protocol
  layer actually uses.
"""

from repro.ecc.codec import ExpansionCodec, erasure_tolerance
from repro.ecc.gf256 import GF256
from repro.ecc.interleaver import BlockInterleaver
from repro.ecc.reed_solomon import ReedSolomonCodec

__all__ = [
    "GF256",
    "ReedSolomonCodec",
    "BlockInterleaver",
    "ExpansionCodec",
    "erasure_tolerance",
]

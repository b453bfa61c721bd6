"""The random and reactive jammer models (Section IV-B, Theorem 1).

Both jammers can transmit at most ``z`` signals in parallel against any
targeted message and only ever jam with *compromised* codes (guessing an
``N = 512``-chip code blind is hopeless).  Because a jam signal must
cover at least a fraction ``mu / (1 + mu)`` of the message to defeat the
ECC, a jammer can try at most ``z (1 + mu) / mu`` distinct codes against
one message.

- **Random jammer**: picks that many codes uniformly from the ``c``
  compromised codes; succeeds iff the target's code is among them —
  probability ``beta = min(z (1 + mu) / (c mu), 1)`` per message.
- **Reactive jammer**: spends the first part of the message identifying
  the code in use; if (and only if) the code is compromised, the
  identification succeeds before ``1 / (1 + mu)`` of the message has
  passed and the remaining ``mu / (1 + mu)`` fraction is jammed — enough
  to defeat the ECC.  This is the paper's worst case.

:class:`JammingModel` exposes per-message *sampling* used by the Monte
Carlo experiments; :class:`MediumJammer` adapts the same model to the
event-driven :class:`repro.sim.medium.RadioMedium`.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from typing import FrozenSet, Iterable

import numpy as np

from repro.adversary.compromise import CompromiseState
from repro.errors import ConfigurationError
from repro.sim.medium import RadioMedium, Transmission
from repro.utils.validation import check_integer_array, check_positive

__all__ = ["JammerStrategy", "JammingModel", "MediumJammer"]


class JammerStrategy(enum.Enum):
    """Which of the paper's jammer behaviours to use.

    ``INTELLIGENT`` is the Section V-B attack against the no-redundancy
    strawman: the jammer deliberately spares HELLO messages and spends
    its budget on the three later messages, hoping the responder picked
    a compromised code to spread them with.
    """

    RANDOM = "random"
    REACTIVE = "reactive"
    INTELLIGENT = "intelligent"


class JammingModel:
    """Per-message jamming outcome sampling.

    Parameters
    ----------
    strategy:
        Random or reactive.
    compromised_codes:
        Pool indices known to the adversary: an integer array or an
        iterable of integers (duplicates count once).
    z:
        Parallel jamming signals (the paper's ``z``).
    mu:
        ECC expansion parameter (sets both the code-dwell constraint and
        the reactive identification deadline).
    """

    def __init__(
        self,
        strategy: JammerStrategy,
        compromised_codes: Iterable[int],
        z: int,
        mu: float,
    ) -> None:
        if not isinstance(strategy, JammerStrategy):
            raise ConfigurationError(
                f"strategy must be a JammerStrategy, got {strategy!r}"
            )
        check_positive("z", z)
        check_positive("mu", mu)
        self._strategy = strategy
        self._code_array = _distinct_codes(compromised_codes)
        self._z = int(z)
        self._mu = float(mu)

    @classmethod
    def from_compromise(
        cls,
        strategy: JammerStrategy,
        state: CompromiseState,
        z: int,
        mu: float,
    ) -> "JammingModel":
        """Build a model from a sampled compromise state."""
        return cls(strategy, state.code_array, z, mu)

    @cached_property
    def _codes(self) -> FrozenSet[int]:
        """The compromised codes as a set, for per-message queries."""
        return frozenset(self._code_array.tolist())

    @property
    def strategy(self) -> JammerStrategy:
        """The jammer's behaviour."""
        return self._strategy

    @property
    def n_compromised(self) -> int:
        """Number of compromised codes ``c`` available to the jammer."""
        return int(self._code_array.size)

    @property
    def codes_per_message(self) -> int:
        """Distinct codes a random jammer can try on one message:
        ``floor(z (1 + mu) / mu)``."""
        return int(math.floor(self._z * (1.0 + self._mu) / self._mu))

    def random_success_probability(self) -> float:
        """Theorem 1's ``beta = min(z (1 + mu) / (c mu), 1)``."""
        if not self.n_compromised:
            return 0.0
        return min(
            self._z * (1.0 + self._mu) / (self.n_compromised * self._mu), 1.0
        )

    def knows(self, code_index: int) -> bool:
        """Whether the jammer holds this code."""
        return int(code_index) in self._codes

    def message_jammed(
        self, code_index: int, rng: np.random.Generator
    ) -> bool:
        """Sample whether one message spread with ``code_index`` is lost.

        Session codes (non-integer keys) are never jammable — they are
        derived from pairwise keys the adversary does not hold.
        """
        if not isinstance(code_index, (int, np.integer)):
            return False
        if self._strategy is JammerStrategy.INTELLIGENT:
            return False  # deliberately lets HELLOs through
        if not self.knows(int(code_index)):
            return False
        if self._strategy is JammerStrategy.REACTIVE:
            return True
        # Random: target code must be among the codes tried this message.
        tries = min(self.codes_per_message, self.n_compromised)
        return bool(rng.random() < tries / self.n_compromised)

    def burst_jammed(
        self,
        code_index: int,
        n_messages: int,
        rng: np.random.Generator,
    ) -> bool:
        """Whether at least one of ``n_messages`` dependent messages
        (all spread with the same code) is lost.

        Mirrors Theorem 1's ``beta' = min(3 z (1+mu) / (c mu), 1)`` for
        the three post-HELLO messages: the jammer gets a fresh code
        budget per message.
        """
        check_positive("n_messages", n_messages)
        if not isinstance(code_index, (int, np.integer)):
            return False
        if not self.knows(int(code_index)):
            return False
        if self._strategy in (
            JammerStrategy.REACTIVE, JammerStrategy.INTELLIGENT
        ):
            return True
        tries = min(self.codes_per_message, self.n_compromised)
        p_single = tries / self.n_compromised
        p_burst = min(n_messages * p_single, 1.0)
        return bool(rng.random() < p_burst)


def _distinct_codes(codes: Iterable[int]) -> np.ndarray:
    """``codes`` as an ascending, duplicate-free ``int64`` array; an
    array that already is one (a :class:`CompromiseState`'s) passes
    through uncopied."""
    array = check_integer_array("compromised codes", codes)
    array = array.astype(np.int64, copy=False).ravel()
    if array.size > 1 and not (array[1:] > array[:-1]).all():
        array = np.unique(array)
    return array


class MediumJammer:
    """Adapts :class:`JammingModel` to the event-driven radio medium.

    On every transmission start the jammer decides, per its strategy,
    whether to emit a jam signal and how much of the message it covers:

    - reactive: if the code is compromised, jam from the identification
      point (``1 / (1 + mu)`` through the message) to the end;
    - random: if the (compromised) code is among this message's random
      picks, jam the whole message.
    """

    def __init__(
        self, model: JammingModel, rng: np.random.Generator
    ) -> None:
        self._model = model
        self._rng = rng
        self.attempts = 0
        self.effective = 0

    @property
    def model(self) -> JammingModel:
        """The underlying outcome model."""
        return self._model

    def on_transmission(self, tx: Transmission, medium: RadioMedium) -> None:
        """Medium callback: maybe place a jam against ``tx``."""
        code_key = tx.code_key
        if not isinstance(code_key, (int, np.integer)):
            return  # session codes are unknown to the jammer
        if not self._model.knows(int(code_key)):
            if self._model.strategy is JammerStrategy.RANDOM:
                self._maybe_random_jam(tx, medium)
            return
        self.attempts += 1
        if self._model.strategy is JammerStrategy.REACTIVE:
            # The jammer must identify the code before 1/(1+mu) of the
            # message has passed (Section IV-B); a capable reactive
            # jammer locks on from the first blocks, modelled here as
            # half the deadline, so the jammed tail strictly exceeds
            # the ECC tolerance mu/(1+mu).
            identify_fraction = 0.5 / (1.0 + self._model._mu)
            if medium.jam(tx, code_key, 1.0 - identify_fraction):
                self.effective += 1
        else:
            if self._rng.random() < self._model.random_success_probability():
                if medium.jam(tx, code_key, 1.0):
                    self.effective += 1

    def _maybe_random_jam(
        self, tx: Transmission, medium: RadioMedium
    ) -> None:
        """A random jammer wastes budget on codes that don't match."""
        # No effect on the medium: jam with a non-matching code is a
        # no-op, so nothing to do beyond accounting.
        self.attempts += 1

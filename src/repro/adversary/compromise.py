"""Node compromise (Section IV-B).

The adversary physically captures ``q`` nodes, learning every spread code
they hold and their ID-based private keys.  Codes held only by
non-compromised nodes stay secret — the property that makes the
pre-distribution scheme degrade gracefully (Eq. 2).
"""

from __future__ import annotations

from functools import cached_property
from typing import FrozenSet, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.predistribution.authority import CodeAssignment
from repro.utils.validation import check_non_negative

__all__ = ["CompromiseState", "CompromiseModel"]


class CompromiseState:
    """What the adversary knows after compromising nodes.

    Held as two ascending, duplicate-free, read-only ``int64`` arrays
    (:class:`CompromiseModel` builds them); the set views are built on
    first read.

    Attributes
    ----------
    node_array:
        Indices of compromised nodes.
    code_array:
        Pool indices of every compromised spread code (union over the
        captured nodes' code sets).
    """

    def __init__(
        self, node_array: np.ndarray, code_array: np.ndarray
    ) -> None:
        node_array.setflags(write=False)
        code_array.setflags(write=False)
        self.node_array = node_array
        self.code_array = code_array

    @cached_property
    def nodes(self) -> FrozenSet[int]:
        """Indices of compromised nodes."""
        return frozenset(self.node_array.tolist())

    @cached_property
    def codes(self) -> FrozenSet[int]:
        """Pool indices of every compromised spread code."""
        return frozenset(self.code_array.tolist())

    @property
    def n_nodes(self) -> int:
        """Number of compromised nodes (the paper's ``q``)."""
        return int(self.node_array.size)

    @property
    def n_codes(self) -> int:
        """Number of compromised codes (the paper's ``c``)."""
        return int(self.code_array.size)

    def knows_code(self, code_index: int) -> bool:
        """Whether a pool code is compromised."""
        return code_index in self.codes

    def knows_node(self, node: int) -> bool:
        """Whether a node is compromised."""
        return node in self.nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompromiseState):
            return NotImplemented
        return np.array_equal(
            self.node_array, other.node_array
        ) and np.array_equal(self.code_array, other.code_array)

    def __hash__(self) -> int:
        return hash((self.nodes, self.codes))

    def __repr__(self) -> str:
        return (
            f"CompromiseState(nodes={self.node_array.tolist()}, "
            f"codes={self.code_array.tolist()})"
        )


class CompromiseModel:
    """Samples compromise states against a code assignment."""

    def __init__(self, assignment: CodeAssignment) -> None:
        self._assignment = assignment

    def compromise_random(
        self, q: int, rng: np.random.Generator
    ) -> CompromiseState:
        """Capture ``q`` nodes chosen uniformly without replacement.

        ``q`` must be an integer (not a bool) in ``[0, n]``; anything
        else is a :class:`ConfigurationError`.
        """
        if isinstance(q, (bool, np.bool_)) or not isinstance(
            q, (int, np.integer)
        ):
            raise ConfigurationError(
                f"q must be an integer node count, got {q!r}"
            )
        check_non_negative("q", q)
        n = self._assignment.n_nodes
        if q > n:
            raise ConfigurationError(f"cannot compromise {q} of {n} nodes")
        nodes = (
            np.sort(rng.choice(n, size=q, replace=False))
            if q
            else np.empty(0, dtype=np.int64)
        )
        return self._state(nodes)

    def compromise_nodes(self, nodes: Sequence[int]) -> CompromiseState:
        """Capture a specific node set (integer indices in ``[0, n)``;
        anything else is a :class:`ConfigurationError`)."""
        return self._state(np.unique(self._assignment.node_indices(nodes)))

    def empty(self) -> CompromiseState:
        """A no-compromise state."""
        return self._state(np.empty(0, dtype=np.int64))

    def _state(self, nodes: np.ndarray) -> CompromiseState:
        """The state of capturing ``nodes`` (ascending, distinct)."""
        nodes = nodes.astype(np.int64, copy=False)
        return CompromiseState(
            nodes, self._assignment.compromised_code_array(nodes)
        )

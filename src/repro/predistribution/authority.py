"""The authority's code-assignment procedure (Section V-A).

``m`` rounds of random equal partition: in round ``i`` the authority
splits the ``n`` nodes into ``w`` subsets of cardinality ``l`` and
assigns code ``C_{w(i-1)+j}`` to subset ``j``.  When ``l`` does not
divide ``n``, virtual nodes pad the last subsets; their assignments are
banked and handed to late joiners.  If more than the banked number of new
nodes arrive, a whole extra distribution round re-runs over the existing
pool, raising each code's share count by one.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_integer_array, check_positive

__all__ = ["CodeAssignment", "PreDistributor"]


class CodeAssignment:
    """The result of pre-distribution.

    Section V-A hands out one code per round, and round ``r``'s codes
    are ``[w·r, w·(r+1))``, so the assignment is an ``(n, m)`` matrix
    of *round-local keys*: ``keys[i, r]`` is node ``i``'s round-``r``
    code minus the round's offset ``w·r``, in ``[0, w)``.  Two nodes
    share a code in round ``r`` exactly when their round-``r`` keys are
    equal, which makes ``C_A ∩ C_B`` an ``m``-wide equality test.  The
    keys are held read-only in the narrowest unsigned dtype that holds
    ``w - 1`` (``uint8`` for the paper's ``w = 50``).

    Parameters
    ----------
    codes:
        ``codes[i, r]`` is node ``i``'s round-``r`` pool index, an
        integer matrix (a bool, float or other non-integer entry is a
        :class:`ConfigurationError`, as is a code outside its round's
        block).
    pool_size:
        Total number of pool codes ``s = w * m`` used by the assignment.

    The pool-index matrix :attr:`codes` and the list views
    :attr:`node_codes` and :attr:`code_holders` are built on first read
    and cached.
    """

    def __init__(self, codes: Sequence[Sequence[int]], pool_size: int) -> None:
        matrix = check_integer_array("codes", codes)
        if matrix.ndim != 2:
            raise ConfigurationError(
                f"codes must be an (n, m) matrix, got shape {matrix.shape}"
            )
        matrix = matrix.astype(np.int64, copy=False)
        n_rounds = matrix.shape[1]
        w = _subsets_per_round(pool_size, n_rounds)
        local = matrix - w * np.arange(n_rounds, dtype=np.int64)
        outside = (local < 0) | (local >= w)
        if outside.any():
            node, round_index = np.argwhere(outside)[0].tolist()
            raise ConfigurationError(
                f"node {node}'s round-{round_index} code "
                f"{int(matrix[node, round_index])} lies outside "
                f"[{w * round_index}, {w * (round_index + 1)})"
            )
        self._hold(local.astype(_key_dtype(w)), pool_size)

    @classmethod
    def _from_keys(
        cls, keys: np.ndarray, pool_size: int
    ) -> "CodeAssignment":
        """The assignment whose round-local keys are ``keys``, an
        ``(n, m)`` array in the narrowest unsigned dtype holding
        ``w - 1``, held as given (not copied).

        Another dtype or shape, or a key of ``w`` or more, is a
        :class:`ConfigurationError`.
        """
        if not isinstance(keys, np.ndarray) or keys.ndim != 2:
            raise ConfigurationError("keys must be an (n, m) array")
        w = _subsets_per_round(pool_size, keys.shape[1])
        if keys.dtype != _key_dtype(w):
            raise ConfigurationError(
                f"keys for w={w} must be {_key_dtype(w)}, got {keys.dtype}"
            )
        if keys.size and int(keys.max()) >= w:
            raise ConfigurationError(
                f"round-local key {int(keys.max())} is not below w={w}"
            )
        assignment = cls.__new__(cls)
        assignment._hold(keys, pool_size)
        return assignment

    def _hold(self, keys: np.ndarray, pool_size: int) -> None:
        keys.setflags(write=False)
        #: ``(n, m)`` round-local keys, read-only (see the class doc).
        self.keys = keys
        self.pool_size = int(pool_size)

    @property
    def n_nodes(self) -> int:
        """Number of (real) nodes covered by the assignment."""
        return int(self.keys.shape[0])

    @property
    def codes_per_node(self) -> int:
        """The paper's ``m``."""
        return int(self.keys.shape[1])

    @property
    def offsets(self) -> np.ndarray:
        """``w·r`` for each round ``r``: ``codes = keys + offsets``."""
        m = self.codes_per_node
        return (self.pool_size // m) * np.arange(m, dtype=np.int64)

    @cached_property
    def codes(self) -> np.ndarray:
        """``codes[i, r]`` is node ``i``'s round-``r`` pool index: a
        read-only ``(n, m)`` ``int64`` matrix."""
        codes = np.empty(self.keys.shape, dtype=np.int64)
        np.add(self.keys, self.offsets, out=codes)
        codes.setflags(write=False)
        return codes

    @cached_property
    def node_codes(self) -> List[List[int]]:
        """``node_codes[i]`` is node ``i``'s ascending list of pool
        indices (length ``m``)."""
        return self.codes.tolist()

    @cached_property
    def code_holders(self) -> Dict[int, Set[int]]:
        """``code_holders[c]`` is the set of nodes holding pool code
        ``c``; every pool code has a key, in index order."""
        flat = self.codes.ravel()
        order = np.argsort(flat, kind="stable")
        holders = (order // self.codes_per_node).tolist()
        stops = np.cumsum(
            np.bincount(flat, minlength=self.pool_size)
        ).tolist()
        result: Dict[int, Set[int]] = {}
        begin = 0
        for code, stop in enumerate(stops):
            result[code] = set(holders[begin:stop])
            begin = stop
        return result

    def shared_codes(self, a: int, b: int) -> List[int]:
        """Pool indices shared by nodes ``a`` and ``b`` (the paper's
        ``C_A ∩ C_B``), ascending."""
        row = self.codes[a]
        return row[row == self.codes[b]].tolist()

    def holders_of(self, code_index: int) -> Set[int]:
        """Nodes holding pool code ``code_index``."""
        return set(self.code_holders.get(code_index, set()))

    def max_share_count(self) -> int:
        """Largest number of nodes sharing any one code (``<= l`` plus
        any late-join increments)."""
        return int(np.bincount(self.codes.ravel(), minlength=1).max())

    def node_indices(self, nodes: Sequence[int]) -> np.ndarray:
        """``nodes`` as an ``int64`` array of node indices.

        A non-integer entry (bool and float included) or an index
        outside ``[0, n)`` is a :class:`ConfigurationError`; an integer
        array is checked by its dtype, without a per-entry pass.
        """
        array = check_integer_array("node indices", nodes)
        array = array.astype(np.int64, copy=False).ravel()
        bad = array[(array < 0) | (array >= self.n_nodes)]
        if bad.size:
            raise ConfigurationError(
                f"node index {int(bad[0])} out of range [0, {self.n_nodes})"
            )
        return array

    def compromised_code_array(
        self, compromised_nodes: Sequence[int]
    ) -> np.ndarray:
        """Ascending pool indices held by the given nodes, as a
        duplicate-free ``int64`` array."""
        nodes = self.node_indices(compromised_nodes)
        held = np.zeros(self.pool_size, dtype=bool)
        held[np.take(self.keys, nodes, axis=0) + self.offsets] = True
        return np.flatnonzero(held)

    def compromised_codes(self, compromised_nodes: Sequence[int]) -> Set[int]:
        """Union of pool indices held by the given nodes."""
        return set(self.compromised_code_array(compromised_nodes).tolist())


def _subsets_per_round(pool_size: int, n_rounds: int) -> int:
    """``w = s / m``, or :class:`ConfigurationError` when ``m`` does not
    divide the pool."""
    if n_rounds == 0 or pool_size % n_rounds:
        raise ConfigurationError(
            f"pool_size {pool_size} is not a multiple of "
            f"m={n_rounds} codes per node"
        )
    return pool_size // n_rounds


def _key_dtype(w: int) -> np.dtype:
    """The narrowest unsigned dtype that holds a round-local key
    ``[0, w)``."""
    return np.min_scalar_type(max(w - 1, 0))


class PreDistributor:
    """Runs the ``m``-round partition assignment.

    Parameters
    ----------
    n_nodes:
        Number of nodes ``n``.
    codes_per_node:
        Codes per node ``m``.
    share_count:
        Nodes per code ``l``.
    """

    def __init__(
        self, n_nodes: int, codes_per_node: int, share_count: int
    ) -> None:
        check_positive("n_nodes", n_nodes)
        check_positive("codes_per_node", codes_per_node)
        check_positive("share_count", share_count)
        if share_count < 2:
            raise ConfigurationError(
                f"share_count (l) must be >= 2 for any code to be shared, "
                f"got {share_count}"
            )
        if share_count > n_nodes:
            raise ConfigurationError(
                f"share_count l={share_count} cannot exceed n={n_nodes}"
            )
        self._n = int(n_nodes)
        self._m = int(codes_per_node)
        self._l = int(share_count)
        # Virtual nodes pad n up to a multiple of l (Section V-A).
        self._w = math.ceil(self._n / self._l)
        self._n_virtual = self._w * self._l - self._n

    @property
    def n_nodes(self) -> int:
        """Real node count ``n``."""
        return self._n

    @property
    def codes_per_node(self) -> int:
        """Codes per node ``m``."""
        return self._m

    @property
    def share_count(self) -> int:
        """Target share count ``l``."""
        return self._l

    @property
    def subsets_per_round(self) -> int:
        """The paper's ``w = ceil(n / l)``."""
        return self._w

    @property
    def n_virtual(self) -> int:
        """Virtual nodes introduced to pad the partition (``l'``)."""
        return self._n_virtual

    @property
    def pool_size(self) -> int:
        """Pool codes consumed: ``s = w * m``."""
        return self._w * self._m

    def assign(self, rng: np.random.Generator) -> CodeAssignment:
        """Run the ``m`` rounds and return the assignment.

        Virtual node slots participate in the partition but their codes
        are simply not recorded against any real node, so some codes end
        up shared by fewer than ``l`` real nodes — the behaviour the
        paper describes as "not affect the performance very much".

        Each round draws one ``rng.permutation`` of every slot, virtual
        ones included; the node at position ``j`` lands in subset
        ``j // l``, so one scatter of the slots' subsets per round
        yields every node's round-local key.  Rounds are rows of a
        round-major buffer.  The per-subset test oracle
        :func:`repro.oracles.reference_assign` draws the same
        permutations and builds the same assignment.
        """
        total = self._n + self._n_virtual
        dtype = _key_dtype(self._w)
        subset = (np.arange(total) // self._l).astype(dtype)
        keys = np.empty((self._m, total), dtype=dtype)
        for round_index in range(self._m):
            keys[round_index, rng.permutation(total)] = subset
        return CodeAssignment._from_keys(
            np.ascontiguousarray(keys[:, : self._n].T), self.pool_size
        )

    def admit_new_nodes(
        self,
        assignment: CodeAssignment,
        n_new: int,
        rng: np.random.Generator,
    ) -> Tuple[CodeAssignment, List[int]]:
        """Admit ``n_new`` late joiners (Section V-A's join procedure).

        Virtual-node slots are consumed first: each new node inherits a
        random unused code from each round's short subsets.  Once the
        virtual budget is exhausted, a full extra pass re-partitions
        ``w`` new nodes over the existing pool, raising share counts by
        one.  Either way every joiner still holds one code per round.
        Returns the extended assignment and the indices of the new
        nodes.
        """
        check_positive("n_new", n_new)
        rows = [assignment.codes]
        n_total = assignment.n_nodes
        share = np.bincount(
            assignment.codes.ravel(), minlength=assignment.pool_size
        )
        remaining = int(n_new)
        virtual_budget = self._n_virtual - (n_total - self._n)
        while remaining > 0 and virtual_budget > 0:
            codes = self._codes_for_virtual_slot(share, rng)
            share[codes] += 1
            rows.append(np.array([codes], dtype=np.int64))
            n_total += 1
            remaining -= 1
            virtual_budget -= 1
        while remaining > 0:
            batch = min(remaining, self._w)
            # One extra distribution round-set over the existing s codes.
            extra = np.empty((batch, self._m), dtype=np.int64)
            for round_index in range(self._m):
                order = rng.permutation(self._w)
                extra[:, round_index] = self._w * round_index + order[:batch]
            rows.append(extra)
            n_total += batch
            remaining -= batch
        extended = CodeAssignment(
            np.concatenate(rows, axis=0), pool_size=assignment.pool_size
        )
        return extended, list(range(assignment.n_nodes, n_total))

    def _codes_for_virtual_slot(
        self, share: np.ndarray, rng: np.random.Generator
    ) -> List[int]:
        """Pick one under-subscribed code per round for a late joiner;
        ``share[c]`` is code ``c``'s current holder count."""
        codes: List[int] = []
        for round_index in range(self._m):
            round_codes = range(
                self._w * round_index, self._w * (round_index + 1)
            )
            short = [c for c in round_codes if share[c] < self._l]
            pool = short if short else list(round_codes)
            codes.append(int(pool[int(rng.integers(0, len(pool)))]))
        return codes

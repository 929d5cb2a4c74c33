"""Cayley graphs on finite abelian groups and their combinatorial queries.

A connection set must be symmetric (C = -C) and identity-free, so the graph
is simple, undirected and k-regular with k = |C|.  Vertices and connection
sets are the group's flat indices (see :mod:`cayleyx.groups`); coordinate
tuples appear only at the edges: ``CayleyGraph.build`` and ``from_json``
parse them, ``ConnectionSet.elements``, ``CayleyGraph.vertices`` and the
JSON/DOT exports produce them.  Each graph transforms the indicator of its
connection set once, to ``characters``; statistics and common-neighbour
counts are products of that table with transforms, inverted by ``counts``.
No query builds the dense n x n adjacency; the table itself is checked
against C by :func:`cayleyx.spectral.table_identity`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .groups import AbelianGroup

__all__ = [
    "ConnectionSet",
    "CayleyGraph",
    "GraphStats",
    "InvariantError",
    "DisconnectedGraphError",
]

DOT_MAX_EDGES = 1 << 20  # n*k/2 above this: to_dot refuses (its n x k neighbour array)


class InvariantError(ValueError):
    """A connection-set invariant (symmetric, identity-free) is violated."""


class DisconnectedGraphError(ValueError):
    """Raised by queries that are only defined for connected graphs."""


@dataclass(frozen=True, eq=False)
class ConnectionSet:
    """A connection set held as its sorted flat ``indices`` (a read-only int64
    array); the reduced tuples in ``elements`` are derived for the API."""

    group: AbelianGroup
    indices: np.ndarray

    def __post_init__(self):
        group, idx = self.group, np.asarray(self.indices)
        if not idx.size:
            raise InvariantError("connection set must be nonempty")
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValueError(f"connection-set indices must be a 1-D integer array, "
                             f"got a {idx.ndim}-D {idx.dtype} array")
        idx = np.sort(idx.astype(np.int64))
        if idx[0] < 0 or idx[-1] >= group.order:
            raise ValueError(f"connection-set indices {idx[0]}..{idx[-1]} leave [0, {group.order})")
        if (idx[1:] == idx[:-1]).any():
            raise ValueError("connection-set indices must be distinct")
        if idx[0] == 0:
            raise InvariantError("connection set must not contain the identity (loops)")
        neg = group.neg_indices(idx)
        if not np.array_equal(np.sort(neg), idx):
            c = group.elements_at(idx[~np.isin(neg, idx)][:1])[0]
            raise InvariantError(f"connection set is not symmetric: -{c} missing")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def elements(self):
        return frozenset(self.group.elements_at(self.indices))

    def __eq__(self, other):
        return (isinstance(other, ConnectionSet) and self.group == other.group
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.group, self.indices.tobytes()))

    def __len__(self):
        return self.indices.size

    def __iter__(self):
        return iter(self.group.elements_at(self.indices))


@dataclass(frozen=True)
class GraphStats:
    component_count: int
    bipartite: bool
    diameter: float  # int when finite, math.inf otherwise


class CayleyGraph:
    """u ~ v iff u - v lies in the connection set."""

    def __init__(self, connection):
        self.connection = connection
        self.group = connection.group
        self.n = self.group.order
        self.k = len(connection)
        self.characters = self.group.character_sum_table(self.group.indicator(connection.indices))
        self._stats = None
        self._common = None

    @classmethod
    def build(cls, group, elements):
        """The graph of coordinate tuples, which must differ after reduction."""
        return cls(ConnectionSet(group, group.indices(elements, distinct=True)))

    @property
    def vertices(self):
        return self.group.elements()

    def neighbor_indices(self, i):
        return self.group.add_indices(i, self.connection.indices).tolist()

    def stats(self):
        """Component count, bipartiteness and diameter, by a frontier search
        from 0: N = supp(L_t * 1_C), L_{t+1} = N minus everything reached.

        Levels 0 and 1 are known: L_0 = {0} and L_1 = C (C is identity-free,
        so N meets no L_0), and L_1's step is :meth:`common_neighbor_counts`.
        So a graph of eccentricity e takes e - 1 forward and e inverse
        transforms, the first of them C*C, which the graph keeps.
        Components are translates of the one through 0, so components =
        n / |reached|; bipartite iff no N meets its L_t (an edge inside a
        level closes an odd cycle); diameter = steps taken, if all reached.
        """
        if self._stats is not None:
            return self._stats
        g = self.group
        frontier = g.indicator(self.connection.indices).astype(bool)
        reached = frontier.copy()
        reached.flat[0] = True
        bipartite = True
        steps = 1
        nxt = self.common_neighbor_counts() > 0
        while True:
            bipartite = bipartite and not (nxt & frontier).any()
            frontier = nxt & ~reached
            if not frontier.any():
                break
            reached |= frontier
            steps += 1
            nxt = g.counts(g.character_sum_table(frontier), self.characters) > 0
        size = int(reached.sum())
        diameter = steps if size == self.n else math.inf
        self._stats = GraphStats(self.n // size, bipartite, diameter)
        return self._stats

    # -- strong regularity ----------------------------------------------------

    def common_neighbor_counts(self):
        """The grid array of ``(C * C)[g]``, the common neighbours of 0 and g:
        A^2(0, g) = #{(c, c') in C x C : c - c' = g}, as C = -C.  Computed
        once per graph and returned read-only."""
        if self._common is None:
            self._common = self.group.counts(self.characters, self.characters)
            self._common.flags.writeable = False
        return self._common

    def srg_check(self):
        """(v, k, lambda, mu) iff common-neighbor counts are constant over
        adjacent and over distinct nonadjacent pairs; None otherwise.

        Raises DisconnectedGraphError on disconnected input (the srg notion
        is used here only for connected graphs).
        """
        if self.stats().component_count != 1:
            raise DisconnectedGraphError("srg check requires a connected graph")
        counts = self.common_neighbor_counts().ravel()
        adj = np.zeros(self.n, dtype=bool)
        adj[self.connection.indices] = True
        nonadj = ~adj
        nonadj[0] = False  # index 0 is the identity: the diagonal of A^2
        lam, mu = counts[adj], counts[nonadj]  # C is nonempty, so lam is too
        if lam.min() != lam.max() or (mu.size and mu.min() != mu.max()):
            return None
        # complete graph: no nonadjacent pairs, mu = 0
        return (self.n, self.k, int(lam[0]), int(mu[0]) if mu.size else 0)

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "factors": list(self.group.factors),
            "connection_set": [list(c) for c in self.group.elements_at(self.connection.indices)],
        }

    @classmethod
    def from_json(cls, obj):
        group = AbelianGroup(obj["factors"])
        return cls.build(group, obj["connection_set"])

    def to_json_str(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def to_dot(self):
        """The graph in DOT, one line per vertex and per edge; more than
        ``DOT_MAX_EDGES`` edges raise ValueError."""
        if self.n * self.k // 2 > DOT_MAX_EDGES:
            raise ValueError(f"DOT output is limited to {DOT_MAX_EDGES} edges; "
                             f"this graph has {self.n * self.k // 2}")
        lines = ["graph cayley {"]
        for i, v in enumerate(self.vertices):
            label = ",".join(map(str, v))
            lines.append(f'  v{i} [label="({label})"];')
        nbrs = self.group.add_indices(np.arange(self.n)[:, None], self.connection.indices)
        for i, row in enumerate(np.sort(nbrs, axis=1).tolist()):
            lines.extend(f"  v{i} -- v{j};" for j in row if i < j)
        lines.append("}")
        return "\n".join(lines) + "\n"

"""Cayley graphs on finite abelian groups and their combinatorial queries.

A connection set must be symmetric (C = -C) and identity-free, so the graph
is simple, undirected and k-regular with k = |C|.  Vertices are indexed by
the lexicographic rank of their coordinate tuples.  Neighbor lists are
derived from the connection set on demand.  Statistics and srg parameters
are read off convolutions of indicator arrays on the group's factor grid;
the dense adjacency matrix exists only as the input of the eigensolver
oracle.
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


class InvariantError(ValueError):
    """A connection-set invariant (symmetric, identity-free) is violated."""


class DisconnectedGraphError(ValueError):
    """Raised by queries that are only defined for connected graphs."""


@dataclass(frozen=True)
class ConnectionSet:
    group: AbelianGroup
    elements: frozenset

    def __post_init__(self):
        elems = frozenset(self.group.element(c) for c in self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise InvariantError("connection set must be nonempty")
        if self.group.zero in elems:
            raise InvariantError("connection set must not contain the identity (loops)")
        for c in elems:
            if self.group.neg(c) not in elems:
                raise InvariantError(f"connection set is not symmetric: -{c} missing")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements))


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
        self._vertices = self.group.elements()
        self._stats = None

    @classmethod
    def build(cls, group, elements):
        return cls(ConnectionSet(group, frozenset(tuple(e) for e in elements)))

    @property
    def vertices(self):
        return self._vertices

    def neighbors(self, v):
        g = self.group
        return [g.add(v, c) for c in sorted(self.connection.elements)]

    def neighbor_indices(self, i):
        v = self._vertices[i]
        g = self.group
        return [g.index_of(g.add(v, c)) for c in self.connection.elements]

    def adjacency_matrix(self):
        """Dense n x n 0/1 matrix, built afresh on every call (oracle input)."""
        A = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            A[i, self.neighbor_indices(i)] = 1
        return A

    def stats(self):
        """Component count, bipartiteness and diameter, by a frontier search
        from 0: N = supp(L_t * 1_C), L_{t+1} = N minus everything reached.

        Components are translates of the one through 0, so components =
        n / |reached|; bipartite iff no N meets its L_t (an edge inside a
        level closes an odd cycle); diameter = steps taken, if all reached.
        """
        if self._stats is not None:
            return self._stats
        g = self.group
        conn = g.indicator(self.connection.elements)
        frontier = g.indicator([g.zero]).astype(bool)
        reached = frontier.copy()
        bipartite = True
        steps = 0
        while True:
            nxt = g.convolve(frontier, conn) > 0
            bipartite = bipartite and not (nxt & frontier).any()
            frontier = nxt & ~reached
            if not frontier.any():
                break
            reached |= frontier
            steps += 1
        size = int(reached.sum())
        diameter = steps if size == self.n else math.inf
        self._stats = GraphStats(self.n // size, bipartite, diameter)
        return self._stats

    def components(self):
        return self.stats().component_count

    def is_bipartite(self):
        return self.stats().bipartite

    def diameter(self):
        return self.stats().diameter

    def is_connected(self):
        return self.components() == 1

    # -- strong regularity ----------------------------------------------------

    def common_neighbors(self, u, v):
        nu = set(self.neighbors(u))
        nv = set(self.neighbors(v))
        return len(nu & nv)

    def srg_check(self):
        """(v, k, lambda, mu) iff common-neighbor counts are constant over
        adjacent and over distinct nonadjacent pairs; None otherwise.

        Raises DisconnectedGraphError on disconnected input (the srg notion
        is used here only for connected graphs).
        """
        if not self.is_connected():
            raise DisconnectedGraphError("srg check requires a connected graph")
        # A^2(0, g) = #{(c, c') in C x C : c - c' = g} and C = -C
        ind = self.group.indicator(self.connection.elements)
        counts = self.group.convolve(ind, ind).ravel()
        adj = ind.ravel().astype(bool)
        nonadj = ~adj
        nonadj[0] = False  # index 0 is the identity: the diagonal of A^2
        lam_values = set(counts[adj].tolist())
        mu_values = set(counts[nonadj].tolist())
        if len(lam_values) != 1 or len(mu_values) > 1:
            return None
        lam = lam_values.pop()
        mu = mu_values.pop() if mu_values else 0  # complete graph: no nonadjacent pairs
        return (self.n, self.k, lam, mu)

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "factors": list(self.group.factors),
            "connection_set": sorted(list(c) for c in self.connection.elements),
        }

    @classmethod
    def from_json(cls, obj):
        group = AbelianGroup(obj["factors"])
        return cls.build(group, [tuple(c) for c in obj["connection_set"]])

    def to_json_str(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def to_dot(self):
        lines = ["graph cayley {"]
        for v in self._vertices:
            label = ",".join(map(str, v))
            lines.append(f'  v{self.group.index_of(v)} [label="({label})"];')
        for i, v in enumerate(self._vertices):
            for j in self.neighbor_indices(i):
                if i < j:
                    lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

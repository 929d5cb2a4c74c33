"""Cayley graph construction, statistics, srg detection, serialization."""

import math
import random
from collections import deque

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    ConnectionSet,
    DisconnectedGraphError,
    GraphStats,
    InvariantError,
    bent_hadamard_set,
    cyclic,
    theorem33_set,
    polar_trace_set,
)
from reference import add, adjacency_matrix, common_neighbors, neg, neighbors, subgroup_generated

# 16-vertex product-set fixture: vertex labels 1..16 mapped onto Z_4 x Z_4
# coordinates, with the adjacency lists recorded independently by hand.
LABEL_TO_COORD = {
    1: (0, 1), 2: (0, 2), 3: (0, 3), 4: (1, 0), 5: (1, 1), 6: (1, 2),
    7: (1, 3), 8: (2, 0), 9: (2, 1), 10: (2, 2), 11: (2, 3), 12: (3, 0),
    13: (3, 1), 14: (3, 2), 15: (3, 3), 16: (0, 0),
}
NEIGHBOR_TABLE = {
    1: {3, 7, 8, 9, 10, 15}, 2: {4, 9, 10, 11, 12, 16}, 3: {1, 5, 8, 10, 11, 13},
    4: {2, 6, 10, 12, 13, 15}, 5: {3, 7, 11, 12, 13, 14}, 6: {4, 8, 13, 14, 15, 16},
    7: {1, 5, 9, 12, 14, 15}, 8: {1, 3, 6, 10, 14, 16}, 9: {1, 2, 7, 11, 15, 16},
    10: {1, 2, 3, 4, 8, 12}, 11: {2, 3, 5, 9, 13, 16}, 12: {2, 4, 5, 7, 10, 14},
    13: {3, 4, 5, 6, 11, 15}, 14: {5, 6, 7, 8, 12, 16}, 15: {1, 4, 6, 7, 9, 13},
    16: {2, 6, 8, 9, 11, 14},
}


def _circulant(n, C):
    return CayleyGraph.build(cyclic(n), [(c,) for c in C])


def bfs_stats(graph):
    """Component count, bipartiteness and diameter by tuple BFS over every
    vertex: the reference for the transform-based ``CayleyGraph.stats``."""
    g = graph.group
    conn = sorted(graph.connection.elements)
    color = {}
    components = 0
    bipartite = True
    for start in graph.vertices:
        if start in color:
            continue
        components += 1
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for c in conn:
                w = add(g, u, c)
                if w not in color:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    bipartite = False
    if components > 1:
        return GraphStats(components, bipartite, math.inf)
    # vertex-transitive: eccentricity of the identity is the diameter
    dist = {g.zero: 0}
    queue = deque([g.zero])
    while queue:
        u = queue.popleft()
        for c in conn:
            w = add(g, u, c)
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return GraphStats(components, bipartite, max(dist.values()))


def adjacency_by_rows(graph):
    """Dense adjacency filled row by row with tuple additions: the reference
    for the one-gather ``reference.adjacency_matrix``."""
    g = graph.group
    A = np.zeros((graph.n, graph.n), dtype=np.int64)
    for i, v in enumerate(g.elements()):
        A[i, [g.index_of(add(g, v, c)) for c in graph.connection.elements]] = 1
    return A


def srg_by_dense_square(graph):
    """srg parameters read off the dense A @ A: the reference for srg_check."""
    A = adjacency_matrix(graph)
    A2 = A @ A
    off = ~np.eye(graph.n, dtype=bool)
    adj = A.astype(bool)
    lam_values = set(A2[adj & off].tolist())
    mu_values = set(A2[~adj & off].tolist())
    if len(lam_values) != 1 or len(mu_values) > 1:
        return None
    return (graph.n, graph.k, lam_values.pop(), mu_values.pop() if mu_values else 0)


def _random_symmetric(factors, size, seed):
    """Seeded random symmetric identity-free set of about ``size`` elements."""
    group = AbelianGroup(factors)
    rng = random.Random(seed)
    elems = group.elements()[1:]
    C = set()
    while len(C) < size:
        c = rng.choice(elems)
        C |= {c, neg(group, c)}
    return CayleyGraph.build(group, C)


STATS_CASES = [
    pytest.param(lambda: _circulant(3, [1, 2]), id="C3"),
    pytest.param(lambda: _circulant(4, [1, 3]), id="C4"),
    pytest.param(lambda: _circulant(9, [1, 8]), id="C9"),
    pytest.param(lambda: _circulant(10, [1, 9]), id="C10"),
    pytest.param(lambda: _circulant(100, [1, 99]), id="C100"),
    pytest.param(lambda: _circulant(101, [1, 100]), id="C101"),
    pytest.param(lambda: _circulant(20, [4, 8, 12, 16]), id="Z20-subgroup-K5s"),
    pytest.param(lambda: _circulant(20, [2, 6, 14, 18]), id="Z20-even-coset"),
    pytest.param(lambda: _circulant(24, [3, 21]), id="Z24-disjoint-C8s"),
    pytest.param(lambda: _circulant(2, [1]), id="K2"),
    pytest.param(lambda: _circulant(6, [1, 2, 3, 4, 5]), id="K6"),
    pytest.param(lambda: _circulant(7, [1, 2, 3, 4, 5, 6]), id="K7"),
    pytest.param(lambda: CayleyGraph.build(AbelianGroup([4, 6]), [(1, 0), (3, 0), (0, 1), (0, 5)]),
                 id="Z4xZ6-torus"),
    pytest.param(lambda: CayleyGraph.build(AbelianGroup([4, 6]), [(2, 0), (0, 2), (0, 4)]),
                 id="Z4xZ6-disconnected"),
    pytest.param(lambda: CayleyGraph.build(AbelianGroup([2] * 6), np.eye(6, dtype=int).tolist()),
                 id="Z2^6-hypercube"),
    pytest.param(lambda: CayleyGraph.build(AbelianGroup([2] * 6), [(1, 1, 0, 0, 0, 0),
                                                                 (0, 1, 1, 0, 0, 0),
                                                                 (1, 0, 1, 0, 0, 0)]),
                 id="Z2^6-disconnected-K4s"),
] + [
    pytest.param(lambda seed=seed, size=size: _random_symmetric((16, 16, 8), size, seed),
                 id=f"Z16xZ16xZ8-k{size}-seed{seed}")
    for seed, size in [(1, 2), (2, 3), (3, 4), (4, 6), (5, 8), (6, 12), (7, 40)]
]


@pytest.mark.parametrize("make_graph", STATS_CASES)
def test_stats_match_bfs(make_graph):
    graph = make_graph()
    assert graph.stats() == bfs_stats(graph)
    generated = subgroup_generated(graph.group, graph.connection.elements)
    assert graph.stats().component_count == graph.n // len(generated)


ADJACENCY_CASES = [p for p in STATS_CASES if p.id in {
    "C101", "Z4xZ6-torus", "Z4xZ6-disconnected", "Z2^6-hypercube", "Z2^6-disconnected-K4s",
    "Z16xZ16xZ8-k2-seed1", "Z16xZ16xZ8-k40-seed7"}]


@pytest.mark.parametrize("make_graph", ADJACENCY_CASES)
def test_adjacency_and_neighbors_match_row_fill(make_graph):
    graph = make_graph()
    want = adjacency_by_rows(graph)
    A = adjacency_matrix(graph)
    assert A.dtype == np.float64 and A.shape == (graph.n, graph.n)
    assert np.array_equal(A, want)
    for i in range(graph.n):
        assert sorted(graph.neighbor_indices(i)) == np.flatnonzero(want[i]).tolist()


def test_stats_known_values():
    assert _circulant(101, [1, 100]).stats() == GraphStats(1, False, 50)
    assert _circulant(100, [1, 99]).stats() == GraphStats(1, True, 50)
    assert _circulant(7, [1, 2, 3, 4, 5, 6]).stats() == GraphStats(1, False, 1)
    assert _circulant(24, [3, 21]).stats() == GraphStats(3, True, math.inf)


@pytest.mark.parametrize("make_graph, stats, forward, inverse", [
    (lambda: _circulant(5, [1, 2, 3, 4]), GraphStats(1, False, 1), 0, 1),
    (lambda: _circulant(12, [1, 11]), GraphStats(1, True, 6), 5, 6),
    (lambda: CayleyGraph.build(AbelianGroup([2] * 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
     GraphStats(1, True, 3), 2, 3),
    (lambda: _circulant(20, [4, 8, 12, 16]), GraphStats(4, False, math.inf), 0, 1),
], ids=["K5", "C12", "cube", "Z20-disconnected"])
def test_stats_transforms_only_unknown_levels(make_graph, stats, forward, inverse, monkeypatch):
    """A graph of eccentricity e takes e - 1 forward and e inverse transforms:
    level 0 is {0} and level 1 is C, whose table the graph holds."""
    graph = make_graph()
    calls = []
    table, counts = AbelianGroup.character_sum_table, AbelianGroup.counts
    monkeypatch.setattr(AbelianGroup, "character_sum_table",
                        lambda self, x: calls.append("forward") or table(self, x))
    monkeypatch.setattr(AbelianGroup, "counts",
                        lambda self, a, b: calls.append("inverse") or counts(self, a, b))
    assert graph.stats() == stats
    assert (calls.count("forward"), calls.count("inverse")) == (forward, inverse)


def test_connection_set_invariants():
    g = cyclic(10)
    with pytest.raises(InvariantError):
        ConnectionSet(g, np.array([], dtype=np.int64))
    with pytest.raises(InvariantError):
        ConnectionSet(g, np.array([0, 1, 9]))
    with pytest.raises(InvariantError):
        ConnectionSet(g, np.array([1, 2]))  # not symmetric
    cs = ConnectionSet(g, np.array([1, 9, 5]))
    assert len(cs) == 3


def test_connection_set_rejects_bad_index_arrays():
    g = AbelianGroup([4, 6])
    with pytest.raises(ValueError, match="leave"):
        ConnectionSet(g, np.array([1, 24]))
    with pytest.raises(ValueError, match="leave"):
        ConnectionSet(g, np.array([-1, 1]))
    with pytest.raises(ValueError, match="integer"):
        ConnectionSet(g, np.array([1.0, 5.0]))
    with pytest.raises(ValueError, match="integer"):
        ConnectionSet(g, np.array([True, False]))
    with pytest.raises(ValueError, match="integer"):
        ConnectionSet(g, frozenset({6, 18}))
    with pytest.raises(ValueError, match="distinct"):
        ConnectionSet(g, np.array([6, 18, 6]))


def test_connection_set_stores_sorted_indices():
    g = AbelianGroup([4, 6])
    cs = ConnectionSet(g, [18, 1, 6, 5])
    assert cs.indices.dtype == np.int64 and cs.indices.tolist() == [1, 5, 6, 18]
    assert not cs.indices.flags.writeable
    assert cs.elements == frozenset({(0, 1), (0, 5), (1, 0), (3, 0)})
    assert list(cs) == sorted(cs.elements)
    assert all(type(x) is int for c in cs for x in c)


def test_connection_set_equality_and_hash():
    g = AbelianGroup([4, 6])
    a = ConnectionSet(g, np.array([18, 6, 1, 5]))
    b = ConnectionSet(g, np.array([1, 5, 6, 18], dtype=np.int32))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ConnectionSet(g, np.array([6, 18]))
    # the same indices in another group of order 24 are another set
    assert a != ConnectionSet(cyclic(24), np.array([1, 6, 18, 23]))
    assert ConnectionSet(cyclic(24), np.array([6, 18])) != ConnectionSet(g, np.array([6, 18]))
    assert a == CayleyGraph.build(g, [(1, 0), (3, 0), (0, 1), (0, 5)]).connection


def test_regularity_and_neighbors():
    graph = _circulant(8, [1, 7, 4])
    assert graph.n == 8 and graph.k == 3
    assert set(neighbors(graph, (0,))) == {(1,), (7,), (4,)}
    A = adjacency_matrix(graph)
    assert (A == A.T).all()
    assert A.sum() == graph.n * graph.k
    assert A.trace() == 0


def test_components_and_diameter():
    graph = _circulant(20, [4, 8, 12, 16])
    st = graph.stats()
    assert st.component_count == 4
    assert st.diameter == math.inf
    cycle = _circulant(10, [1, 9])
    assert cycle.stats() == type(cycle.stats())(1, True, 5)


def test_bipartite_detection():
    assert _circulant(20, [2, 6, 14, 18]).stats().bipartite
    # odd cycle is not bipartite, even cycle is
    assert not _circulant(5, [1, 4]).stats().bipartite
    assert _circulant(6, [1, 5]).stats().bipartite


def test_common_neighbors_and_srg():
    graph = theorem33_set(4, 4).graph
    assert graph.srg_check() == (16, 6, 2, 2)
    u, v = (0, 0), (0, 2)  # adjacent pair
    assert common_neighbors(graph, u, v) == 2


def test_srg_complete_graph():
    complete = _circulant(5, [1, 2, 3, 4])
    assert complete.srg_check() == (5, 4, 3, 0)


def test_srg_none_for_plain_cycle():
    assert _circulant(8, [1, 7]).srg_check() is None


def test_srg_none_when_only_lambda_varies():
    """Z_7, C = {1, 2, 5, 6}: lambda is 2 or 1 over the adjacent pairs, mu is
    3 over both nonadjacent ones, so the graph is not strongly regular."""
    graph = _circulant(7, [1, 2, 5, 6])
    assert graph.common_neighbor_counts().tolist() == [4, 2, 1, 3, 3, 1, 2]
    assert graph.srg_check() is None


@pytest.mark.parametrize("make_graph", [
    pytest.param(lambda: theorem33_set(4, 4).graph, id="product(4,4)"),
    pytest.param(lambda: theorem33_set(4, 6).graph, id="product(4,6)"),
    pytest.param(lambda: _circulant(13, [1, 3, 4, 9, 10, 12]), id="Paley13"),
    pytest.param(lambda: _circulant(5, [1, 2, 3, 4]), id="K5"),
    pytest.param(lambda: _circulant(8, [1, 7]), id="C8"),
    pytest.param(lambda: _circulant(6, [1, 3, 5]), id="K33"),
    pytest.param(lambda: bent_hadamard_set(2).graph, id="bent(u=2)"),
    pytest.param(lambda: polar_trace_set(2).graph, id="polar(m=2)"),
    pytest.param(lambda: _random_symmetric((4, 6), 7, 3), id="Z4xZ6-random"),
])
def test_srg_matches_dense_square(make_graph):
    graph = make_graph()
    assert graph.stats().component_count == 1
    assert graph.srg_check() == srg_by_dense_square(graph)


def test_common_neighbor_counts_computed_once(monkeypatch):
    # the statistics take their level-1 step from C*C, and the srg check reads it
    graph = CayleyGraph(theorem33_set(4, 4).graph.connection)
    calls = []
    counts = AbelianGroup.counts
    monkeypatch.setattr(AbelianGroup, "counts", lambda self, a, b: calls.append(
        a is graph.characters and b is graph.characters) or counts(self, a, b))
    graph.stats()
    first = graph.common_neighbor_counts()
    assert graph.srg_check() == (16, 6, 2, 2)
    assert graph.common_neighbor_counts() is first
    assert sum(calls) == 1
    assert not first.flags.writeable


def test_srg_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        _circulant(20, [4, 8, 12, 16]).srg_check()


def test_fixture_adjacency_table():
    graph = theorem33_set(4, 4).graph
    coord_to_label = {v: k for k, v in LABEL_TO_COORD.items()}
    for label, want in NEIGHBOR_TABLE.items():
        got = {coord_to_label[w] for w in neighbors(graph, LABEL_TO_COORD[label])}
        assert got == want


def test_polar_fixture_diameter():
    rep = polar_trace_set(2)
    assert rep.stats.diameter == 4
    assert rep.stats.bipartite


def test_json_roundtrip_identical():
    g = AbelianGroup([4, 5])
    graph = CayleyGraph.build(g, [(1, 0), (3, 0), (0, 2), (0, 3)])
    back = CayleyGraph.from_json(graph.to_json())
    assert back.to_json_str() == graph.to_json_str()
    assert back.connection.elements == graph.connection.elements


def test_from_json_validates():
    with pytest.raises(InvariantError):
        CayleyGraph.from_json({"factors": [10], "connection_set": [[1], [2]]})
    with pytest.raises(ValueError, match=r"element \(-1,\) coincides with an earlier element"):
        CayleyGraph.build(cyclic(8), [(1,), (7,), (-1,)])


def test_dot_export():
    dot = _circulant(4, [1, 3]).to_dot()
    assert dot.startswith("graph cayley {")
    assert dot.count(" -- ") == 4  # 4-cycle has 4 edges
    assert 'v0 [label="(0)"]' in dot

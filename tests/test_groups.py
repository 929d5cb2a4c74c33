"""Group arithmetic, characters, and character sums."""

import cmath
import re

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    cyclic,
    has_multiplier_minus_one,
    kloosterman_trace_set,
    search_gds,
    search_ramanujan_circulant,
    spectrum_by_characters,
    spectrum_oracle,
    verify_gds,
)
from cayleyx.groupring import check_group_ring_identity
from cayleyx.spectral import crossing_counts_batch


def test_factor_validation():
    with pytest.raises(ValueError):
        AbelianGroup([])
    with pytest.raises(ValueError):
        AbelianGroup([4, 1])


def test_basic_arithmetic():
    g = AbelianGroup([4, 6])
    assert g.order == 24
    assert g.zero == (0, 0)
    assert g.add((3, 5), (2, 2)) == (1, 1)
    assert g.sub((0, 0), (1, 2)) == (3, 4)
    assert g.neg((1, 2)) == (3, 4)
    assert g.element((7, -1)) == (3, 5)
    assert (3, 5) in g and (4, 0) not in g and (1,) not in g


def test_element_indexing_roundtrip():
    g = AbelianGroup([3, 4, 2])
    elems = g.elements()
    assert len(elems) == g.order
    assert elems == sorted(elems)  # lexicographic
    for i, e in enumerate(elems):
        assert g.index_of(e) == i
        assert g.element_at(i) == e


def test_flat_indices_match_tuple_api():
    g = AbelianGroup([3, 4, 2])
    elems = g.elements()
    idx = g.indices(reversed(elems + [(3, 4, 2)]))  # duplicates, unreduced
    assert idx.dtype == np.int64 and idx.tolist() == list(range(g.order))
    assert g.indices([(4, -1, 7)]).tolist() == [g.index_of(g.element((4, -1, 7)))]
    back = g.elements_at(idx)
    assert back == elems and all(type(x) is int for e in back for x in e)
    assert g.neg_indices(idx).tolist() == [g.index_of(g.neg(e)) for e in elems]
    total = g.add_indices(idx[:, None], idx[None, :])
    assert total.tolist() == [[g.index_of(g.add(a, b)) for b in elems] for a in elems]


@pytest.mark.parametrize("bad, words", [
    ([(1, 2)], "2 coordinates"),
    ([(1.5,)], "(1.5,) has a non-integer coordinate"),
    ([("a",)], "('a',) has a non-integer coordinate"),
])
def test_indices_reject_bad_elements(bad, words):
    with pytest.raises(ValueError, match=re.escape(words)):
        cyclic(10).indices(bad)


def test_group_matrix_is_a_gather():
    g = AbelianGroup([3, 2, 4])
    x = np.arange(g.order, dtype=float).reshape(g.factors)
    M = g.group_matrix(x)
    want = [[x.ravel()[g.index_of(g.sub(v, u))] for v in g.elements()] for u in g.elements()]
    assert M.dtype == np.float64 and M.tolist() == want


def test_pipeline_never_calls_the_tuple_api(monkeypatch):
    """Pipeline paths run on flat indices: the tuple API is for callers only."""
    def refuse(*args, **kwargs):
        raise AssertionError("tuple API called by the pipeline")

    for name in ("add", "sub", "neg", "element", "index_of", "element_at"):
        monkeypatch.setattr(AbelianGroup, name, refuse)
    graph = CayleyGraph.build(AbelianGroup([4, 6]), [(1, 0), (3, 0), (0, 1), (0, 5), (2, 3)])
    graph.stats()
    spectrum_by_characters(graph)
    spectrum_oracle(graph)
    graph.srg_check()
    crossing_counts_batch(graph, np.eye(graph.n)[:, :3])
    cert = verify_gds(cyclic(20), [(4,), (8,), (12,), (16,)])
    assert check_group_ring_identity(cert)
    assert has_multiplier_minus_one(cyclic(20), [(1,), (3,), (4,)]) is False
    assert sum(1 for _ in search_gds(8)) > 0
    assert sum(1 for _ in search_ramanujan_circulant(12)) > 0
    kloosterman_trace_set(4)


def test_character_values_are_exact_fourth_roots():
    g = cyclic(20)
    assert g.character_value((5,), (1,)) == 1j
    assert g.character_value((10,), (1,)) == -1
    assert g.character_value((0,), (7,)) == 1
    # a generic 20th root comes from cmath
    v = g.character_value((1,), (1,))
    assert abs(v - cmath.exp(2j * cmath.pi / 20)) < 1e-15


def test_characters_are_homomorphisms():
    g = AbelianGroup([4, 3])
    for a in g.elements():
        for x in g.elements()[:6]:
            for y in g.elements()[:6]:
                lhs = g.character_value(a, g.add(x, y))
                rhs = g.character_value(a, x) * g.character_value(a, y)
                assert abs(lhs - rhs) < 1e-12


def test_character_orthogonality():
    g = cyclic(12)
    for a in g.elements():
        total = sum(g.character_value(a, x) for x in g.elements())
        expected = g.order if a == g.zero else 0
        assert abs(total - expected) < 1e-9


def test_character_sum_real_for_symmetric_sets():
    g = cyclic(20)
    C = [(3,), (17,), (4,), (16,)]
    for a in g.elements():
        v = g.character_sum(a, C)
        assert isinstance(v, float)


def test_character_sum_complex_for_asymmetric_sets():
    g = cyclic(5)
    v = g.character_sum((1,), [(1,)])
    assert isinstance(v, complex)
    assert abs(v - cmath.exp(2j * cmath.pi / 5)) < 1e-15


def test_character_sum_table_matches_pointwise():
    g = AbelianGroup([4, 5])
    C = [(1, 2), (3, 3), (0, 1), (0, 4)]
    table = g.character_sum_table(g.indicator(g.indices(C)))
    for a in g.elements():
        direct = sum(g.character_value(a, c) for c in C)
        assert abs(table[a] - direct) < 1e-9


def test_character_sum_table_real_for_symmetric():
    g = AbelianGroup([2, 2, 2])
    C = [(1, 0, 0), (0, 1, 1)]
    table = g.character_sum_table(g.indicator(g.indices(C)))
    assert np.abs(table.imag).max() < 1e-12


def test_convolve_counts_sums():
    g = AbelianGroup([4, 3])
    A = [(1, 0), (3, 2), (0, 1)]
    B = [(1, 1), (2, 2)]
    want = np.zeros(g.factors, dtype=np.int64)
    for a in A:
        for b in B:
            want[g.add(a, b)] += 1
    got = g.convolve(g.indicator(g.indices(A)), g.indicator(g.indices(B)))
    assert got.dtype == np.int64 and (got == want).all()


def test_convolve_rejects_non_integral_result():
    g = cyclic(8)
    with pytest.raises(ArithmeticError):
        g.convolve(np.full(g.factors, 0.5), g.indicator([1]))


def test_subgroup_generated():
    g = cyclic(20)
    assert g.subgroup_generated([(4,)]) == frozenset({(0,), (4,), (8,), (12,), (16,)})
    assert g.subgroup_generated([(3,)]) == frozenset(g.elements())
    h = AbelianGroup([4, 6])
    assert h.subgroup_generated([(2, 3)]) == frozenset({(0, 0), (2, 3)})
    assert h.subgroup_generated([(1, 0), (0, 2)]) == frozenset(
        (x, y) for x in range(4) for y in range(0, 6, 2))
    assert h.subgroup_generated([]) == frozenset({(0, 0)})


def test_is_symmetric():
    g = cyclic(7)
    assert g.is_symmetric([(1,), (6,)])
    assert not g.is_symmetric([(1,), (2,), (4,)])


def test_json_roundtrip():
    g = AbelianGroup([4, 6, 2])
    assert AbelianGroup.from_json(g.to_json()) == g

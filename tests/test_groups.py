"""Group arithmetic, characters, and character sums."""

import cmath
import importlib
import itertools
import json
import pkgutil
import re

import numpy as np
import pytest

import cayleyx
from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    ConnectionSet,
    bent_hadamard_set,
    cyclic,
    has_multiplier_minus_one,
    kloosterman_trace_set,
    polar_trace_set,
    search_gds,
    search_ramanujan_circulant,
    spectrum_by_characters,
    spectrum_oracle,
    theorem33_set,
    verify_gds,
)
from cayleyx.cli import main
from cayleyx.groupring import check_group_ring_identity
from cayleyx.spectral import crossing_counts_batch
from reference import (
    add,
    character_sum,
    character_value,
    contains,
    element,
    is_symmetric,
    neg,
    sub,
)


def test_factor_validation():
    with pytest.raises(ValueError):
        AbelianGroup([])
    with pytest.raises(ValueError):
        AbelianGroup([4, 1])
    for bad in ([10.9], ["7"], [4, 2.0]):
        with pytest.raises(ValueError, match="integers"):
            AbelianGroup(bad)
    assert AbelianGroup([np.int64(4), 6]).factors == (4, 6)


def test_basic_arithmetic():
    g = AbelianGroup([4, 6])
    assert g.order == 24
    assert g.zero == (0, 0)
    assert add(g, (3, 5), (2, 2)) == (1, 1)
    assert sub(g, (0, 0), (1, 2)) == (3, 4)
    assert neg(g, (1, 2)) == (3, 4)
    assert element(g, (7, -1)) == (3, 5)
    assert contains(g, (3, 5)) and not contains(g, (4, 0)) and not contains(g, (1,))


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
    assert g.indices([(4, -1, 7)]).tolist() == [g.index_of(element(g, (4, -1, 7)))]
    back = g.elements_at(idx)
    assert back == elems and all(type(x) is int for e in back for x in e)
    assert g.neg_indices(idx).tolist() == [g.index_of(neg(g, e)) for e in elems]
    total = g.add_indices(idx[:, None], idx[None, :])
    assert total.tolist() == [[g.index_of(add(g, a, b)) for b in elems] for a in elems]


@pytest.mark.parametrize("bad, words", [
    ([(1, 2)], "2 coordinates"),
    ([(1.5,)], "(1.5,) has a non-integer coordinate"),
    ([("a",)], "('a',) has a non-integer coordinate"),
    ([(True,)], "(True,) has a non-integer coordinate"),
    ([[1], [True]], "(True,) has a non-integer coordinate"),  # np.array reads it as 1
    ([[1], [2, 3]], "element (2, 3) has 2 coordinates"),
    ([[1], [11]], "element (11,) coincides with an earlier element"),
])
def test_indices_reject_bad_elements(bad, words):
    """Each is refused with ``distinct``; a coincidence is merged without it,
    and every other case is refused either way."""
    with pytest.raises(ValueError, match=re.escape(words)):
        cyclic(10).indices(bad, distinct=True)
    if "coincides" in words:
        assert cyclic(10).indices(bad).tolist() == [1]
    else:
        with pytest.raises(ValueError, match=re.escape(words)):
            cyclic(10).indices(bad)


@pytest.mark.parametrize("factors, elements, want", [
    ([10], [[-3], [2 ** 63]], [7, 8]),  # np.array makes float64 of these
    ([10], [[2 ** 70]], [4]),  # beyond int64: an object array
    ([10], [(np.int64(13),), (np.uint8(4),)], [3, 4]),
    ([4, 6], [(1, 2), [3, 4], (5, -1)], [8, 11, 22]),  # tuples and lists mixed
])
def test_indices_accepts_every_integer(factors, elements, want, monkeypatch):
    """Parsed as one array, with no element-by-element pass."""
    group = AbelianGroup(factors)
    assert want == sorted(group.index_of(element(group, e)) for e in elements)
    monkeypatch.setattr(AbelianGroup, "_parse_elements", None)
    assert group.indices(elements).tolist() == want
    assert group.indices(elements, distinct=True).tolist() == want


def test_group_matrix_is_a_gather():
    """The rows u with u_i < box_i, in ravel order of the box: the whole
    group, proper boxes of every group, and on Z_3 x Z_2 x Z_4 the
    transversal (0..2, 0..1, 0..1) of the subgroup generated by (0, 0, 2)."""
    for factors, boxes in (([3, 2, 4], ([2, 1, 3], [3, 2, 2])), ([2] * 5, ([1, 2, 1, 2, 2],)),
                           ([2, 3, 2, 2], ([1, 3, 2, 1],)), ([4, 2, 2], ([3, 2, 1], [1, 1, 1]))):
        g = AbelianGroup(factors)
        x = np.arange(g.order, dtype=float).reshape(g.factors)
        for box in (factors, *boxes):
            M = g.group_matrix(x, box)
            rows = itertools.product(*map(range, box))
            want = [[x.ravel()[g.index_of(sub(g, v, u))] for v in g.elements()] for u in rows]
            assert M.dtype == np.float64 and M.tolist() == want, (factors, box)


def test_pipeline_never_calls_the_tuple_api(monkeypatch):
    """Pipeline paths run on flat indices: tuples are parsed at the API edge
    only, and nothing past it converts indices back to tuples."""
    def refuse(*args, **kwargs):
        raise AssertionError("tuple API called by the pipeline")

    for name in ("index_of", "element_at"):
        monkeypatch.setattr(AbelianGroup, name, refuse)
    graph = CayleyGraph.build(AbelianGroup([4, 6]), [(1, 0), (3, 0), (0, 1), (0, 5), (2, 3)])
    cert = verify_gds(cyclic(20), [(4,), (8,), (12,), (16,)])
    assert has_multiplier_minus_one(cyclic(20), [(1,), (3,), (4,)]) is False
    # past the edge: no tuple is parsed or produced
    for name in ("elements", "elements_at", "indices"):
        monkeypatch.setattr(AbelianGroup, name, refuse)
    graph.stats()
    spectrum_by_characters(graph)
    spectrum_oracle(graph)
    graph.srg_check()
    crossing_counts_batch(graph, np.eye(graph.n)[:, :3])
    assert check_group_ring_identity(cert)
    assert sum(1 for _ in search_gds(8)) > 0
    assert sum(1 for _ in search_ramanujan_circulant(12)) > 0
    kloosterman_trace_set(4)
    theorem33_set(4, 6)
    bent_hadamard_set(2)


def test_character_values_are_exact_fourth_roots():
    g = cyclic(20)
    assert character_value(g, (5,), (1,)) == 1j
    assert character_value(g, (10,), (1,)) == -1
    assert character_value(g, (0,), (7,)) == 1
    # a generic 20th root comes from cmath
    v = character_value(g, (1,), (1,))
    assert abs(v - cmath.exp(2j * cmath.pi / 20)) < 1e-15


def test_characters_are_homomorphisms():
    g = AbelianGroup([4, 3])
    for a in g.elements():
        for x in g.elements()[:6]:
            for y in g.elements()[:6]:
                lhs = character_value(g, a, add(g, x, y))
                rhs = character_value(g, a, x) * character_value(g, a, y)
                assert abs(lhs - rhs) < 1e-12


def test_character_orthogonality():
    g = cyclic(12)
    for a in g.elements():
        total = sum(character_value(g, a, x) for x in g.elements())
        expected = g.order if a == g.zero else 0
        assert abs(total - expected) < 1e-9


def test_character_sum_real_for_symmetric_sets():
    g = cyclic(20)
    C = [(3,), (17,), (4,), (16,)]
    for a in g.elements():
        v = character_sum(g, a, C)
        assert isinstance(v, float)


def test_character_sum_complex_for_asymmetric_sets():
    g = cyclic(5)
    v = character_sum(g, (1,), [(1,)])
    assert isinstance(v, complex)
    assert abs(v - cmath.exp(2j * cmath.pi / 5)) < 1e-15


def test_character_sum_table_matches_pointwise():
    g = AbelianGroup([4, 5])
    C = [(1, 2), (3, 3), (0, 1), (0, 4)]
    table = g.character_sum_table(g.indicator(g.indices(C)))
    for a in g.elements():
        direct = sum(character_value(g, a, c) for c in C)
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
            want[add(g, a, b)] += 1
    got = g.convolve(g.indicator(g.indices(A)), g.indicator(g.indices(B)))
    assert got.dtype == np.int64 and (got == want).all()
    # a product of character tables with a leading batch axis, on a mixed group
    h = AbelianGroup([4, 2, 3])
    rng = np.random.default_rng(3)
    x = rng.integers(-3, 4, (5,) + h.factors)
    y = (rng.random(h.factors) < 0.5).astype(float)
    got = h.counts(h.character_sum_table(x), h.character_sum_table(y))
    assert got.dtype == np.int64 and np.array_equal(got, fft_convolve(h, x, y))


def test_convolve_rejects_non_integral_result():
    for g in (cyclic(8), AbelianGroup([2] * 3)):
        with pytest.raises(ArithmeticError):
            g.convolve(np.full(g.factors, 0.5), g.indicator([1]))


def test_butterfly_refuses_int64_overflow():
    g = AbelianGroup([2] * 3)
    big = np.full(g.factors, 1 << 60)  # row sum 2^63
    with pytest.raises(ArithmeticError):
        g.character_sum_table(big)
    with pytest.raises(ArithmeticError):
        g.convolve(big, g.indicator([1]))
    table = np.full(g.factors, 1 << 32)  # each in range; their product is 2^64
    with pytest.raises(ArithmeticError):
        g.counts(table, table)


# -- the Walsh-Hadamard butterfly on Z_2^m against the FFT route ----------------

def _grid_axes(group):
    return tuple(range(-len(group.factors), 0))


def fft_convolve(group, x, y):
    """``ifftn(fftn(x) * fftn(y))``, rounded: the convolution that the
    butterfly replaced on Z_2^m and that every other group still uses."""
    axes = _grid_axes(group)
    z = np.fft.ifftn(np.fft.fftn(x, axes=axes) * np.fft.fftn(y, axes=axes), axes=axes)
    counts = np.rint(z.real)
    assert np.abs(z - counts).max() <= 0.25
    return counts.astype(np.int64)


def fft_character_sum_table(group, x):
    """The conjugated multidimensional DFT over the grid axes."""
    return np.conj(np.fft.fftn(x, axes=_grid_axes(group)))


@pytest.mark.parametrize("batch", [(), (3,)], ids=["grid", "batch"])
@pytest.mark.parametrize("m", [1, 5, 11])
def test_butterfly_matches_fft_route(m, batch):
    g = AbelianGroup([2] * m)
    rng = np.random.default_rng(m)
    x = rng.integers(-4, 5, batch + g.factors)
    y = (rng.random(g.factors) < 0.5).astype(float)  # an indicator, as the pipeline passes
    x_before, y_before = x.copy(), y.copy()
    for got, want in ((g.convolve(x, y), fft_convolve(g, x, y)),
                      (g.convolve(y, x), fft_convolve(g, y, x))):
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
    table, want = g.character_sum_table(x), fft_character_sum_table(g, x)
    assert table.dtype == np.int64 and table.shape == want.shape
    assert np.abs(table - want).max() < 1e-6
    assert np.array_equal(x, x_before) and np.array_equal(y, y_before)


def test_binary_groups_never_call_the_fft(monkeypatch, tmp_path):
    """On Z_2^m the constructions and ``cayleyx analyze`` run on the butterfly."""
    def refuse(*args, **kwargs):
        raise AssertionError("FFT called on an elementary abelian 2-group")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    kloosterman_trace_set(6)
    polar_trace_set(3)
    bent_hadamard_set(3)
    units = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    graph = CayleyGraph.build(AbelianGroup([2] * 5), units + [(1,) * 5])
    gpath = tmp_path / "g.json"
    gpath.write_text(graph.to_json_str())
    out = tmp_path / "out"
    assert main(["analyze", str(gpath), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["oracle_agrees"] is True and verdict["components"] == 1


@pytest.mark.parametrize("make_set", [
    pytest.param(lambda: ConnectionSet(AbelianGroup([2] * 4), np.array([1, 2, 4, 8, 15])),
                 id="Clebsch"),
    pytest.param(lambda: theorem33_set(4, 4).connection, id="product(4,4)"),
])
def test_graph_transforms_its_connection_set_once(make_set, monkeypatch, tmp_path):
    """Every query of a graph reads the character table that its constructor
    stores, so the float indicator of the connection set is transformed once
    per graph.  (The frontier search transforms its own bool frontiers.)"""
    conn = make_set()
    group, C = conn.group, conn.elements
    indicator = group.indicator(conn.indices)
    seen = []

    def counting(method):
        def wrapper(self, *arrays):
            seen.extend(a for a in arrays if isinstance(a, np.ndarray)
                        and a.dtype == indicator.dtype and np.array_equal(a, indicator))
            return method(self, *arrays)
        return wrapper

    for name in ("character_sum_table", "convolve"):
        monkeypatch.setattr(AbelianGroup, name, counting(getattr(AbelianGroup, name)))
    graph = CayleyGraph.build(group, C)
    spectrum_by_characters(graph)
    graph.stats()
    assert graph.srg_check() is not None
    crossing_counts_batch(graph, np.eye(graph.n)[:, :3])
    assert len(seen) == 1
    gpath = tmp_path / "g.json"
    gpath.write_text(graph.to_json_str())
    seen.clear()
    assert main(["analyze", str(gpath), "--out", str(tmp_path / "out")]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["gds"] is not None and verdict["srg"] is not None
    assert len(seen) == 1


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
    assert is_symmetric(g, [(1,), (6,)])
    assert not is_symmetric(g, [(1,), (2,), (4,)])


def test_json_roundtrip():
    g = AbelianGroup([4, 6, 2])
    assert AbelianGroup.from_json(g.to_json()) == g


def test_every_name_in_all_exists():
    """``from cayleyx.<module> import *`` binds every name its __all__ lists."""
    modules = ["cayleyx"] + [f"cayleyx.{m.name}" for m in pkgutil.iter_modules(cayleyx.__path__)]
    assert len(modules) == 9
    for name in modules:
        namespace = {}
        exec(f"from {name} import *", namespace)  # a stale __all__ entry raises here
        listed = getattr(importlib.import_module(name), "__all__", ())  # cli has none
        assert set(listed) <= set(namespace), name

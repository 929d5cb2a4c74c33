"""Group arithmetic, characters, and character sums."""

import ast
import cmath
import importlib
import json
import pathlib
import pkgutil
import re
import tracemalloc

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
    table_identity,
    theorem33_set,
    verify_gds,
)
from cayleyx.cli import main
from cayleyx.groups import _wht, sorted_unique
from reference import (
    add,
    butterfly,
    character_sum,
    character_value,
    check_group_ring_identity,
    contains,
    element,
    is_symmetric,
    neg,
    sub,
    subgroup_generated,
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
        assert g.elements_at([i]) == [e]


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


def test_neg_indices_is_the_identity_map_on_z2m():
    """On Z_2^m, -x = x: the input comes back as int64; a mixed group with a
    factor 2 still negates."""
    g = AbelianGroup([2] * 6)
    idx = np.arange(g.order, dtype=np.int32)
    assert g.neg_indices(idx).dtype == np.int64
    assert g.neg_indices(idx).tolist() == idx.tolist()
    mixed = AbelianGroup([2, 3, 4])
    elems = mixed.elements()
    got = mixed.neg_indices(np.arange(mixed.order))
    assert got.tolist() == [mixed.index_of(neg(mixed, e)) for e in elems]
    assert got.tolist() != list(range(mixed.order))


@pytest.mark.parametrize("factors", [[7], [3, 4, 2], [2] * 6, [5, 1 << 20, 3], [6, 10, 4, 9]])
def test_digits_match_unravel_index(factors):
    """Last factor first, one int64 coordinate array per factor, equal to
    ``np.unravel_index``, for an array of indices and for one index."""
    g = AbelianGroup(factors)
    idx = np.random.default_rng(len(factors)).integers(0, g.order, 500)
    idx[:2] = 0, g.order - 1
    want = np.unravel_index(idx, factors)
    got = list(g.digits(idx))
    assert [i for i, _ in got] == list(reversed(range(len(factors))))
    for i, digit in got:
        assert digit.dtype == np.int64 and digit.tolist() == want[i].tolist()
    one = {i: int(x) for i, x in g.digits(idx[-1])}
    assert one == dict(enumerate(g.elements_at([idx[-1]])[0]))


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


@pytest.mark.parametrize("values", [
    np.zeros(0, dtype=np.int64),
    np.full(50, 7, dtype=np.int64),
    np.random.default_rng(0).integers(-20, 0, 200),
    np.random.default_rng(1).integers(-2 ** 40, 2 ** 40, 300),
    np.random.default_rng(2).integers(-5, 5, 1000) * (2 ** 33),
    np.random.default_rng(3).integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 100),
], ids=["empty", "all-equal", "negative", "beyond-2^31", "repeated-beyond-2^31", "int64-range"])
def test_sorted_unique_matches_np_unique(values):
    want, want_counts = np.unique(values, return_counts=True)
    got = sorted_unique(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    got, got_counts = sorted_unique(values, return_counts=True)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_counts.dtype == want_counts.dtype and np.array_equal(got_counts, want_counts)


def test_pipeline_never_calls_the_tuple_api(monkeypatch):
    """Pipeline paths run on flat indices: tuples are parsed at the API edge
    only, and nothing past it converts indices back to tuples."""
    def refuse(*args, **kwargs):
        raise AssertionError("tuple API called by the pipeline")

    monkeypatch.setattr(AbelianGroup, "index_of", refuse)
    graph = CayleyGraph.build(AbelianGroup([4, 6]), [(1, 0), (3, 0), (0, 1), (0, 5), (2, 3)])
    cert = verify_gds(cyclic(20), [(4,), (8,), (12,), (16,)])
    assert has_multiplier_minus_one(cyclic(20), [(1,), (3,), (4,)]) is False
    # past the edge: no tuple is parsed or produced
    for name in ("elements", "elements_at", "indices"):
        monkeypatch.setattr(AbelianGroup, name, refuse)
    graph.stats()
    spectrum_by_characters(graph)
    assert table_identity(graph, 0)
    graph.srg_check()
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


def test_counts_holds_one_table_besides_its_inputs():
    """Off Z_2^m, counts transforms, scales and checks its product in place:
    on Z_256^2 it peaks at the product and the rounded counts with their
    check, two complex tables' worth (a new array per FFT axis took three),
    and its inputs are left as they were."""
    g = AbelianGroup([256, 256])
    C = g.indicator(np.array([1, 255, 256, 65280]))
    table = g.character_sum_table(C)
    before = table.copy()
    tracemalloc.start()
    try:
        got = g.counts(table, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * table.nbytes
    assert np.array_equal(table, before)
    assert np.array_equal(got, fft_convolve(g, C, C))


def test_character_sum_table_holds_one_table():
    """Off Z_2^m, the table is a complex copy of the indicator transformed
    and conjugated in place: on Z_256^2 it peaks at the one table it returns
    (a new array per FFT axis and one for the conjugate took 2.1), its input
    is left as it was, and it equals the conjugated DFT."""
    g = AbelianGroup([256, 256])
    C = g.indicator(np.array([1, 255, 256, 65280]))
    before = C.copy()
    tracemalloc.start()
    try:
        table = g.character_sum_table(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * table.nbytes
    assert np.array_equal(C, before)
    assert np.array_equal(table, np.conj(np.fft.fftn(C)))


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
    # the limit is 2^53: a row sum, an entry of a product, a row sum of a product
    edge = np.full(g.factors, 1 << 50)  # row sum 2^53
    for call in (lambda: g.character_sum_table(edge),
                 lambda: g.convolve(edge, g.indicator([1])),
                 lambda: g.counts(np.full(g.factors, 1 << 26), np.full(g.factors, 1 << 27)),
                 lambda: g.counts(np.full(g.factors, 1 << 25), np.full(g.factors, 1 << 25))):
        with pytest.raises(ArithmeticError, match="2\\^53"):
            call()
    below = edge.copy()
    below.flat[0] -= 1  # row sum 2^53 - 1: exact in float64
    assert g.character_sum_table(below).flat[0] == (1 << 53) - 1


# -- the Walsh-Hadamard kernel against the reference butterfly ----------------

def _signed_rows(rng, rows, n, total):
    """Random signed int64 rows of length n, each with sum of |x| = total."""
    cuts = np.sort(rng.integers(0, total, (rows, n - 1), endpoint=True), axis=1)
    parts = np.diff(cuts, axis=1, prepend=0, append=total)
    return parts * rng.choice(np.array([-1, 1]), parts.shape)


@pytest.mark.parametrize("total", [2 ** 24 - 1, 2 ** 24, 2 ** 53 - 1, 2 ** 53])
def test_kernel_is_exact_below_its_bound(total):
    """float32 below 2^24, float64 below 2^53, ArithmeticError from 2^53 on;
    the transform equals the int64 butterfly wherever it runs."""
    g = AbelianGroup([2] * 6)
    x = _signed_rows(np.random.default_rng(total % 997), 4, g.order, total)
    assert (np.abs(x).sum(axis=1) == total).all()
    grid = x.reshape((4,) + g.factors)
    if total >= 2 ** 53:
        for call in (lambda: _wht(x, total), lambda: g.character_sum_table(grid)):
            with pytest.raises(ArithmeticError):
                call()
        return
    want = butterfly(x.copy())
    w = _wht(x, total)
    assert w.dtype == (np.float32 if total < 2 ** 24 else np.float64)
    assert np.array_equal(w.astype(np.int64), want)
    table = g.character_sum_table(grid)
    assert table.dtype == np.int64 and np.array_equal(table.reshape(4, -1), want)
    if total * g.order < 2 ** 53:  # the sum of |table|, the bound of its counts
        assert np.array_equal(g.counts(table, np.ones(g.factors, dtype=np.int64)), grid)


@pytest.mark.parametrize("batch", [(), (2, 1)], ids=["grid", "batch"])
@pytest.mark.parametrize("m", range(1, 21))
def test_kernel_matches_butterfly_on_bool_rows(m, batch):
    g = AbelianGroup([2] * m)
    x = np.random.default_rng(m).random(batch + g.factors) < 0.5
    want = butterfly(x.reshape(batch + (g.order,)).astype(np.int64))
    table = g.character_sum_table(x)
    assert table.dtype == np.int64 and table.shape == x.shape
    assert np.array_equal(table.reshape(want.shape), want)


def test_kernel_takes_float64_where_float32_would_round():
    """[2^24, 1, 0, ...] transforms to 2^24 + 1 and 2^24 - 1, which float32
    rounds to 2^24; so do the counts of its table times a delta's."""
    g = AbelianGroup([2] * 4)
    x = np.zeros(g.factors, dtype=np.int64)
    x.flat[:2] = 1 << 24, 1
    table = g.character_sum_table(x)
    assert np.array_equal(table.ravel(), butterfly(x.ravel().copy()))
    assert table.flat[0] == (1 << 24) + 1 and table.flat[1] == (1 << 24) - 1
    assert np.array_equal(g.convolve(x, g.indicator([0])), x)


# -- the Walsh-Hadamard kernel on Z_2^m against the FFT route -------------------

def _grid_axes(group):
    return tuple(range(-len(group.factors), 0))


def fft_convolve(group, x, y):
    """``ifftn(fftn(x) * fftn(y))``, rounded: the convolution that the exact
    Walsh-Hadamard kernel replaces on Z_2^m and that every other group uses."""
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
    """On Z_2^m the constructions and ``cayleyx analyze`` run on the
    Walsh-Hadamard kernel."""
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
    pytest.param(lambda: theorem33_set(4, 4).graph.connection, id="product(4,4)"),
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
    assert subgroup_generated(g, [(4,)]) == frozenset({(0,), (4,), (8,), (12,), (16,)})
    assert subgroup_generated(g, [(3,)]) == frozenset(g.elements())
    h = AbelianGroup([4, 6])
    assert subgroup_generated(h, [(2, 3)]) == frozenset({(0, 0), (2, 3)})
    assert subgroup_generated(h, [(1, 0), (0, 2)]) == frozenset(
        (x, y) for x in range(4) for y in range(0, 6, 2))
    assert subgroup_generated(h, []) == frozenset({(0, 0)})


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


# perfbench's tracer times groupring.difference_counts by name (the metric
# groupring.difference_counts.s), and the pipeline reads difference counts
# through the graph's common_neighbor_counts instead
UNCALLED = {"difference_counts"}


def _references(tree, name):
    """Whether ``tree`` reads ``name`` (a bare name or an attribute) outside
    a ``def``/``class`` of that name; imports and ``__all__`` strings do not
    count."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_name_has_a_caller():
    """Every name in a module's __all__ is read somewhere in src/ outside its
    own definition, or in demos/: a name that only its tests call has left
    the library (for tests/reference.py when the tests compare against it).
    ``__init__.py`` re-exports and counts for none."""
    src = pathlib.Path(cayleyx.__file__).parent
    demos = pathlib.Path(__file__).resolve().parents[1] / "demos"
    files = [p for p in src.glob("*.py") if p.name != "__init__.py"] + list(demos.glob("*.py"))
    trees = [ast.parse(p.read_text(), str(p)) for p in files]
    uncalled = set()
    for info in pkgutil.iter_modules(cayleyx.__path__):
        module = importlib.import_module(f"cayleyx.{info.name}")
        for name in getattr(module, "__all__", ()):
            if not any(_references(tree, name) for tree in trees):
                uncalled.add(f"{info.name}.{name}")
    assert uncalled == {f"groupring.{name}" for name in UNCALLED}

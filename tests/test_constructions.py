"""The explicit constructions and their certification reports."""

import tracemalloc
from types import SimpleNamespace

import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    Gf2Field,
    GraphStats,
    bent_hadamard_set,
    constructions,
    dij_set,
    kloosterman_trace_set,
    polar_trace_set,
    theorem33_condition,
    theorem33_set,
)
from cayleyx.constructions import _certify
from reference import (
    additive_character_sum,
    bent_tuples,
    dij_cardinality,
    frobenius,
    kloosterman,
    subfield_trace,
    theorem33_tuples,
    verify_difference_set,
)


# -- scalar references for the array enumeration of the GF(2) sets -------------

def field_element_to_coords(m, e):
    """Field element (poly-basis int) as a Z_2^m coordinate tuple, most
    significant bit first: the labeling the GF(2) constructions use, where
    an element is its own flat index."""
    return tuple((e >> (m - 1 - i)) & 1 for i in range(m))


def coords_to_field_element(coords):
    e = 0
    for b in coords:
        e = (e << 1) | (b & 1)
    return e


def trace_pair_reference(m, i, j):
    """{z != 0 : Tr(z) = i, Tr(1/z) = j}, ascending, by scalar field calls."""
    fld = Gf2Field(m)
    return [z for z in range(1, fld.order)
            if fld.trace(z) == i and fld.trace(fld.inv(z)) == j]


def polar_reference(m):
    """{x != 0 : Tr_m(x + xbar) = Tr_m(x*xbar) = 1} in GF(2^{2m}), ascending,
    by scalar field calls."""
    fld = Gf2Field(2 * m)
    D = []
    for x in range(1, fld.order):
        xbar = frobenius(fld, x, m)
        if (subfield_trace(fld, x ^ xbar) == 1
                and subfield_trace(fld, fld.mul(x, xbar)) == 1):
            D.append(x)
    return D


def _coords(m, D):
    return frozenset(field_element_to_coords(m, z) for z in D)


def test_kloosterman_set_matches_scalar_reference():
    for m in range(1, 11):
        want = trace_pair_reference(m, 1, 1)
        rep = kloosterman_trace_set(m)
        got = rep.graph.connection.indices.tolist()
        assert got == want
        assert all(type(z) is int for z in got)
        assert rep.graph.connection.elements == _coords(m, want)


def test_dij_sets_match_scalar_reference():
    empty = 0
    for m in range(2, 11):
        for i in (0, 1):
            for j in (0, 1):
                want = trace_pair_reference(m, i, j)
                if want:
                    got = dij_set(m, i, j)
                    assert got.indices.tolist() == want
                    assert got.elements == _coords(m, want)
                else:
                    with pytest.raises(ValueError, match="is empty"):
                        dij_set(m, i, j)
                    assert dij_cardinality(m, i, j) == 0
                    empty += 1
    assert empty  # D_{0,0} is empty at m = 3


def test_polar_set_matches_scalar_reference():
    for m in range(1, 6):
        want = polar_reference(m)
        rep = polar_trace_set(m)
        got = rep.graph.connection.indices.tolist()
        assert got == want
        assert all(type(x) is int for x in got)
        assert rep.graph.connection.elements == _coords(2 * m, want)


def test_gf2_sets_never_call_scalar_field_methods(monkeypatch):
    """The GF(2) sets are enumerated on the exponent tables; the scalar field
    methods are public API and test reference only."""
    def refuse(*args, **kwargs):
        raise AssertionError("scalar field method called by a construction")

    for name in ("add", "mul", "inv", "pow", "trace"):
        monkeypatch.setattr(Gf2Field, name, refuse)
    kloosterman_trace_set(6)
    for i in (0, 1):
        for j in (0, 1):
            dij_set(6, i, j)
    polar_trace_set(3)


def test_kloosterman_trace_set_builds_the_sign_tables_once(monkeypatch):
    """The trace pairs and the Kloosterman table read one set of sign tables."""
    calls, trace_signs = [], Gf2Field.trace_signs

    def counted(fld):
        calls.append(fld.m)
        return trace_signs(fld)

    monkeypatch.setattr(Gf2Field, "trace_signs", counted)
    kloosterman_trace_set(6)
    assert calls == [6]
    dij_set(6, 1, 0)
    assert calls == [6, 6]


# -- product construction -------------------------------------------------------

def test_condition_examples():
    assert theorem33_condition(4, 4)
    assert not theorem33_condition(4, 12)  # 2s = 8 < 12
    assert theorem33_condition(6, 6)
    with pytest.raises(ValueError):
        theorem33_condition(5, 6)
    with pytest.raises(ValueError):
        theorem33_set(4, 2)


def test_product_44_report():
    rep = theorem33_set(4, 4)
    want_D = {(0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)}
    assert rep.graph.connection.elements == frozenset(want_D)
    assert rep.predicted_degree == 6 and rep.graph.k == 6
    assert {v: m for v, m, _ in rep.spectrum.entries} == {6: 1, 2: 6, -2: 9}
    assert rep.verdict.is_ramanujan
    assert rep.discrepancies == []


def test_product_66_criterion_vs_spectrum():
    rep = theorem33_set(6, 6)
    # the closed-form criterion fires, but the actual spectrum contains -8
    # with 8^2 = 64 > 4*(16-1): the disagreement must be recorded
    assert rep.predicted_ramanujan
    assert not rep.verdict.is_ramanujan
    assert any("criterion" in d for d in rep.discrepancies)


def test_product_set_matches_tuple_reference():
    for s in range(4, 19, 2):
        for r in range(4, 19, 2):
            want = AbelianGroup([s, r]).indices(theorem33_tuples(s, r))
            assert theorem33_set(s, r).graph.connection.indices.tolist() == want.tolist()


def test_product_sweep_spectrum_containment():
    for s in range(4, 13, 2):
        for r in range(s, 13, 2):
            rep = theorem33_set(s, r)
            assert rep.graph.k == s * r // 2 - 2
            predicted = {s * r // 2 - 2, r - 2, s - 2, -2, -(s - 2) * (r - 2) // 2}
            assert set(rep.spectrum.values()) <= predicted
            assert not any("eigenvalue" in d for d in rep.discrepancies)


def test_certify_reports_a_wrong_degree_and_a_stray_eigenvalue():
    """A closed form that misses the degree or an eigenvalue is reported,
    not patched: the product set on Z_4 x Z_4 has spectrum {6, 2, -2}."""
    rep = _certify(theorem33_set(4, 4).graph.connection, 5, {2}, True, "claim")
    assert rep.discrepancies == ["degree: computed 6, closed form 5",
                                 "eigenvalues outside predicted set: [-2]"]


# -- Kloosterman trace construction ---------------------------------------------

def test_trace_set_m1():
    rep = kloosterman_trace_set(1)
    assert rep.graph.n == 2 and rep.graph.k == 1
    assert rep.graph.connection.elements == frozenset({(1,)})


def test_trace_set_m2():
    rep = kloosterman_trace_set(2)
    # the two primitive cube roots: elements of GF(4) outside GF(2)
    assert rep.graph.connection.indices.tolist() == [2, 3]
    assert rep.graph.k == (3 + 4 + 1) // 4 == 2


def test_trace_set_m5():
    rep = kloosterman_trace_set(5)
    assert rep.graph.k == (11 + 32 + 1) // 4 == 11
    assert rep.stats.bipartite and rep.stats.component_count == 1
    assert rep.verdict.is_ramanujan and rep.predicted_ramanujan


def test_trace_set_m3_disconnected():
    rep = kloosterman_trace_set(3)
    assert rep.graph.k == 1  # (-5 + 8 + 1) / 4
    assert rep.stats.component_count == 4
    assert not rep.verdict.is_ramanujan


def test_trace_set_prediction_flag_is_the_filter():
    for m in range(2, 9):
        rep = kloosterman_trace_set(m)
        assert rep.predicted_ramanujan == (kloosterman(m, 1) > 3)


def test_trace_set_eigenvalue_formula_pointwise():
    from cayleyx import KloostermanTable
    for m in (2, 3, 4, 5, 6, 7):
        rep = kloosterman_trace_set(m)
        fld, D = Gf2Field(m), rep.graph.connection.indices.tolist()
        table = KloostermanTable.compute(m)
        for a in range(1, fld.order):
            ev = additive_character_sum(fld, a, D)
            if a == 1:
                assert ev == -len(D)
            else:
                assert ev == (-table[a] + table[a ^ 1]) // 4


def test_trace_set_predicts_every_eigenvalue_beyond_m12():
    """The predicted set covers the spectrum past the old m <= 12 table cap."""
    for m in (13, 14):
        rep = kloosterman_trace_set(m)
        assert not any("outside predicted set" in d for d in rep.discrepancies), m
        assert set(rep.spectrum.values()) <= rep.predicted_eigenvalues | {rep.graph.k}


def test_trace_set_budget():
    with pytest.raises(ValueError):
        kloosterman_trace_set(25)


# -- D_{i,j} partition sets ------------------------------------------------------

def test_dij_cardinalities_m3():
    assert dij_cardinality(3, 0, 0) == 0
    assert dij_cardinality(3, 1, 0) == 3
    assert dij_cardinality(3, 0, 1) == 3
    assert dij_cardinality(3, 1, 1) == 1


def test_dij_enumeration_matches_formula():
    for m in range(2, 9):
        sizes = 0
        for i in (0, 1):
            for j in (0, 1):
                size = dij_cardinality(m, i, j)
                if size:
                    assert len(dij_set(m, i, j).elements) == size
                else:
                    with pytest.raises(ValueError, match="is empty"):
                        dij_set(m, i, j)
                sizes += size
        assert sizes == (1 << m) - 1  # the four sets partition the nonzero elements


def test_dij_d11_is_the_trace_set():
    rep = kloosterman_trace_set(4)
    assert dij_set(4, 1, 1).elements == rep.graph.connection.elements


def test_dij_validation():
    with pytest.raises(ValueError):
        dij_cardinality(1, 0, 0)
    with pytest.raises(ValueError):
        dij_set(3, 2, 0)


# -- polar trace construction -----------------------------------------------------

def test_polar_m1():
    rep = polar_trace_set(1)
    assert rep.graph.n == 4 and rep.graph.k == 2


def test_polar_m2_report():
    rep = polar_trace_set(2)
    assert {v: m for v, m, _ in rep.spectrum.entries} == {4: 1, 2: 4, 0: 6, -2: 4, -4: 1}
    assert rep.stats.bipartite and rep.stats.component_count == 1
    assert rep.verdict.is_ramanujan
    assert rep.discrepancies == []


def test_polar_reports_a_graph_that_is_not_connected_bipartite(monkeypatch):
    monkeypatch.setattr(CayleyGraph, "stats", lambda self: GraphStats(1, False, 4))
    rep = polar_trace_set(2)
    assert rep.discrepancies == ["polar construction: graph not connected bipartite as claimed"]


def test_polar_degree_parity_formula():
    for m in range(1, 6):
        rep = polar_trace_set(m)
        want = (1 << (2 * m - 2)) + ((1 << (m - 1)) if m % 2 else 0)
        assert rep.graph.k == want
        assert set(rep.spectrum.values()) <= {want, -want, 1 << (m - 1), -(1 << (m - 1)), 0}


def test_polar_case_table():
    # character values classified by (Tr(a), Tr(a*conj(a))) in both parity regimes
    for m in (1, 2, 3, 4, 5):
        rep = polar_trace_set(m)
        fld, D = Gf2Field(2 * m), rep.graph.connection.indices.tolist()
        half = 1 << (m - 1)
        for a in range(2, fld.order):
            ev = additive_character_sum(fld, a, D)
            tr_a = fld.trace(a)
            tr_norm = subfield_trace(fld, fld.mul(a, frobenius(fld, a, m)))
            trigger = 1 if m % 2 == 0 else 0
            if tr_a == trigger:
                assert ev == (-half if tr_norm == 1 else half)
            else:
                assert ev == 0


def test_polar_enumeration_peaks_at_four_field_sized_arrays(monkeypatch):
    """The norms are read on the 2^m - 1 elements of GF(2^m)*, not on all of
    GF(2^{2m}): enumerating m = 9 peaks at no more than 4 int64 arrays of the
    field's order (with a discrete-log table and norms of every element, 8)."""
    monkeypatch.setattr(constructions, "_certify", lambda *args, **kwargs: SimpleNamespace(
        stats=GraphStats(1, True, 2), discrepancies=[]))
    tracemalloc.start()
    try:
        polar_trace_set(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * 2 ** 18


def test_polar_budget():
    with pytest.raises(ValueError):
        polar_trace_set(13)


# -- bent Hadamard construction ----------------------------------------------------

def test_bent_u1():
    rep = bent_hadamard_set(1)
    assert rep.graph.connection.elements == frozenset({(1, 1)})
    assert verify_difference_set(rep.graph.group, rep.graph.connection.elements) == (4, 1, 0)
    # 2 disjoint edges: the eigenvalue bound is met but the graph is disconnected
    assert rep.stats.component_count == 2
    assert not rep.verdict.is_ramanujan and not rep.verdict.connected
    assert any("disconnected" in d for d in rep.discrepancies)


def test_bent_u2():
    rep = bent_hadamard_set(2)
    assert verify_difference_set(rep.graph.group, rep.graph.connection.elements) == (16, 6, 2)
    assert {v: m for v, m, _ in rep.spectrum.entries} == {6: 1, 2: 6, -2: 9}
    assert rep.verdict.is_ramanujan


def test_bent_u3_u4():
    for u, (n, k, lam) in ((3, (64, 28, 12)), (4, (256, 120, 56))):
        rep = bent_hadamard_set(u)
        assert verify_difference_set(rep.graph.group, rep.graph.connection.elements) == (n, k, lam)
        assert set(rep.spectrum.values()) == {k, 1 << (u - 1), -(1 << (u - 1))}
        assert rep.verdict.is_ramanujan


def test_bent_set_matches_tuple_reference():
    for u in range(1, 7):
        group = AbelianGroup([2] * (2 * u))
        want = group.indices(bent_tuples(group, u))
        assert bent_hadamard_set(u).graph.connection.indices.tolist() == want.tolist()


def test_bent_budget():
    with pytest.raises(ValueError):
        bent_hadamard_set(13)


def test_field_element_coords_roundtrip():
    for e in range(32):
        assert coords_to_field_element(field_element_to_coords(5, e)) == e

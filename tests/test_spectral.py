"""Character spectra, the eigensolver oracle, and certification primitives."""

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    cyclic,
    gds_predicted_eigenvalues,
    gds_sufficient_filters,
    spectral,
    spectral_gap,
    spectrum_by_characters,
    spectrum_oracle,
    theorem33_set,
    verify_gds,
    vertex_expansion,
)
from cayleyx.spectral import (
    _group_eigenvalues,
    certify_ramanujan,
    crossing_counts_batch,
    crossing_lemma_bound,
    spectra_agree,
)
from reference import is_symmetric_about_zero
from test_cayley import _random_symmetric


def _circulant(n, C):
    return CayleyGraph.build(cyclic(n), [(c,) for c in C])


def _multiset(spec):
    return {v: m for v, m, _ in spec.entries}


def test_spectrum_subgroup_set():
    spec = spectrum_by_characters(_circulant(20, [4, 8, 12, 16]))
    assert _multiset(spec) == {4: 4, -1: 16}
    assert all(exact for _, _, exact in spec.entries)


def test_spectrum_shifted_set():
    spec = spectrum_by_characters(_circulant(20, [2, 6, 14, 18]))
    assert _multiset(spec) == {4: 2, -4: 2, 1: 8, -1: 8}
    assert is_symmetric_about_zero(spec)


def test_spectrum_product_set():
    spec = spectrum_by_characters(theorem33_set(4, 4).graph)
    assert _multiset(spec) == {6: 1, 2: 6, -2: 9}


def test_oracle_small_graphs():
    assert _multiset(spectrum_oracle(_circulant(4, [1, 3]))) == {2: 1, 0: 2, -2: 1}
    assert _multiset(spectrum_oracle(_circulant(5, [1, 2, 3, 4]))) == {4: 1, -1: 4}


def oracle_by_one_solve(graph):
    """Sorted eigenvalues of one unsplit dense solve: the oracle's reference."""
    return np.linalg.eigvalsh(graph.adjacency_matrix())


@pytest.mark.parametrize("factors", [[5], [9], [3, 4], [2] * 6, [8, 4, 2]])
def test_oracle_matches_one_unsplit_solve(factors, monkeypatch):
    raw = []

    def record(values, n):
        raw.append(sorted(values))
        return _group_eigenvalues(values, n)

    monkeypatch.setattr(spectral, "_group_eigenvalues", record)
    for size in (2, 3, 4):
        graph = _random_symmetric(factors, size, seed=size)
        spectrum_oracle(graph)
        got = raw.pop()
        assert len(got) == graph.n
        assert np.abs(np.array(got) - oracle_by_one_solve(graph)).max() <= 1e-9 * graph.k


def test_oracle_refuses_a_matrix_that_is_not_translation_invariant(monkeypatch):
    gather = AbelianGroup.group_matrix

    def tampered(self, x):
        M = gather(self, x)
        M[0, 1] = M[1, 0] = 1 - M[0, 1]  # toggles one edge, not its translate
        return M

    graph = _circulant(12, [1, 11, 4, 8])
    monkeypatch.setattr(AbelianGroup, "group_matrix", tampered)
    with pytest.raises(ArithmeticError):
        spectrum_oracle(graph)


def test_oracle_uses_no_character_values(monkeypatch):
    """The oracle checks the character route, so it must not share it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the character route")

    graphs = [_circulant(9, [1, 8, 3, 6]), theorem33_set(4, 6).graph,
              CayleyGraph.build(AbelianGroup([3, 4]), [(1, 0), (2, 0), (0, 2)])]
    monkeypatch.setattr(AbelianGroup, "character_sum_table", refuse)
    monkeypatch.setattr(AbelianGroup, "convolve", refuse)
    monkeypatch.setattr(AbelianGroup, "counts", refuse)
    for graph in graphs:
        assert spectrum_oracle(graph).n == graph.n


def test_oracle_budget():
    class Fake:
        n = 5000
    with pytest.raises(ValueError):
        spectrum_oracle(Fake())


def test_spectra_agree_on_irrational_spectrum():
    graph = _circulant(5, [1, 4])  # eigenvalues 2cos(2*pi*j/5): golden-ratio pairs
    a = spectrum_by_characters(graph)
    b = spectrum_oracle(graph)
    assert spectra_agree(a, b)
    assert sum(m for _, m, exact in a.entries if not exact) == 4


def test_trace_identities():
    # exact on integer-snapped spectra
    for graph in (_circulant(12, [2, 10, 6]), theorem33_set(4, 6).graph):
        spec = spectrum_by_characters(graph)
        assert all(exact for _, _, exact in spec.entries)
        assert spec.trace() == 0
        assert spec.trace_of_square() == graph.n * graph.k
    # within tolerance when irrational eigenvalues remain
    spec = spectrum_by_characters(_circulant(12, [1, 11, 6]))
    assert abs(spec.trace()) < 1e-9
    assert abs(spec.trace_of_square() - 12 * 3) < 1e-9


def test_ramanujan_examples():
    assert certify_ramanujan(_circulant(20, [3, 4, 8, 12, 16, 17])).is_ramanujan
    v = certify_ramanujan(_circulant(20, [4, 8, 12, 16]))
    assert not v.is_ramanujan and v.reason == "not connected"
    assert certify_ramanujan(theorem33_set(4, 4).graph).is_ramanujan  # 2^2 <= 4*5


def test_ramanujan_exempts_bipartite_negative_k():
    graph = _circulant(6, [1, 5])  # 6-cycle, spectrum {2, 1, 1, -1, -1, -2}
    assert certify_ramanujan(graph).is_ramanujan


def test_ramanujan_boundary_equality_passes():
    # 4-cycle: |0| <= 2*sqrt(1); complete bipartite side: eigenvalue exactly at bound
    graph = _circulant(4, [1, 3])
    verdict = certify_ramanujan(graph)
    assert verdict.is_ramanujan and verdict.bound == 2.0


def test_ramanujan_failure_reason():
    # Z_20 with {±1, ±2}: eigenvalue 2cos(18°) + 2cos(36°) ≈ 3.52 > 2*sqrt(3)
    verdict = certify_ramanujan(_circulant(20, [1, 2, 18, 19]))
    assert not verdict.is_ramanujan and verdict.connected
    assert "exceeds bound" in verdict.reason
    assert verdict.second_largest_abs > verdict.bound


def test_verdict_json_fields():
    verdict = certify_ramanujan(_circulant(4, [1, 3]))
    payload = verdict.to_json()
    assert set(payload) == {
        "is_ramanujan", "second_largest_abs", "bound", "connected",
        "boundary_flag", "reason",
    }


def test_spectral_gap_examples():
    assert spectral_gap(spectrum_by_characters(theorem33_set(4, 4).graph), 6) == 4
    assert spectral_gap(spectrum_by_characters(_circulant(5, [1, 2, 3, 4])), 4) == 5
    assert spectral_gap(spectrum_by_characters(_circulant(4, [1, 3])), 2) == 2
    # disconnected: largest value strictly below k, not by index
    assert spectral_gap(spectrum_by_characters(_circulant(20, [4, 8, 12, 16])), 4) == 5


def test_crossing_lemma_bound():
    graph = _circulant(4, [1, 3])
    bound, actual = crossing_lemma_bound(graph, [(0,), (2,)])
    assert bound == 2.0 and actual == 4
    bound, actual = crossing_lemma_bound(graph, [])
    assert bound == 0 and actual == 0
    g16 = theorem33_set(4, 4).graph
    half = g16.vertices[:8]
    bound, actual = crossing_lemma_bound(g16, half)
    assert bound == (6 - 2) * 64 / 16
    assert actual >= bound - 1e-9


def test_crossing_counts_batch_matches_dense():
    rng = np.random.default_rng(3)
    for graph in (_circulant(20, [4, 8, 12, 16]), theorem33_set(4, 6).graph,
                  CayleyGraph.build(AbelianGroup([2, 4, 3]), [(1, 0, 0), (0, 1, 0), (0, 3, 0),
                                                              (0, 0, 1), (0, 0, 2)])):
        X = (rng.random((graph.n, 9)) < 0.5).astype(float)
        A = graph.adjacency_matrix()
        want = (A[:, :, None] * (X[:, None, :] != X[None, :, :])).sum(axis=(0, 1)) // 2
        actual, sizes = crossing_counts_batch(graph, X)
        assert actual.tolist() == want.tolist()
        assert sizes.tolist() == X.sum(axis=0).astype(int).tolist()


def test_crossing_bound_degenerates_when_disconnected():
    from cayleyx.spectral import second_largest_by_index
    graph = _circulant(20, [4, 8, 12, 16])
    spec = spectrum_by_characters(graph)
    assert second_largest_by_index(spec, 4) == 4  # top eigenvalue repeats
    bound, actual = crossing_lemma_bound(graph, graph.vertices[:5])
    assert bound == 0.0 and actual >= 0


def test_vertex_expansion_examples():
    assert vertex_expansion(_circulant(4, [1, 2, 3])) == 1.0  # complete K_4
    assert vertex_expansion(_circulant(4, [1, 3])) == 1.0     # 4-cycle
    two_k5 = CayleyGraph.build(
        cyclic(10), [(2,), (4,), (6,), (8,)]
    )  # two disjoint K_5s
    assert vertex_expansion(two_k5) == 0.0
    with pytest.raises(ValueError):
        vertex_expansion(_circulant(24, [1, 23]))


def test_gds_predicted_eigenvalues():
    cert = verify_gds(cyclic(20), [(4,), (8,), (12,), (16,)])
    predicted = gds_predicted_eigenvalues(cert)
    assert predicted == {4, -4, 1, -1}
    for C in ([(4,), (8,), (12,), (16,)], [(2,), (6,), (14,), (18,)]):
        spec = spectrum_by_characters(_circulant(20, [c[0] for c in C]))
        nontrivial = {v for v, _, _ in spec.entries} - {4}
        assert nontrivial <= predicted


def test_gds_predicted_difference_set_case():
    cert = verify_gds(cyclic(4), [(1,), (2,), (3,)])
    assert gds_predicted_eigenvalues(cert) == {1, -1}


def test_gds_sufficient_filters_recorded():
    cert = verify_gds(cyclic(20), [(4,), (8,), (12,), (16,)])
    flags = gds_sufficient_filters(cert)
    assert set(flags) == {"strict", "weak"}
    assert all(isinstance(v, bool) for v in flags.values())


def test_snapping_and_grouping():
    spec = spectrum_by_characters(_circulant(7, [1, 6]))
    # heptagon eigenvalues: 2 and three irrational conjugate pairs
    exact = [(v, m) for v, m, e in spec.entries if e]
    assert exact == [(2, 1)]
    assert all(m == 2 for v, m, e in spec.entries if not e)


def test_spectrum_csv():
    csv_text = spectrum_by_characters(_circulant(4, [1, 3])).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "value,multiplicity,exact"
    assert lines[1] == "2,1,1"

"""Character spectra, the table identity, and certification primitives."""

import csv
import io
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    ConnectionSet,
    GdsCertificate,
    bent_hadamard_set,
    cyclic,
    dij_set,
    gds_predicted_eigenvalues,
    kloosterman_trace_set,
    polar_trace_set,
    search_ramanujan_circulant,
    spectral,
    spectrum_by_characters,
    table_identity,
    theorem33_set,
    verify_gds,
)
from cayleyx.cli import main
from cayleyx.constructions import certify
from cayleyx.spectral import ramanujan_check, second_largest_by_index
from reference import (
    adjacency_matrix,
    crossing_counts_by_inverse,
    group_eigenvalues,
    is_symmetric_about_zero,
    power_sum,
    ramanujan_verdict,
    spectra_agree,
    spectrum_oracle,
)
from test_cayley import _random_symmetric


def _circulant(n, C):
    return CayleyGraph.build(cyclic(n), [(c,) for c in C])


def _multiset(spec):
    return {v: m for v, m, _ in spec.entries}


def crossing_lemma_bound(graph, omega1):
    """The crossing bound and the crossing count of the tuples ``omega1``,
    one column of :func:`reference.crossing_counts_by_inverse`."""
    x = graph.group.indicator(graph.group.indices(omega1)).reshape(-1, 1)
    actual, _, bound = crossing_counts_by_inverse(graph, x)
    return bound.tolist()[0], actual.tolist()[0]


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


def _move_one_entry(graph, at):
    """Move the table entry at flat index ``at`` by 2 on Z_2^m (an int64
    table), by 1e-3 elsewhere, and return the shift."""
    table = graph.characters.ravel()
    shift = 2 if table.dtype.kind == "i" else 1e-3
    table[at] += shift
    return shift


@pytest.mark.parametrize("factors", [[5], [9], [3, 4], [2] * 6, [8, 4, 2],
                                     [6], [10], [12], [16], [2, 9], [6, 10], [15], [25]])
def test_oracle_matches_one_unsplit_solve(factors):
    """The oracle of ``cayleyx analyze`` (the table identity, reported as
    ``oracle_agrees``) agrees with one unsplit dense solve: it holds where
    the sorted table equals the solve's eigenvalues within 1e-9 k, and it
    fails once one entry is moved off them."""
    for size in (2, 3, 4):
        graph = _random_symmetric(factors, size, seed=size)
        solve = np.linalg.eigvalsh(adjacency_matrix(graph))
        table = graph.characters.ravel()
        assert np.abs(np.sort(table.real) - solve).max() <= 1e-9 * graph.k
        assert table_identity(graph, size) is True
        _move_one_entry(graph, size)
        assert np.abs(np.sort(table.real) - solve).max() > 1e-9 * graph.k
        assert table_identity(graph, size) is False


def _typed_entries(spectrum):
    return [(v, type(v), m, type(m), exact) for v, m, exact in spectrum.entries]


def _typed_verdict(verdict):
    return (verdict.is_ramanujan, verdict.second_largest_abs, type(verdict.second_largest_abs),
            verdict.bound, verdict.connected, verdict.boundary_flag, verdict.reason)


MIXED_GRAPHS = [(factors, size) for factors in ([3, 4], [5, 6], [9], [8, 4, 2], [2] * 6)
                for size in (2, 3, 5, 8)]


def test_spectra_and_verdicts_match_the_scalar_references():
    """spectrum_by_characters groups its eigenvalues, and ramanujan_check
    decides, as the one-value-at-a-time references do: values,
    multiplicities, exact flags and their Python types, and every verdict
    field with the reason."""
    graphs = [_random_symmetric(factors, size, seed=size) for factors, size in MIXED_GRAPHS]
    rng = np.random.default_rng(4095)
    pairs = rng.choice(np.arange(1, 2048), 6, replace=False)
    graphs += [_circulant(4095, np.concatenate([pairs, 4095 - pairs]).tolist()),
               _circulant(10000, [1, 9999]), _circulant(20, [1, 2, 18, 19]),
               theorem33_set(6, 6).graph, _circulant(255, [1, 7, 248, 254])]
    reasons = set()
    for graph in graphs:
        spec = spectrum_by_characters(graph)
        table = graph.characters
        want = group_eigenvalues(table.real.ravel().tolist(), graph.k, graph.n)
        assert _typed_entries(spec) == _typed_entries(want), graph.group.factors
        for connected in (True, False):
            got = ramanujan_check(spec, graph.k, connected)
            assert _typed_verdict(got) == _typed_verdict(ramanujan_verdict(want, graph.k, connected))
            reasons.add(got.reason.split()[0] if got.reason else "")
    assert reasons == {"", "eigenvalue", "not"}


def test_every_spectrum_and_verdict_goes_through_the_one_grouping(monkeypatch, tmp_path):
    """No second snap-and-cluster route: a non-binary character spectrum
    and the circulant search both reach ``spectral._groups``."""
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    graph = _circulant(12, [1, 11, 4, 8])
    monkeypatch.setattr(spectral, "_groups", reached)
    for call in (lambda: spectrum_by_characters(graph),
                 lambda: main(["search", "ramanujan", "--n", "8", "--out", str(tmp_path)])):
        with pytest.raises(Reached):
            call()


def test_oracle_uses_no_character_values(monkeypatch):
    """The oracle checks the character route, so it must not share it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the character route")

    graphs = [_circulant(9, [1, 8, 3, 6]), theorem33_set(4, 6).graph,
              CayleyGraph.build(AbelianGroup([3, 4]), [(1, 0), (2, 0), (0, 2)]),
              _random_symmetric([2] * 5, 6, seed=6), _circulant(10, [1, 9, 5])]
    monkeypatch.setattr(AbelianGroup, "character_sum_table", refuse)
    monkeypatch.setattr(AbelianGroup, "convolve", refuse)
    monkeypatch.setattr(AbelianGroup, "counts", refuse)
    for graph in graphs:
        assert spectrum_oracle(graph).n == graph.n


@pytest.mark.parametrize("factors", [[32, 32], [1024], [2] * 10, [1022], [1023], [1021]])
def test_oracle_memory_stays_below_a_quarter_matrix_unless_n_is_prime(factors):
    """The table identity holds arrays of size n and k only, so its peak
    stays below a quarter of an n x n float matrix (8 n^2 bytes) at every
    n, prime n (1021) included."""
    graph = _random_symmetric(factors, 8, seed=8)
    tracemalloc.start()
    try:
        assert table_identity(graph, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * graph.n ** 2


def test_table_identity_at_the_z2m_cap():
    """On Z_2^20 the exact F_p identity holds for several seeds, and for
    each it fails with one entry moved by 2 (the principal one, two in the
    middle, the last), which a seed misses with probability at most
    (20/p)^2."""
    group = AbelianGroup([2] * 20)
    C = np.random.default_rng(20).choice(np.arange(1, group.order), 24, replace=False)
    graph = CayleyGraph(ConnectionSet(group, C))  # every element of Z_2^m is its own negative
    for seed, at in zip((0, 1, 7, 2 ** 70), (0, 12345, 777777, group.order - 1)):
        assert table_identity(graph, seed) is True
        shift = _move_one_entry(graph, at)
        assert table_identity(graph, seed) is False
        graph.characters.ravel()[at] -= shift


@pytest.mark.parametrize("factors", [[4095], [3, 7, 7], [2] * 10])
def test_table_identity_uses_no_transform_of_size_n(factors, monkeypatch):
    """The identity reads the finished table and C only: it holds, and
    catches one entry moved by 1e-3 (by 2 on Z_2^m), with every transform of
    the group refused."""
    graph = _random_symmetric(factors, 12, seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("a transform of the group was taken")

    for name in ("character_sum_table", "counts", "convolve"):
        monkeypatch.setattr(AbelianGroup, name, refuse)
    assert table_identity(graph, 3) is True
    _move_one_entry(graph, 5)
    assert table_identity(graph, 3) is False


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
        assert power_sum(spec, 1) == 0
        assert power_sum(spec, 2) == graph.n * graph.k
    # within tolerance when irrational eigenvalues remain
    spec = spectrum_by_characters(_circulant(12, [1, 11, 6]))
    assert abs(power_sum(spec, 1)) < 1e-9
    assert abs(power_sum(spec, 2) - 12 * 3) < 1e-9


def test_ramanujan_examples():
    assert certify(_circulant(20, [3, 4, 8, 12, 16, 17])).verdict.is_ramanujan
    v = certify(_circulant(20, [4, 8, 12, 16])).verdict
    assert not v.is_ramanujan and v.reason == "not connected"
    assert certify(theorem33_set(4, 4).graph).verdict.is_ramanujan  # 2^2 <= 4*5


def test_ramanujan_exempts_bipartite_negative_k():
    graph = _circulant(6, [1, 5])  # 6-cycle, spectrum {2, 1, 1, -1, -1, -2}
    assert certify(graph).verdict.is_ramanujan


def test_ramanujan_boundary_equality_passes():
    # 4-cycle: |0| <= 2*sqrt(1); complete bipartite side: eigenvalue exactly at bound
    graph = _circulant(4, [1, 3])
    verdict = certify(graph).verdict
    assert verdict.is_ramanujan and verdict.bound == 2.0


def test_ramanujan_failure_reason():
    # Z_20 with {±1, ±2}: eigenvalue 2cos(18°) + 2cos(36°) ≈ 3.52 > 2*sqrt(3)
    verdict = certify(_circulant(20, [1, 2, 18, 19])).verdict
    assert not verdict.is_ramanujan and verdict.connected
    assert "exceeds bound" in verdict.reason
    assert verdict.second_largest_abs > verdict.bound


def test_verdict_json_fields():
    verdict = certify(_circulant(4, [1, 3])).verdict
    payload = verdict.to_json()
    assert set(payload) == {
        "is_ramanujan", "second_largest_abs", "bound", "connected",
        "boundary_flag", "reason",
    }


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


def test_crossing_lemma_bound_matches_dense():
    """The crossing counts of the inverse route (the reference) against edges
    counted on the dense A, on cyclic, product and mixed groups and on
    Z_2^10 (the exact Walsh-Hadamard inverse), for random, empty and full
    Omega1."""
    rng = np.random.default_rng(3)
    for graph in (_circulant(20, [4, 8, 12, 16]), theorem33_set(4, 6).graph,
                  CayleyGraph.build(AbelianGroup([2, 4, 3]), [(1, 0, 0), (0, 1, 0), (0, 3, 0),
                                                              (0, 0, 1), (0, 0, 2)]),
                  _random_symmetric([2] * 10, 40, seed=10)):
        X = rng.random((graph.n, 9)) < 0.5
        X[:, 0], X[:, 1] = False, True
        A = adjacency_matrix(graph)
        gap = graph.k - second_largest_by_index(spectrum_by_characters(graph), graph.k)
        for x in X.T:
            size = int(x.sum())
            bound, actual = crossing_lemma_bound(graph, graph.group.elements_at(np.flatnonzero(x)))
            assert type(actual) is int and actual == (A * (x[:, None] != x[None, :])).sum() // 2
            assert bound == gap * size * (graph.n - size) / graph.n
            assert actual >= bound - 1e-9
            if size in (0, graph.n):
                assert actual == 0 and bound == 0


@pytest.mark.parametrize("graph, size, accepted", [
    (lambda: CayleyGraph.build(AbelianGroup([2] * 4), [(1, 0, 0, 0)]), 3, False),
    (lambda: _circulant(8, [1, 7]), 2, True),
    (lambda: _circulant(8, [1, 7]), 3, False),
], ids=["Z2^4-3", "Z8-2", "Z8-3"])
def test_crossing_lemma_bound_on_non_integral_tables(graph, size, accepted):
    """A table whose inverse is not an integer array (1 at the principal
    character only) makes every entry of A x = ``counts(T(x), table)`` equal
    |Omega1| / n.  On Z_2^4, 3/16 is refused by the remainder of the exact
    division.  Elsewhere ``counts`` refuses a value more than 0.25 from an
    integer: 3/8 is refused, and 2/8 is exactly 0.25 off 0, so it is read as
    0 (no edge inside: k |Omega1| crossing)."""
    graph = graph()
    group = graph.group
    fake = np.zeros_like(graph.characters).ravel()
    fake[0] = 1
    fake = fake.reshape(group.factors)
    x = group.indicator(np.arange(size))  # Omega1: the first size vertices
    if accepted:
        ax = group.counts(group.character_sum_table(x), fake)
        assert ax.dtype == np.int64 and not ax.any()  # no edge inside Omega1
    else:
        with pytest.raises(ArithmeticError):
            group.counts(group.character_sum_table(x), fake)


def test_crossing_bound_degenerates_when_disconnected():
    graph = _circulant(20, [4, 8, 12, 16])
    spec = spectrum_by_characters(graph)
    assert second_largest_by_index(spec, 4) == 4  # top eigenvalue repeats
    bound, actual = crossing_lemma_bound(graph, graph.vertices[:5])
    assert bound == 0.0 and actual >= 0


@pytest.mark.parametrize("graph, orders", [
    (lambda: _random_symmetric([2] * 5, 8, seed=5), {2}),
    (lambda: _circulant(15, [1, 14, 3, 12, 5, 10]), {3, 5, 15}),
    (lambda: CayleyGraph.build(AbelianGroup([2, 6]), [(1, 0), (0, 1), (0, 5), (1, 3), (0, 2),
                                                      (0, 4)]), {2, 3, 6}),
    (lambda: _random_symmetric([4, 6], 7, seed=3), {2, 3, 4, 6, 12}),
], ids=["Z2^5", "Z15", "Z2xZ6", "Z4xZ6"])
def test_quotient_cuts_equal_dense_counts(graph, orders, monkeypatch):
    """At every nontrivial character a, the cut pi^-1({0, ..., ceil(e/2)-1})
    has as many crossing edges as the dense A counts, e is a's order, the
    direct value is a's table entry, and no cut is below the mixing bound."""
    graph = graph()
    monkeypatch.setattr(spectral, "_witnesses", lambda table, k: list(range(1, len(table))))
    report = spectral.quotient_cuts(graph, spectrum_by_characters(graph))
    factors, A = graph.group.factors, adjacency_matrix(graph)
    coords = np.indices(factors).reshape(len(factors), -1)
    seen = set()
    for a, cut in zip(range(1, graph.n), report["cuts"]):
        assert cut["character"] == list(graph.group.elements_at([a])[0])
        e = next(e for e in range(1, graph.n + 1)
                 if all(x * e % d == 0 for x, d in zip(cut["character"], factors)))
        phase = sum(np.asarray(x) * c * e // d
                    for x, c, d in zip(cut["character"], coords, factors)) % e
        x = (phase < (e + 1) // 2).astype(float)
        assert cut["order"] == e and cut["cut"] == x @ A @ (1 - x)
        assert abs(cut["direct"] - graph.characters.ravel()[a]) <= 1e-9 * graph.k
        seen.add(e)
    assert seen == orders and report["violations"] == 0


@pytest.mark.parametrize("report", [
    lambda: kloosterman_trace_set(4), lambda: kloosterman_trace_set(7),
    lambda: polar_trace_set(2), lambda: polar_trace_set(3), lambda: polar_trace_set(4),
    lambda: bent_hadamard_set(1), lambda: bent_hadamard_set(2), lambda: bent_hadamard_set(3),
], ids=["kloosterman4", "kloosterman7", "polar2", "polar3", "polar4", "bent1", "bent2",
        "bent3"])
def test_z2m_constructs_cut_at_their_bound(report):
    """On Z_2^m the cut at lambda_2's character is n(k - lambda_2)/4, the
    mixing bound exactly; a second witness's cut is at or above it."""
    report = report()
    checks = spectral.quotient_cuts(report.graph, report.spectrum)
    first, *rest = checks["cuts"]
    assert first["order"] == 2 and first["cut"] == first["bound"]
    assert first["direct"] == spectral.second_largest_by_index(report.spectrum, report.graph.k)
    assert all(c["cut"] >= c["bound"] for c in rest) and checks["violations"] == 0


def test_dij_cut_at_its_bound():
    graph = CayleyGraph(dij_set(5, 1, 1))
    first = spectral.quotient_cuts(graph, spectrum_by_characters(graph))["cuts"][0]
    assert first["cut"] == first["bound"]


@pytest.mark.parametrize("graph, shift, violations", [
    (lambda: kloosterman_trace_set(5).graph, 2, 1),
    (lambda: _random_symmetric([2] * 10, 40, seed=4), 2, 1),
    (lambda: _random_symmetric([2] * 10, 40, seed=4), -2, 2),  # lambda_2 = 22 once, then 18
    (lambda: _random_symmetric([64, 16], 12, seed=1), 1e-3, 1),
    (lambda: _random_symmetric([3, 7, 7], 10, seed=2), -1e-3, 1),  # e = 7: cut 84 > bound 54
], ids=["kloosterman5-up", "Z2^10-up", "Z2^10-down", "Z64xZ16-up", "Z3xZ7xZ7-down"])
def test_quotient_cuts_count_a_moved_lambda2(graph, shift, violations):
    """Moving lambda_2's table entry (and its conjugate's) while it stays the
    largest leaves the cut where it was while the table says otherwise: the
    direct value is off, and moved down on Z_2^m, where the cut meets the
    bound, the cut is below the bound too.  Counted, not raised."""
    graph = graph()
    table = graph.characters.ravel()
    at = spectral._witnesses(table, graph.k)[0]
    for i in {at, int(graph.group.neg_indices(np.array([at]))[0])}:
        table[i] += shift
    assert spectral._witnesses(table, graph.k)[0] == at
    assert spectral.quotient_cuts(graph, spectrum_by_characters(graph))["violations"] == violations


@pytest.mark.parametrize("lam2, violations", [(7, 1), (7.6, 1), (7.7, 0), (8, 0), (10, 0)])
def test_quotient_cuts_count_a_cut_below_a_spectrum_bound(lam2, violations):
    """The bound comes from the spectrum given: on Z3xZ7xZ7 the cut at the
    order-7 witness is 84 of the 84 x 63 pairs, the bound (10 - lambda_2) 36,
    so a lambda_2 below 7.67 puts it above the cut, an exact one compared in
    integers and a float one within 1e-9 k."""
    graph = _random_symmetric([3, 7, 7], 10, seed=2)
    spec = spectral.Spectrum(((10, 1, True), (lam2, graph.n - 1, isinstance(lam2, int))))
    report = spectral.quotient_cuts(graph, spec)
    assert report["cuts"][0]["cut"] == 84 and report["violations"] == violations


def test_quotient_cuts_use_no_transform(monkeypatch):
    """The check reads C and the finished table only."""
    graphs = [kloosterman_trace_set(5).graph, _random_symmetric([4, 6], 7, seed=3)]
    specs = [spectrum_by_characters(g) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("a transform was taken")

    monkeypatch.setattr(AbelianGroup, "character_sum_table", refuse)
    monkeypatch.setattr(AbelianGroup, "counts", refuse)
    for graph, spec in zip(graphs, specs):
        assert spectral.quotient_cuts(graph, spec)["violations"] == 0


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


def test_gds_envelope_snaps_the_radicand():
    """A radicand off a square by its float error gives the exact int root,
    where a snap of the root would miss it: on Z_6 with C = {0, 1} the
    radicand 2.2e-16 has the root 1.5e-8, and on Z_12 with
    C = {0, 2, 4, 6, 8} (|mu1 - mu2| = 4) a radicand reads 1 + 1.8e-15."""
    z6 = gds_predicted_eigenvalues(verify_gds(cyclic(6), [(0,), (1,)]))
    assert z6 == {0, 1, -1, math.sqrt(3), -math.sqrt(3)}
    assert {type(v) for v in z6 if abs(v) < 1} == {int}
    cert = verify_gds(cyclic(12), [(c,) for c in (0, 2, 4, 6, 8)])
    assert abs(cert.mu1 - cert.mu2) == 4
    z12 = gds_predicted_eigenvalues(cert)
    assert z12 == {5, -5, 1, -1} and {type(v) for v in z12} == {int}


def test_gds_predicted_eigenvalues_refuse_an_asymmetric_S():
    """A certificate built by its constructor may carry any S that holds 0.
    On Z_7 with S = {0, 1} the chi(S) = 1 + w^j have imaginary parts up to
    0.97, so an envelope of their real parts would be wrong: it raises
    instead."""
    cert = GdsCertificate(group=cyclic(7), C=[1, 2, 4], S=[0, 1], k=3, mu1=0, mu2=1)
    with pytest.raises(ArithmeticError, match="must be real"):
        gds_predicted_eigenvalues(cert)


def test_every_tolerance_site_reads_the_model(monkeypatch):
    """Every float tolerance is ``spectral.tolerance``'s one eps or a
    multiple of it: patching eps moves each site that reads it.  The
    heptagon's eigenvalues are 2, 2cos(2pi/7) = 1.247, -0.445 and -1.802,
    each irrational one twice."""

    def patch(eps):
        monkeypatch.setattr(spectral, "tolerance", lambda k, n: eps)

    def verdict(spec):  # of degree 3: the bound is 2 sqrt(2) = 2.83
        v = ramanujan_check(spec, 3, True)
        return v.is_ramanujan, v.second_largest_abs, v.boundary_flag

    heptagon = _circulant(7, [1, 6])
    spec = spectrum_by_characters(heptagon)
    near_k = spectral.Spectrum(((3, 1, True), (2.5, 2, False), (-1, 4, True)))
    above = spectral.Spectrum(((3, 1, True), (2.9, 2, False), (-1, 4, True)))
    table = np.array([3.0, 2.5, -2.9, 1.0])
    pair = [3.0, 1.4, 1.4, 1.6, 1.6, -1.0, -2.0, -3.0]  # 0.4 from integers, 0.2 apart
    # radicand 1 - 1 + (1 - 0) chi(S) = 1 + 2cos(2pi j/7): 2.247, 0.555 and -0.802
    cert = GdsCertificate(group=cyclic(7), C=[1, 6], S=[0, 1, 6], k=1, mu1=1, mu2=0)
    assert table_identity(heptagon, 0)
    assert spectral.quotient_cuts(heptagon, spec)["violations"] == 0
    assert verdict(near_k) == (True, 2.5, False)
    assert verdict(above) == (False, 2.9, False)
    assert spectral._witnesses(table, 3) == [1, 2]
    assert [m for _, m, _ in spectral._group_eigenvalues(pair, 3, 8).entries] \
        == [1, 2, 2, 1, 1, 1]
    with pytest.raises(ArithmeticError, match="negative radicand"):
        gds_predicted_eigenvalues(cert)

    patch(0.25)  # 1.247 and -1.802 snap to 1 and -2
    assert [(v, m) for v, m, e in spectrum_by_characters(heptagon).entries if e] \
        == [(2, 1), (1, 2), (-2, 2)]
    patch(0.15)  # the cut is 2 eps = 0.3: 1.4 and 1.6 form one cluster
    assert [(m, e) for _, m, e in spectral._group_eigenvalues(pair, 3, 8).entries] \
        == [(1, True), (4, False), (1, True), (1, True), (1, True)]
    patch(0.6)  # 2.5 lies within eps of k = 3: exempt
    assert verdict(near_k) == (True, 1, False)
    patch(0.08)  # 2.9 lies within eps of the bound: it passes, flagged
    assert verdict(above) == (True, 2.9, True)
    patch(0.2)  # |-2.9| lies within eps of k = 3: the witness is 2.5 alone
    assert spectral._witnesses(table, 3) == [1]
    patch(1.25)  # -0.802 and 0.555 lie within eps of 0 and 1, 2.247 of 1
    assert gds_predicted_eigenvalues(cert) == {0, 1, -1}
    patch(-1e9)  # every entry check fails
    for fails in (lambda: spectrum_by_characters(heptagon),
                  lambda: list(search_ramanujan_circulant(8))):
        with pytest.raises(ArithmeticError, match="must be real"):
            fails()
    assert not table_identity(heptagon, 0)
    cuts = spectral.quotient_cuts(heptagon, spec)  # a low cut and an off entry at each
    assert cuts["violations"] == 2 * len(cuts["cuts"]) == 4


@pytest.mark.parametrize("factors", [[99991], [12, 30, 49], [3] * 9],
                         ids=["Z99991", "Z12xZ30xZ49", "Z3^9"])
def test_table_error_stays_below_eps(factors):
    """The error model's assumption, measured: on a seeded symmetric set of
    about 1000 elements, 200 sampled table entries (the prime 99991 takes
    pocketfft's Bluestein route, the others its mixed radix) lie within
    eps of their direct sums sum_c cos(2 pi <a, c>), read in integers and
    summed by ``math.fsum``."""
    graph = _random_symmetric(factors, 1000, seed=7)
    group, e = graph.group, math.lcm(*factors)
    coords = np.array(group.elements_at(graph.connection.indices)) * [e // d for d in factors]
    at = np.random.default_rng(7).choice(graph.n, 200, replace=False)
    phases = np.array(group.elements_at(at)) @ coords.T % e
    direct = [math.fsum(row) for row in np.cos(2 * np.pi / e * phases).tolist()]
    error = np.abs(graph.characters.ravel()[at] - direct)
    assert error.max() <= spectral.tolerance(graph.k, graph.n)


def test_no_tolerance_is_set_by_hand():
    """No float literal in exponent notation appears in the package's
    sources: every float tolerance is read from eps, so a hand-set one
    cannot return unseen."""
    src = pathlib.Path(spectral.__file__).parent
    found = [f"{p.name}:{i}: {line.strip()}" for p in sorted(src.glob("*.py"))
             for i, line in enumerate(p.read_text().splitlines(), 1)
             if re.search(r"[0-9][eE]-[0-9]", line)]
    assert found == []


def test_snapping_and_grouping():
    spec = spectrum_by_characters(_circulant(7, [1, 6]))
    # heptagon eigenvalues: 2 and three irrational conjugate pairs
    exact = [(v, m) for v, m, e in spec.entries if e]
    assert exact == [(2, 1)]
    assert all(m == 2 for v, m, e in spec.entries if not e)


def test_cycle_10000_has_the_degree_once():
    """C_10000 is connected, so k = 2 is a simple eigenvalue: 2cos(2pi/10000),
    3.9e-7 below it, is not snapped to it."""
    assert spectrum_by_characters(_circulant(10000, [1, 9999])).multiplicity(2) == 1


def test_cycle_4096_second_largest_is_the_true_lambda2():
    """On C_4096 the largest |lambda| other than +-k is 2cos(2pi/4096)
    (1.9999976469), not the mean of a cluster of neighbouring values."""
    spec = spectrum_by_characters(_circulant(4096, [1, 4095]))
    second = ramanujan_check(spec, 2, connected=True).second_largest_abs
    assert abs(second - 2 * np.cos(2 * np.pi / 4096)) <= 1e-9


def test_spectrum_csv():
    csv_text = spectrum_by_characters(_circulant(4, [1, 3])).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "value,multiplicity,exact"
    assert lines[1] == "2,1,1"


def _csv_writer_text(entries):
    buf = io.StringIO()
    csv.writer(buf).writerows([["value", "multiplicity", "exact"]]
                              + [[v, m, int(exact)] for v, m, exact in entries])
    return buf.getvalue()


def test_spectrum_csv_equals_csv_writer():
    """One ``%`` format writes what ``csv.writer`` writes, byte for byte:
    exact ints, floats by repr, negatives and -0.0 alike."""
    entries = ((24, 1, True), (13.34553434433975, 2, False), (0.1, 3, False),
               (0, 7, True), (-0.0, 1, False), (-1e-07, 2, False), (-2.5, 4, False),
               (-12, 1, True), (-1.0000000000000002e+300, 1, False))
    for spec in (spectral.Spectrum(()), spectral.Spectrum(entries),
                 spectrum_by_characters(_circulant(13, [1, 5, 8, 12]))):
        assert spec.to_csv() == _csv_writer_text(spec.entries)
    assert "-0.0,1,0\r\n" in spectral.Spectrum(entries).to_csv()

"""Exhaustive Ramanujan-circulant search, and the hit files of both searches."""

import json
import math

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    ConnectionSet,
    GdsCertificate,
    SearchHit,
    cli,
    cyclic,
    groupring,
    ramanujan_check,
    search,
    search_gds,
    search_ramanujan_circulant,
)
from cayleyx.cli import main
from cayleyx import spectral
from cayleyx.spectral import _ramanujan_rows
from reference import (
    connection_from_encoding,
    degree_of_encoding,
    gds_hit_line,
    group_eigenvalues,
    ramanujan_hit_line,
    ramanujan_verdict,
)


def search_by_rebuilding_graphs(n, min_degree=2):
    """One encoding at a time, each connected one rebuilt as a CayleyGraph
    and decided by the scalar references from its character table: the
    reference for the batched search_ramanujan_circulant."""
    group = cyclic(n)
    for s in range(1, 1 << (n // 2)):
        C = connection_from_encoding(n, s)
        k = len(C)
        if k < min_degree or math.gcd(n, *C) != 1:
            continue
        graph = CayleyGraph(ConnectionSet(group, np.asarray(C)))
        spectrum = group_eigenvalues(graph.characters.real.ravel().tolist(), k, n)
        verdict = ramanujan_verdict(spectrum, k, connected=True)
        if verdict.is_ramanujan:
            yield SearchHit(n=n, encoding=s, C=C, degree=k,
                            second_largest_abs=verdict.second_largest_abs, verdict=verdict)


def _lines(hits):
    """Each hit's hits.jsonl line (the repr of its lambda2_abs included) and
    the hit itself, whose degree and verdict the line does not state."""
    return [(ramanujan_hit_line(h), h) for h in hits]


def test_encoding_decoding():
    assert connection_from_encoding(10, 0b1) == (1, 9)
    assert connection_from_encoding(10, 0b10000) == (5,)  # midpoint selects itself
    assert connection_from_encoding(7, 0b101) == (1, 3, 4, 6)
    assert degree_of_encoding(10, 0b10001) == 3
    assert degree_of_encoding(7, 0b101) == 4


def test_triangle_and_square():
    assert [h.C for h in search_ramanujan_circulant(3)] == [(1, 2)]
    assert any(h.C == (1, 3) for h in search_ramanujan_circulant(4))


def test_hits_are_certified_and_ordered():
    hits = list(search_ramanujan_circulant(13))
    assert hits
    encodings = [h.encoding for h in hits]
    assert encodings == sorted(encodings)
    for h in hits:
        assert h.verdict.is_ramanujan
        assert h.degree == len(h.C) == degree_of_encoding(13, h.encoding)
        assert h.second_largest_abs <= h.verdict.bound + 1e-9


def test_min_degree_filter():
    hits = list(search_ramanujan_circulant(12, min_degree=4))
    assert all(h.degree >= 4 for h in hits)


@pytest.mark.parametrize("min_degree", [0, -5])
def test_min_degree_below_1_is_refused(min_degree):
    """The library refuses what ``--minDegree`` refuses, before any scan."""
    hits = search_ramanujan_circulant(12, min_degree=min_degree)
    with pytest.raises(ValueError, match=f"min_degree must be >= 1, got {min_degree}"):
        next(hits)


def test_disconnected_sets_never_emitted():
    for h in search_ramanujan_circulant(12):
        assert h.verdict.connected


def test_n15_hit_count():
    assert len(list(search_ramanujan_circulant(15))) >= 3


@pytest.mark.parametrize("min_degree", [2, 4])
def test_matches_graph_by_graph_reference(min_degree):
    for n in range(3, 23):
        assert (_lines(search_ramanujan_circulant(n, min_degree))
                == _lines(search_by_rebuilding_graphs(n, min_degree))), n


def test_hits_straddle_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(search, "SCAN_CHUNK", 7)
    assert _lines(search_ramanujan_circulant(17)) == _lines(search_by_rebuilding_graphs(17))


def test_searches_build_no_graph(monkeypatch, tmp_path):
    """Both searches certify from their own batched counts and sums: no
    ConnectionSet, no per-graph character table (a transform is taken of a
    whole chunk of rows only), no verify_gds call, no per-candidate spectrum
    or verdict.  The CLI writes its hits from the arrays and builds no
    certificate either."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-candidate certification route called by a search")

    transform = AbelianGroup.character_sum_table

    def rows_only(group, x):
        if np.ndim(x) <= len(group.factors):  # one grid: one graph's table
            refuse()
        return transform(group, x)

    monkeypatch.setattr(ConnectionSet, "__post_init__", refuse)
    monkeypatch.setattr(AbelianGroup, "character_sum_table", rows_only)
    monkeypatch.setattr("cayleyx.groupring.verify_gds", refuse)
    monkeypatch.setattr("cayleyx.spectral._group_eigenvalues", refuse)
    monkeypatch.setattr("cayleyx.spectral.ramanujan_check", refuse)
    monkeypatch.setattr("cayleyx.constructions.ramanujan_check", refuse)
    assert sum(1 for _ in search_ramanujan_circulant(16)) > 0
    assert sum(1 for _ in search_gds(10)) > 0
    monkeypatch.setattr(GdsCertificate, "__post_init__", refuse)
    for mode, n in (("ramanujan", 16), ("gds", 10)):
        assert main(["search", mode, "--n", str(n), "--out", str(tmp_path / mode)]) == 0
        assert (tmp_path / mode / "hits.jsonl").read_text()


def _expected_lines(mode, n):
    """hits.jsonl text built one hit at a time through json.dumps from the
    API searches."""
    if mode == "gds":
        return "".join(gds_hit_line(n, C, cert) + "\n" for C, cert in search_gds(n))
    return "".join(ramanujan_hit_line(h) + "\n" for h in search_ramanujan_circulant(n))


# n = 24 holds a hit with boundary_flag true; a GDS mask of Z_17 spans three
# byte tables (17 bits), scanned at the default chunk only: 2^15 masks seven
# at a time take seconds.  A chunk of 7 also cuts the GDS hits into slices of
# 7, so a slice holds parts of several translation orbits.
@pytest.mark.parametrize("mode, n, chunk", [
    (mode, n, chunk) for mode, n in [("ramanujan", 17), ("ramanujan", 24), ("gds", 11)]
    for chunk in (None, 7)] + [("gds", 17, None)])
def test_cli_hit_files_match_json_dumps(mode, n, chunk, monkeypatch, tmp_path, capsys):
    if chunk:
        monkeypatch.setattr(search, "SCAN_CHUNK", chunk)
        monkeypatch.setattr(groupring, "SCAN_CHUNK", chunk)
        monkeypatch.setattr(groupring, "HIT_CHUNK", chunk)
    expected = _expected_lines(mode, n)
    assert expected
    assert main(["search", mode, "--n", str(n), "--out", str(tmp_path)]) == 0
    lines = expected.count("\n")
    assert f"{lines} hits" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["hits.jsonl"]
    with open(tmp_path / "hits.jsonl", newline="") as f:
        assert f.read() == expected


@pytest.mark.parametrize("chunk", [None, 7])
def test_cli_hit_line_keeps_the_dropped_facts_checkable(chunk, monkeypatch, tmp_path):
    """A circulant hit line states C, s, lambda2_abs and boundary_flag only:
    s decodes to C, k is |C|, and lambda2_abs is within the bound
    2 sqrt(k - 1), on it when the line is flagged."""
    if chunk:
        monkeypatch.setattr(search, "SCAN_CHUNK", chunk)
    assert main(["search", "ramanujan", "--n", "12", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "hits.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        hit = json.loads(line)
        assert set(hit) == {"C", "boundary_flag", "lambda2_abs", "n", "s"}
        assert hit["n"] == 12
        assert tuple(hit["C"]) == connection_from_encoding(12, hit["s"])
        bound = 2 * math.sqrt(len(hit["C"]) - 1)
        assert hit["lambda2_abs"] <= bound + 1e-6
        if hit["boundary_flag"]:
            assert abs(hit["lambda2_abs"] - bound) <= 1e-6


def test_set_text_joins_the_set_bits():
    """A mask's text read from the byte tables is ``", ".join`` of its set
    bits, at every width the searches write, empty and full rows included."""
    rng = np.random.default_rng(5)
    for n in range(1, 33):
        rows = rng.random((40, n)) < rng.random((40, 1))
        rows[0], rows[1] = False, True
        masks = rows.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
        assert cli._SetText(n)(masks) == [", ".join(map(str, np.flatnonzero(row)))
                                          for row in rows], n


def _verdict_fields(verdict):
    return (verdict.is_ramanujan, verdict.second_largest_abs,
            type(verdict.second_largest_abs), verdict.boundary_flag)


def _assert_rows_match_scalar(raw, k, n):
    raw = np.asarray(raw, dtype=float)
    ok, second, boundary = _ramanujan_rows(raw, k, n)
    assert len(second) == len(raw)
    for r, row in enumerate(raw.tolist()):
        want = ramanujan_verdict(group_eigenvalues(row, int(k[r]), n), int(k[r]), connected=True)
        assert (bool(ok[r]), second[r], type(second[r]), bool(boundary[r])) \
            == _verdict_fields(want), (r, row)


@pytest.mark.parametrize("n", [16, 20, 24])
def test_ramanujan_rows_match_scalar_verdict(n):
    """Every connected encoding of Z_n, hits and non-hits alike, gets the
    scalar reference verdict field for field, with the same Python type of
    second_largest_abs."""
    encodings = [s for s in range(1, 1 << (n // 2))
                 if math.gcd(n, *connection_from_encoding(n, s)) == 1]
    ind = np.zeros((len(encodings), n))
    for r, s in enumerate(encodings):
        ind[r, list(connection_from_encoding(n, s))] = 1.0
    raw = np.fft.fft(ind, axis=1).real
    k = ind.sum(axis=1).astype(np.int64)
    ok, _, _ = _ramanujan_rows(raw, k, n)
    assert 0 < ok.sum() < len(ok)
    _assert_rows_match_scalar(raw, k, n)


def test_ramanujan_rows_hand_built():
    """Rows that reach each branch: a cluster averaged from three unsnapped
    values, a value at the boundary, an integer maximum, an all-zero
    nontrivial spectrum (0.0, not 0) and a failing integer."""
    n = 8
    bound3 = 2.0 * math.sqrt(2)
    eps = spectral.tolerance(3, n)
    a, b, c = 1.1, 1.1 + 1.75 * eps, 1.1 + 2 * eps  # gaps below 2 eps
    rows = [
        # one cluster, whose mean depends on the order of the sum and on the
        # division by 3: ((a + b) + c) / 3 != (a + (b + c)) / 3 != (a + b + c) * (1 / 3)
        [3.0, c, a, b, -1.0, -1.0, 0.5, -3.0],
        # boundary: an unsnapped value eps / 2 above 2 sqrt(k - 1)
        [3.0, bound3 + eps / 2, -bound3 - eps / 2, 1.0, 0.25, 0.25, -1.5, -1.0],
        # integer maximum 2 (2 + eps / 2 snaps to it) above unsnapped values
        [3.0, 2.0 + eps / 2, -2.0, 1.75, 0.5, 0.5, -1.0, -1.0],
        # complete bipartite: only k, -k and 0
        [4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -4.0],
        # integer 5 above 2 sqrt(5)
        [6.0, 5.0, 1.0, 1.0, 0.5, -0.5, -1.0, 1.0],
    ]
    k = np.array([3, 3, 3, 4, 6])
    _assert_rows_match_scalar(rows, k, n)
    ok, second, boundary = _ramanujan_rows(np.array(rows), k, n)
    assert ((a + b) + c) / 3 not in ((a + (b + c)) / 3, (a + b + c) * (1.0 / 3))
    assert (((a + b) + c) / 3, 3, False) in group_eigenvalues(rows[0], 3, n).entries
    assert ok.tolist() == [True, True, True, True, False]
    assert boundary.tolist() == [False, True, False, False, False]
    assert second[2] == 2 and type(second[2]) is int
    assert second[3] == 0.0 and type(second[3]) is float


def test_ramanujan_rows_refuse_a_tie(monkeypatch):
    """An integer and a cluster mean of the same |lambda| make the scalar
    reference's answer depend on spectrum order; the verdict refuses it, for
    a chunk of rows and for one spectrum alike.  Such a cluster must
    straddle the snapped band around 2: values less than eps from 2 snap
    and a cluster is cut at gaps above 2 eps, so its values lie exactly eps
    from 2.  eps is patched to 2^-19 here, where 2 - eps and 2 + eps are
    exact and average to 2 exactly."""
    eps = 2.0 ** -19
    monkeypatch.setattr(spectral, "tolerance", lambda k, n: eps)
    row = [5.0, 2.0, -(2.0 - eps), -(2.0 + eps), 0.0, 0.0, 0.0, -1.0]
    scalar = group_eigenvalues(row, 5, 8)
    assert (2, 1, True) in scalar.entries and (-2.0, 2, False) in scalar.entries
    with pytest.raises(ArithmeticError):
        _ramanujan_rows(np.array([row]), np.array([5]), 8)
    for connected in (True, False):
        with pytest.raises(ArithmeticError):
            ramanujan_check(scalar, 5, connected)


def test_budget():
    with pytest.raises(ValueError):
        next(search_ramanujan_circulant(33))
    with pytest.raises(ValueError):
        next(search_ramanujan_circulant(2))


def test_serialization():
    hit = next(iter(search_ramanujan_circulant(5)))
    payload = json.loads(ramanujan_hit_line(hit))
    assert set(payload) == {"C", "boundary_flag", "lambda2_abs", "n", "s"}
    assert isinstance(hit, SearchHit)

"""Exhaustive Ramanujan-circulant search."""

import csv
import io
import json
import math

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    CayleyGraph,
    ConnectionSet,
    SearchHit,
    cyclic,
    ramanujan_check,
    search,
    search_gds,
    search_ramanujan_circulant,
    spectrum_by_characters,
)
from cayleyx.search import CSV_HEADER
from reference import connection_from_encoding, degree_of_encoding


def search_by_rebuilding_graphs(n, min_degree=2):
    """One encoding at a time, each survivor rebuilt as a CayleyGraph and
    certified from spectrum_by_characters: the reference for the batched
    search_ramanujan_circulant."""
    half = n // 2
    group = cyclic(n)
    P = np.zeros((n, half))
    a = np.arange(n)
    for i in range(1, half + 1):
        P[:, i - 1] = (-1.0) ** a if 2 * i == n else 2.0 * np.cos(2.0 * np.pi * a * i / n)
    for s in range(1, 1 << half):
        C = connection_from_encoding(n, s)
        k = len(C)
        if k < min_degree or math.gcd(n, *C) != 1:
            continue
        vals = P[:, [i - 1 for i in range(1, half + 1) if (s >> (i - 1)) & 1]].sum(axis=1)
        mids = np.abs(vals[1:])
        mids = mids[np.abs(mids - k) > 1e-9]
        if mids.size and mids.max() > 2.0 * math.sqrt(k - 1) + 1e-9:
            continue
        graph = CayleyGraph(ConnectionSet(group, np.asarray(C)))
        verdict = ramanujan_check(spectrum_by_characters(graph), k, connected=True)
        if verdict.is_ramanujan:
            yield SearchHit(n=n, encoding=s, C=C, degree=k,
                            second_largest_abs=verdict.second_largest_abs, verdict=verdict)


def _lines(hits):
    return [h.to_json_line() for h in hits]


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


def test_searches_build_no_graph(monkeypatch):
    """Both searches certify from their own batched counts and sums: no
    ConnectionSet, no per-graph character table, no verify_gds call."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-candidate certification route called by a search")

    monkeypatch.setattr(ConnectionSet, "__post_init__", refuse)
    monkeypatch.setattr(AbelianGroup, "character_sum_table", refuse)
    monkeypatch.setattr("cayleyx.groupring.verify_gds", refuse)
    assert sum(1 for _ in search_ramanujan_circulant(16)) > 0
    assert sum(1 for _ in search_gds(10)) > 0


def test_budget():
    with pytest.raises(ValueError):
        next(search_ramanujan_circulant(33))
    with pytest.raises(ValueError):
        next(search_ramanujan_circulant(2))


def test_serialization():
    hit = next(iter(search_ramanujan_circulant(5)))
    payload = json.loads(hit.to_json_line())
    assert set(payload) == {"n", "s", "C", "k", "lambda2_abs", "verdict"}
    buf = io.StringIO()
    rows = csv.writer(buf)
    rows.writerow(CSV_HEADER)
    rows.writerow(hit.csv_row())
    header, row = buf.getvalue().splitlines()
    assert header == "n,s,k,lambda2_abs,ramanujan"
    assert row == f"5,{hit.encoding},{hit.degree},{hit.second_largest_abs},1"
    assert isinstance(hit, SearchHit)

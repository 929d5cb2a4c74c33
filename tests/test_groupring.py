"""Difference counts, GDS certificates, and the exhaustive cyclic search."""

import json
import math
import random

import numpy as np
import pytest

from cayleyx import (
    AbelianGroup,
    GdsCertificate,
    cyclic,
    difference_counts,
    has_multiplier_minus_one,
    search_gds,
    verify_gds,
)
from cayleyx import groupring
from cayleyx.cli import main
from reference import (
    add,
    check_group_ring_identity,
    element,
    gds_certificate,
    gds_full_range_scan,
    gds_hit_line,
    neg,
    verify_difference_set,
)


def hall_polynomial_difference(C, n):
    """Coefficients of c(x) * c(x^(n-1)) mod (x^n - 1) by a double loop: the
    reference for the transform-based difference counts on Z_n."""
    coeffs = [0] * n
    C = sorted(set(c % n for c in C))
    for c1 in C:
        for c2 in C:
            coeffs[(c1 - c2) % n] += 1
    return coeffs


def multiplier_minus_one_by_translates(group, C):
    """Whether -C equals some translate C + t, tried for all n translates."""
    C = {element(group, c) for c in C}
    negC = {neg(group, c) for c in C}
    return any({add(group, c, t) for c in C} == negC for t in group.elements())


def _rotl(mask, g, n):
    return ((mask << g) | (mask >> (n - g))) & ((1 << n) - 1)


def _two_valued_fast(mask, n):
    """Exact difference counts [mu_1, ..., mu_{n-1}] of the bitmask subset if
    they take <= 2 values, else None, with an early exit at a third value."""
    mu, seen = [], set()
    for g in range(1, n):
        mu.append((mask & _rotl(mask, g, n)).bit_count())
        seen.add(mu[-1])
        if len(seen) > 2:
            return None
    return mu


def search_gds_by_masks(n):
    """One Python popcount scan per mask: the reference for the chunked
    search_gds.  Yields (C, certificate) in increasing mask order."""
    group = cyclic(n)
    for mask in range(3, (1 << n) - 1):
        if mask.bit_count() < 2:
            continue
        mu = _two_valued_fast(mask, n)
        if mu is not None:
            cert = gds_certificate(group, [i for i in range(n) if (mask >> i) & 1], mu)
            yield cert.C, cert


def gds_lines(n, hits):
    """hits.jsonl lines as `cayleyx search gds` writes them, each with its
    certificate's S, which the line gives only by its size."""
    return [(gds_hit_line(n, C, cert), cert.S.tolist()) for C, cert in hits]


Z20 = cyclic(20)
SUBGROUP_SET = [(4,), (8,), (12,), (16,)]
SHIFTED_SET = [(2,), (6,), (14,), (18,)]


def test_difference_counts_subgroup_set():
    counts = difference_counts(Z20, SUBGROUP_SET)
    for g, mu in counts.items():
        assert mu == (3 if g in set(SUBGROUP_SET) else 0)


def test_difference_counts_shifted_set():
    counts = difference_counts(Z20, SHIFTED_SET)
    for g, mu in counts.items():
        assert mu == (3 if g in set(SUBGROUP_SET) else 0)


def test_difference_counts_complete_graph_set():
    counts = difference_counts(cyclic(4), [(1,), (2,), (3,)])
    assert set(counts.values()) == {2}


def test_difference_counts_total_and_symmetry():
    g = AbelianGroup([3, 4])
    C = [(0, 1), (1, 2), (2, 3), (0, 3)]
    counts = difference_counts(g, C)
    assert sum(counts.values()) == len(C) ** 2 - len(C)
    for e, mu in counts.items():
        assert counts[neg(g, e)] == mu


def test_verify_gds_canonical_certificate():
    cert = verify_gds(Z20, SUBGROUP_SET)
    assert cert.parameters == (20, 16, 4, 0, 3)
    assert cert.S[0] == 0
    assert cert.S.tolist() == Z20.indices(set(Z20.elements()) - set(SUBGROUP_SET)).tolist()
    assert cert.C.tolist() == [4, 8, 12, 16]
    assert cert.mu1 != cert.mu2  # not a difference set


def test_verify_gds_shifted_same_parameters():
    cert = verify_gds(Z20, SHIFTED_SET)
    assert cert.parameters == (20, 16, 4, 0, 3)


def test_verify_gds_rejects_three_values():
    assert verify_gds(cyclic(12), [(1,), (2,), (10,), (11,)]) is None


def test_verify_gds_degenerate_difference_set():
    cert = verify_gds(cyclic(4), [(1,), (2,), (3,)])
    assert cert.mu1 == cert.mu2  # a difference set
    assert cert.S.tolist() == [0]
    assert cert.parameters == (4, 1, 3, 2, 2)


def test_verify_difference_set():
    assert verify_difference_set(cyclic(7), [(1,), (2,), (4,)]) == (7, 3, 1)
    assert verify_difference_set(Z20, SUBGROUP_SET) is None


def test_group_ring_identity_exact():
    for C in (SUBGROUP_SET, SHIFTED_SET, [(1,), (2,), (3,)]):
        group = Z20 if len(C) == 4 else cyclic(4)
        cert = verify_gds(group, C)
        assert check_group_ring_identity(cert)


def test_group_ring_identity_detects_corruption():
    cert = verify_gds(Z20, SUBGROUP_SET)
    bad = GdsCertificate(
        group=cert.group, C=cert.C, S=cert.S, k=cert.k,
        mu1=cert.mu1, mu2=cert.mu2 + 1,
    )
    assert not check_group_ring_identity(bad)


def test_certificate_json_roundtrip():
    cert = verify_gds(Z20, SUBGROUP_SET)
    back = GdsCertificate.from_json(cert.to_json())
    assert back == cert
    assert hash(back) == hash(cert)
    assert back.to_json() == cert.to_json()
    assert cert.to_json()["S"] == sorted(cert.to_json()["S"])
    assert not cert.C.flags.writeable and not cert.S.flags.writeable


def test_certificate_json_refuses_an_S_without_the_identity():
    obj = verify_gds(Z20, SUBGROUP_SET).to_json()
    obj["S"] = obj["S"][1:]
    with pytest.raises(ValueError, match="must contain the identity"):
        GdsCertificate.from_json(obj)


def test_certificate_json_is_checked_against_verify_gds():
    """from_json refuses a certificate that is not verify_gds's of its C: on
    Z_7, C = {1, 6} has counts 1 at +-2 and 0 elsewhere, so k = 1 with
    S = {0, 1, 6} is refused, as is the true certificate with one field
    moved; a C whose counts take three values has no certificate at all."""
    bad = {"factors": [7], "n": 7, "k": 1, "mu1": 1, "mu2": 0,
           "S": [[0], [1], [6]], "C": [[1], [6]]}
    with pytest.raises(ValueError, match="not verify_gds's"):
        GdsCertificate.from_json(bad)
    good = verify_gds(cyclic(7), [(1,), (6,)]).to_json()
    assert (good["k"], good["mu1"], good["mu2"], good["S"]) == (2, 0, 1, [[0], [1], [3], [4], [6]])
    assert GdsCertificate.from_json(good).to_json() == good
    for key, value in (("k", 3), ("mu1", 1), ("mu2", 2), ("S", [[0], [1], [3], [4]])):
        with pytest.raises(ValueError, match="not verify_gds's"):
            GdsCertificate.from_json({**good, key: value})
    assert verify_gds(cyclic(7), [(1,), (2,), (3,)]) is None  # counts 2, 1, 0, 0, 1, 2
    with pytest.raises(ValueError, match="not verify_gds's"):
        GdsCertificate.from_json({**good, "k": 3, "C": [[1], [2], [3]]})


def test_translation_invariance():
    rng = random.Random(7)
    for n in (9, 12, 15):
        group = cyclic(n)
        for _ in range(10):
            C = [(c,) for c in rng.sample(range(n), 4)]
            cert = verify_gds(group, C)
            for t in range(n):
                shifted = [add(group, c, (t,)) for c in C]
                cert_t = verify_gds(group, shifted)
                if cert is None:
                    assert cert_t is None
                else:
                    assert cert_t is not None
                    assert (cert_t.k, cert_t.mu1, cert_t.mu2) == (cert.k, cert.mu1, cert.mu2)


def test_negation_invariance():
    counts = difference_counts(Z20, SUBGROUP_SET)
    negated = difference_counts(Z20, [neg(Z20, c) for c in SUBGROUP_SET])
    assert counts == negated


def test_hall_polynomial_oracle():
    rng = random.Random(11)
    for n in (7, 16, 23, 30):
        group = cyclic(n)
        for _ in range(20):
            k = rng.randrange(2, n)
            C = rng.sample(range(n), k)
            coeffs = hall_polynomial_difference(C, n)
            counts = difference_counts(group, [(c,) for c in C])
            assert coeffs[0] == len(C)
            for g in range(1, n):
                assert coeffs[g] == counts[(g,)]


def test_multiplier_minus_one():
    assert has_multiplier_minus_one(Z20, [(c,) for c in (1, 3, 4, 7, 8, 9, 11, 12, 13, 16, 17, 19)])
    assert has_multiplier_minus_one(Z20, SUBGROUP_SET)  # symmetric, t=0
    assert not has_multiplier_minus_one(cyclic(7), [(1,), (2,), (4,)])


def test_multiplier_minus_one_matches_translates():
    rng = random.Random(5)
    seen = set()
    for factors in ([20], [9], [4, 6], [2, 2, 2, 2], [3, 3]):
        group = AbelianGroup(factors)
        elems = group.elements()
        for _ in range(30):
            C = rng.sample(elems, rng.randrange(1, group.order))
            # a translate of a symmetric set always has the multiplier
            t = rng.choice(elems)
            D = [add(group, c, t) for c in set(C) | {neg(group, c) for c in C}]
            for S in (C, D):
                want = multiplier_minus_one_by_translates(group, S)
                assert has_multiplier_minus_one(group, S) == want
                seen.add(want)
    assert seen == {True, False}


def test_search_small_n():
    hits4 = {tuple(C.tolist()) for C, _ in search_gds(4)}
    assert (1, 2, 3) in hits4
    hits7 = {tuple(C.tolist()): cert for C, cert in search_gds(7)}
    assert (1, 2, 4) in hits7


def test_search_emits_all_certified_subsets_in_order():
    last = -1
    for C, cert in search_gds(8):
        mask = sum(1 << c for c in C.tolist())
        assert mask > last
        last = mask
        assert check_group_ring_identity(cert)


def test_search_certificates_match_fft_route():
    """The search builds certificates from its popcounts; verify_gds (FFT
    counts) is the reference."""
    hits = 0
    for n in range(2, 13):
        for C, cert in search_gds(n):
            assert cert == verify_gds(cyclic(n), [(c,) for c in C.tolist()])
            assert C is cert.C
            hits += 1
    assert hits > 1000


def test_search_matches_mask_by_mask_scan():
    for n in range(2, 15):
        assert gds_lines(n, search_gds(n)) == gds_lines(n, search_gds_by_masks(n)), n


def test_search_hits_straddle_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(groupring, "SCAN_CHUNK", 7)
    monkeypatch.setattr(groupring, "HIT_CHUNK", 7)
    assert gds_lines(11, search_gds(11)) == gds_lines(11, search_gds_by_masks(11))


@pytest.mark.parametrize("n, chunk", [(15, None), (16, None), (17, None), (18, None),
                                      (11, 7), (12, 7)])
def test_orbit_scan_matches_full_range_scan(n, chunk, monkeypatch):
    """The masks and count rows of the orbit scan equal those of the scan of
    every mask, above the sizes the mask-by-mask reference reaches, and
    come in slices of at most HIT_CHUNK hits."""
    if chunk:
        monkeypatch.setattr(groupring, "SCAN_CHUNK", chunk)
    slices = list(groupring._chunks(n))
    assert all(0 < len(masks) <= groupring.HIT_CHUNK for masks, _ in slices)
    masks, counts = gds_full_range_scan(n)
    assert np.array_equal(np.concatenate([m for m, _ in slices]), masks)
    assert np.array_equal(np.concatenate([c for _, c in slices]), counts)


@pytest.mark.parametrize("n, chunk", [(2, None), (3, None), (4, None), (11, 7), (18, None)])
def test_scan_visits_run_start_masks_of_at_most_half(n, chunk, monkeypatch):
    """The two-value kernel sees each mask with bit 0 set, bit n-1 clear and
    2 to n // 2 bits set, once, and no other mask."""
    if chunk:
        monkeypatch.setattr(groupring, "SCAN_CHUNK", chunk)
    scanned, kernel = [], groupring._two_valued

    def record(masks, n):
        scanned.append(masks.copy())
        return kernel(masks, n)

    monkeypatch.setattr(groupring, "_two_valued", record)
    for _ in groupring._chunks(n):
        pass
    masks = np.concatenate(scanned)
    k = np.bitwise_count(masks)
    assert (masks & 1).all() and not (masks >> np.uint64(n - 1) & 1).any()
    assert ((2 <= k) & (k <= n // 2)).all()
    assert np.unique(masks).size == masks.size
    assert masks.size == sum(math.comb(n - 2, k - 1) for k in range(2, n // 2 + 1))


def test_search_budget():
    with pytest.raises(ValueError):
        next(search_gds(25))


@pytest.mark.parametrize("check", [verify_gds, difference_counts, has_multiplier_minus_one])
def test_elements_that_coincide_after_reduction_are_refused(check):
    """(9,) is (1,) in Z_8: the set lists three elements but holds two, so
    it is refused instead of certified with k = 2."""
    with pytest.raises(ValueError, match=r"element \(9,\) coincides with an earlier element"):
        check(cyclic(8), [(1,), (9,), (3,)])


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        difference_counts(Z20, [])
    with pytest.raises(ValueError):
        verify_gds(Z20, [])
    with pytest.raises(ValueError):
        has_multiplier_minus_one(Z20, [])


def test_every_gds_certificate_goes_through_the_one_presentation(monkeypatch, tmp_path):
    """No second GDS presentation: verify_gds, the ``gds`` block of
    ``cayleyx analyze`` and ``cayleyx search gds`` all reach
    ``groupring._presentation``."""
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"factors": [20], "connection_set": [[1], [19]]}))
    monkeypatch.setattr(groupring, "_presentation", reached)
    for call in (lambda: verify_gds(Z20, SUBGROUP_SET),
                 lambda: main(["analyze", str(path), "--out", str(tmp_path / "a")]),
                 lambda: main(["search", "gds", "--n", "6", "--out", str(tmp_path / "s")])):
        with pytest.raises(Reached):
            call()

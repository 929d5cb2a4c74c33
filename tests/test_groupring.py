"""Difference counts, GDS certificates, and the exhaustive cyclic search."""

import random

import pytest

from cayleyx import (
    AbelianGroup,
    GdsCertificate,
    cyclic,
    difference_counts,
    has_multiplier_minus_one,
    search_gds,
    verify_difference_set,
    verify_gds,
)
from cayleyx.groupring import check_group_ring_identity


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
    C = {group.element(c) for c in C}
    negC = {group.neg(c) for c in C}
    return any({group.add(c, t) for c in C} == negC for t in group.elements())

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
        assert counts[g.neg(e)] == mu


def test_verify_gds_canonical_certificate():
    cert = verify_gds(Z20, SUBGROUP_SET)
    assert cert.parameters == (20, 16, 4, 0, 3)
    assert cert.identity_in_S and (0,) in cert.S
    assert cert.S == frozenset(Z20.elements()) - frozenset(SUBGROUP_SET)
    assert not cert.is_difference_set()


def test_verify_gds_shifted_same_parameters():
    cert = verify_gds(Z20, SHIFTED_SET)
    assert cert.parameters == (20, 16, 4, 0, 3)


def test_verify_gds_rejects_three_values():
    assert verify_gds(cyclic(12), [(1,), (2,), (10,), (11,)]) is None


def test_verify_gds_degenerate_difference_set():
    cert = verify_gds(cyclic(4), [(1,), (2,), (3,)])
    assert cert.is_difference_set()
    assert cert.S == frozenset({(0,)})
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
        mu1=cert.mu1, mu2=cert.mu2 + 1, identity_in_S=cert.identity_in_S,
    )
    assert not check_group_ring_identity(bad)


def test_certificate_json_roundtrip():
    cert = verify_gds(Z20, SUBGROUP_SET)
    back = GdsCertificate.from_json(cert.to_json())
    assert back == cert


def test_translation_invariance():
    rng = random.Random(7)
    for n in (9, 12, 15):
        group = cyclic(n)
        for _ in range(10):
            C = [(c,) for c in rng.sample(range(n), 4)]
            cert = verify_gds(group, C)
            for t in range(n):
                shifted = [group.add(c, (t,)) for c in C]
                cert_t = verify_gds(group, shifted)
                if cert is None:
                    assert cert_t is None
                else:
                    assert cert_t is not None
                    assert (cert_t.k, cert_t.mu1, cert_t.mu2) == (cert.k, cert.mu1, cert.mu2)


def test_negation_invariance():
    counts = difference_counts(Z20, SUBGROUP_SET)
    neg = difference_counts(Z20, [Z20.neg(c) for c in SUBGROUP_SET])
    assert counts == neg


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
            D = [group.add(c, t) for c in set(C) | {group.neg(c) for c in C}]
            for S in (C, D):
                want = multiplier_minus_one_by_translates(group, S)
                assert has_multiplier_minus_one(group, S) == want
                seen.add(want)
    assert seen == {True, False}


def test_search_small_n():
    hits4 = {tuple(sorted(c[0] for c in C)) for C, _ in search_gds(4)}
    assert (1, 2, 3) in hits4
    hits7 = {tuple(sorted(c[0] for c in C)): cert for C, cert in search_gds(7)}
    assert (1, 2, 4) in hits7


def test_search_emits_all_certified_subsets_in_order():
    last = -1
    for C, cert in search_gds(8):
        mask = sum(1 << c[0] for c in C)
        assert mask > last
        last = mask
        assert check_group_ring_identity(cert)


def test_search_certificates_match_fft_route():
    """The search builds certificates from its popcounts; verify_gds (FFT
    counts) is the reference."""
    hits = 0
    for n in range(2, 13):
        for C, cert in search_gds(n):
            assert cert == verify_gds(cyclic(n), C)
            assert C == cert.C
            hits += 1
    assert hits > 1000


def test_search_budget():
    with pytest.raises(ValueError):
        next(search_gds(25))


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        difference_counts(Z20, [])
    with pytest.raises(ValueError):
        verify_gds(Z20, [])
    with pytest.raises(ValueError):
        has_multiplier_minus_one(Z20, [])

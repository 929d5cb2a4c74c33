"""GF(2^m) arithmetic, field towers, and Kloosterman sums."""

import math

import pytest

from cayleyx import (
    Gf2Field,
    KloostermanTable,
    kloosterman,
    kloosterman_lifted,
    kloosterman_one_carlitz,
    kloosterman_one_recursive,
    kloosterman_value_set,
)
from cayleyx.gf2 import embed_subfield, is_irreducible, kloosterman_pair, smallest_irreducible

# k_m(1) for m = 1..10, frozen from three mutually independent evaluations
K1 = {1: 1, 2: 3, 3: -5, 4: -1, 5: 11, 6: -9, 7: -13, 8: 31, 9: -5, 10: -57}


def test_smallest_irreducible_known_values():
    assert smallest_irreducible(2) == 0b111          # x^2+x+1
    assert smallest_irreducible(3) == 0b1011         # x^3+x+1
    assert smallest_irreducible(4) == 0b10011        # x^4+x+1
    assert smallest_irreducible(8) == 0b100011011    # x^8+x^4+x^3+x+1


def test_is_irreducible_rejects_reducible():
    assert not is_irreducible(0b110, 2)   # x^2+x = x(x+1)
    assert not is_irreducible(0b10101, 4)  # (x^2+x+1)^2
    assert is_irreducible(0b11111, 4)      # 5th cyclotomic polynomial
    assert is_irreducible(0b111, 2)


def test_field_axioms_small():
    f = Gf2Field(4)
    for a in range(16):
        for b in range(16):
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == a ^ b
        if a:
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_and_fermat():
    f = Gf2Field(5)
    for a in range(1, 32):
        assert f.pow(a, f.order - 1) == 1
        assert f.pow(a, -1) == f.inv(a)


def test_frobenius_is_automorphism():
    for m in range(1, 7):
        f = Gf2Field(m)
        for a in range(f.order):
            for b in range(f.order):
                assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(a, m) == a  # order-m automorphism


def test_trace_matches_power_sum_definition():
    for m in range(1, 9):
        f = Gf2Field(m)
        for e in range(f.order):
            t, x = 0, e
            for _ in range(m):
                t ^= x
                x = f.mul(x, x)
            assert f.trace(e) == t


def test_trace_signs_table():
    f = Gf2Field(6)
    signs = f.trace_signs()
    for e in range(f.order):
        assert signs[e] == 1 - 2 * f.trace(e)


def test_subfield_membership_and_trace():
    f = Gf2Field(6)
    sub = [e for e in range(f.order) if f.in_subfield(e)]
    assert len(sub) == 8  # GF(8) inside GF(64)
    g3 = Gf2Field(3)
    emb = embed_subfield(g3, f)
    assert sorted(emb) == sorted(sub)
    for e in range(g3.order):
        assert f.subfield_trace(emb[e]) == g3.trace(e)
    with pytest.raises(ValueError):
        Gf2Field(3).in_subfield(1)


def test_polar_decomposition():
    for m in (2, 4, 6):
        f = Gf2Field(m)
        h = m // 2
        seen = set()
        for x in range(1, f.order):
            y, z = f.polar_decompose(x)
            assert f.mul(y, z) == x
            assert f.in_subfield(y) and y != 0
            assert f.pow(z, (1 << h) + 1) == 1
            seen.add((y, z))
        # the decomposition is a bijection onto (subfield*) x (norm-1 circle)
        assert len(seen) == f.order - 1
    with pytest.raises(ZeroDivisionError):
        Gf2Field(2).polar_decompose(0)


def test_kloosterman_three_routes_agree():
    for m in range(1, 13):
        direct = kloosterman(m, 1)
        assert direct == kloosterman_one_recursive(m) == kloosterman_one_carlitz(m)
        if m <= 10:
            assert direct == K1[m]


def test_kloosterman_seeds():
    assert kloosterman_one_recursive(1) == 1
    assert kloosterman_one_recursive(2) == 3


def test_kloosterman_matches_naive_sum():
    for m in range(1, 6):
        f = Gf2Field(m)
        for a in range(f.order):
            naive = sum(
                1 - 2 * f.trace(f.mul(a, x) ^ f.inv(x)) for x in range(1, f.order)
            )
            assert kloosterman(m, a, f) == naive


def test_weil_bound():
    for m in range(1, 11):
        table = KloostermanTable.compute(m)
        bound = 2 * math.sqrt(1 << m)
        assert all(abs(v) <= bound for v in table.values.values())


def test_two_parameter_sum_reduces_to_product():
    for m in range(1, 5):
        f = Gf2Field(m)
        for a in range(1, f.order):
            for b in range(1, f.order):
                assert kloosterman_pair(m, a, b, f) == kloosterman(m, f.mul(a, b), f)


def test_value_set_congruence():
    # every value is -1 mod 4 once m >= 2 (fails at m=1 where k_1(1)=1)
    for m in range(2, 9):
        assert all(v % 4 == 3 for v in kloosterman_value_set(m))
    assert kloosterman(1, 1) % 4 != 3


def test_lifted_recursion_matches_extension_field():
    # the lift of k_m over the degree-s extension equals the sum computed
    # directly in GF(2^(m*s)) at the embedded argument
    for m, s in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4)):
        sub, big = Gf2Field(m), Gf2Field(m * s)
        emb = embed_subfield(sub, big)
        for a in range(1, sub.order):
            assert kloosterman_lifted(m, s, a, sub) == kloosterman(m * s, emb[a], big)
    assert kloosterman_lifted(3, 0, 1) == -2
    assert kloosterman_lifted(3, 1, 1) == kloosterman(3, 1)


def test_budget_errors():
    with pytest.raises(ValueError):
        Gf2Field(25)
    with pytest.raises(ValueError):
        KloostermanTable.compute(13)
    with pytest.raises(ValueError):
        kloosterman_value_set(1)


def test_custom_modulus():
    # x^4 + x^3 + 1 is the other degree-4 irreducible trinomial
    f = Gf2Field(4, modulus=0b11001)
    assert f.mul(2, f.inv(2)) == 1
    with pytest.raises(ValueError):
        Gf2Field(4, modulus=0b10101)  # (x^2+x+1)^2
    # Kloosterman sums are basis-independent
    assert kloosterman(4, 1, f) == K1[4]
    assert sorted(kloosterman(4, a, f) for a in range(16)) == sorted(
        kloosterman(4, a) for a in range(16)
    )

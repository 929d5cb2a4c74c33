"""GF(2^m) arithmetic, field towers, and Kloosterman sums."""

import math

import numpy as np
import pytest

from cayleyx import Gf2Field, KloostermanTable, kloosterman_value_set
from cayleyx.gf2 import _sign_tables, is_irreducible, smallest_irreducible
from reference import (
    embed_subfield,
    frobenius,
    in_subfield,
    kloosterman,
    kloosterman_lifted,
    kloosterman_one_carlitz,
    kloosterman_one_recursive,
    kloosterman_pair,
    polar_decompose,
    subfield_trace,
    trace_by_squaring,
)

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
                assert frobenius(f, f.mul(a, b)) == f.mul(frobenius(f, a), frobenius(f, b))
            assert frobenius(f, a, m) == a  # order-m automorphism


def test_trace_matches_power_sum_definition():
    for m in range(1, 9):
        f = Gf2Field(m)
        for e in range(f.order):
            assert f.trace(e) == trace_by_squaring(f, e)


@pytest.mark.parametrize("fields", [
    lambda: [Gf2Field(m) for m in range(1, 25)],
    lambda: [Gf2Field(m, c) for m in range(2, 11) for c in range(1 << m, 1 << (m + 1))
             if is_irreducible(c, m)],
], ids=["default-modulus-m-1-to-24", "every-irreducible-modulus-m-2-to-10"])
def test_trace_mask_by_newton_is_the_trace_by_squaring(fields):
    """Bit i of the trace mask, read off the modulus by Newton's identities,
    is Tr(x^i) as a sum of squarings: at the default modulus of every
    m <= 24, and at all 224 irreducible moduli of degree 2 to 10."""
    fields = fields()
    assert len(fields) in (24, 224)
    for f in fields:
        assert f._trace_mask == sum(trace_by_squaring(f, 1 << i) << i for i in range(f.m)), f


def test_trace_signs_table():
    f = Gf2Field(6)
    signs = f.trace_signs()
    for e in range(f.order):
        assert signs[e] == 1 - 2 * f.trace(e)


def test_subfield_membership_and_trace():
    f = Gf2Field(6)
    sub = [e for e in range(f.order) if in_subfield(f, e)]
    assert len(sub) == 8  # GF(8) inside GF(64)
    g3 = Gf2Field(3)
    emb = embed_subfield(g3, f)
    assert sorted(emb) == sorted(sub)
    for e in range(g3.order):
        assert subfield_trace(f, emb[e]) == g3.trace(e)
    with pytest.raises(ValueError):
        in_subfield(Gf2Field(3), 1)


def test_polar_decomposition():
    for m in (2, 4, 6):
        f = Gf2Field(m)
        h = m // 2
        seen = set()
        for x in range(1, f.order):
            y, z = polar_decompose(f, x)
            assert f.mul(y, z) == x
            assert in_subfield(f, y) and y != 0
            assert f.pow(z, (1 << h) + 1) == 1
            seen.add((y, z))
        # the decomposition is a bijection onto (subfield*) x (norm-1 circle)
        assert len(seen) == f.order - 1
    with pytest.raises(ZeroDivisionError):
        polar_decompose(Gf2Field(2), 0)


@pytest.mark.parametrize("m, modulus", [(m, None) for m in range(1, 12)] + [(8, 0x11D)])
def test_inverse_signs_match_the_scalar_trace(m, modulus):
    """The inverse signs, read from 1/exp[i] = exp[-i], are (-1)^Tr(1/x) at
    every x != 0 (q - 1 is prime at m = 2, 3, 5, 7), and 0 at x = 0."""
    f = Gf2Field(m, modulus)
    signs, inv_signs = _sign_tables(f)
    assert signs.tolist() == [1 - 2 * f.trace(x) for x in range(f.order)]
    assert inv_signs.tolist() == [0] + [1 - 2 * f.trace(f.inv(x)) for x in range(1, f.order)]


def test_kloosterman_three_routes_agree():
    """k_m(1) of the table equals the direct sum, the recursion and the
    Carlitz form."""
    for m in range(1, 13):
        direct = kloosterman(m, 1)
        assert KloostermanTable.compute(m)[1] == direct
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
        assert len(table.values) == 1 << m
        assert all(abs(v) <= bound for v in table.values.tolist())


def test_table_matches_direct_sums():
    """The one-transform table against the direct exponent-table sum, pointwise."""
    for m in (3, 6, 10):
        f = Gf2Field(m)
        table = KloostermanTable.compute(m)
        assert len(table.values) == f.order
        assert all(table[a] == kloosterman(m, a, f) for a in range(f.order))
    f = Gf2Field(16)
    table = KloostermanTable.compute(16)
    sample = np.random.default_rng(16).choice(f.order, 64, replace=False).tolist()
    assert all(table[a] == kloosterman(16, a, f) for a in [0, 1] + sample)


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
    # directly in GF(2^(m*s)) at the embedded argument, and so does the
    # table of GF(2^(m*s))
    for m, s in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (2, 4)):
        sub, big = Gf2Field(m), Gf2Field(m * s)
        emb = embed_subfield(sub, big)
        table = KloostermanTable.compute(m * s)
        for a in range(1, sub.order):
            assert kloosterman_lifted(m, s, a, sub) == kloosterman(m * s, emb[a], big)
            assert table[emb[a]] == kloosterman(m * s, emb[a], big)
    assert kloosterman_lifted(3, 0, 1) == -2
    assert kloosterman_lifted(3, 1, 1) == kloosterman(3, 1)


def test_budget_errors():
    with pytest.raises(ValueError):
        Gf2Field(25)
    with pytest.raises(ValueError):
        KloostermanTable.compute(25)
    with pytest.raises(ValueError):
        kloosterman_value_set(1)
    with pytest.raises(ValueError):
        kloosterman_value_set(25)


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

"""Closed-form families: spectra known from the literature, computed here with
integers and ``math`` only, against the package's certification.

* Paley graphs Cay(Z_p, squares) for primes p = 1 (mod 4): the degree
  (p - 1)/2 once and (-1 +- sqrt p)/2 each (p - 1)/2 times, and Ramanujan.
* Hamming graphs H(d, q) = Cay(Z_q^d, {a e_i : a != 0}): the eigenvalue
  (q - 1)d - qi with multiplicity C(d, i)(q - 1)^i for i = 0..d, every one
  an exact integer, and diameter d.

Nothing here reads the package's tolerances or its grouping rules.
"""

import math

import numpy as np
import pytest

from cayleyx import AbelianGroup, CayleyGraph, ConnectionSet, certify, cyclic


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


PALEY_PRIMES = [p for p in _primes_below(1000) if p % 4 == 1] + [65537]
HAMMING = [(2, 10), (3, 6), (4, 5), (5, 4), (3, 9), (7, 3)]  # (q, d)


def test_paley_spectra():
    for p in PALEY_PRIMES:
        squares = sorted({x * x % p for x in range(1, p)})
        report = certify(CayleyGraph(ConnectionSet(cyclic(p), np.array(squares))))
        half = (p - 1) // 2
        (top, m0, e0), (plus, m1, _), (minus, m2, _) = report.spectrum.entries
        assert (top, m0, e0) == (half, 1, True), p
        assert abs(plus - (-1 + math.sqrt(p)) / 2) <= 1e-9 and m1 == half, p
        assert abs(minus - (-1 - math.sqrt(p)) / 2) <= 1e-9 and m2 == half, p
        assert report.verdict.is_ramanujan, p


@pytest.mark.parametrize("q, d", HAMMING)
def test_hamming_spectra(q, d):
    group = AbelianGroup([q] * d)
    C = [tuple(a if j == i else 0 for j in range(d)) for i in range(d) for a in range(1, q)]
    report = certify(CayleyGraph.build(group, C))
    want = tuple(((q - 1) * d - q * i, math.comb(d, i) * (q - 1) ** i, True)
                 for i in range(d + 1))
    assert report.spectrum.entries == want
    assert all(type(v) is int for v, _, _ in report.spectrum.entries)
    assert report.stats.component_count == 1 and report.stats.diameter == d

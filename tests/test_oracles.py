"""Closed-form families: spectra known from the literature, computed here with
integers and ``math`` only, against the package's certification.

* Paley graphs Cay(Z_p, squares) for primes p = 1 (mod 4): the degree
  (p - 1)/2 once and (-1 +- sqrt p)/2 each (p - 1)/2 times, and Ramanujan.
* Hamming graphs H(d, q) = Cay(Z_q^d, {a e_i : a != 0}): the eigenvalue
  (q - 1)d - qi with multiplicity C(d, i)(q - 1)^i for i = 0..d, every one
  an exact integer, and diameter d.
* Cycles Cay(Z_n, {+-1}): 2cos(2 pi a/n) for a = 0..n/2, twice for
  0 < a < n/2, an exact integer where 12a/n is an integer j with
  gcd(j, 12) > 1, and the largest |lambda| other than 2 and -2 is
  2cos(2 pi/n) for even n, 2cos(pi/n) for odd n.  They go through the
  spectrum and the verdict only, not ``certify``, whose frontier search
  takes n/2 transforms.

Nothing here reads the package's grouping rules; the cycles' irrational
values are compared within its stated error bound, ``spectral.tolerance``.
"""

import math

import numpy as np
import pytest

from cayleyx import AbelianGroup, CayleyGraph, ConnectionSet, certify, cyclic
from cayleyx.spectral import ramanujan_check, spectrum_by_characters, tolerance


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


PALEY_PRIMES = [p for p in _primes_below(1000) if p % 4 == 1] + [65537]
HAMMING = [(2, 10), (3, 6), (4, 5), (5, 4), (3, 9), (7, 3)]  # (q, d)
CYCLES = list(range(3, 401)) + [4096, 8192, 10000]
_TWICE_COS = {0: 2, 2: 1, 3: 0, 4: -1, 6: -2}  # 2cos(2 pi j/12) at the integer ones, j <= 6


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


def test_cycle_spectra():
    for n in CYCLES:
        eps = tolerance(2, n)
        graph = CayleyGraph(ConnectionSet(cyclic(n), np.array([1, n - 1])))
        spec = spectrum_by_characters(graph)
        assert len(spec.entries) == n // 2 + 1, n
        for a, (v, m, exact) in enumerate(spec.entries):
            j, r = divmod(12 * a, n)
            want = _TWICE_COS[j] if r == 0 and math.gcd(j, 12) > 1 else None
            assert m == (1 if a in (0, n / 2) else 2), (n, a)
            if want is None:
                assert not exact and abs(v - 2 * math.cos(2 * math.pi * a / n)) <= eps, (n, a)
            else:
                assert exact and v == want and type(v) is int, (n, a)
        verdict = ramanujan_check(spec, 2, connected=True)
        second = 2 * math.cos((2 if n % 2 == 0 else 1) * math.pi / n)
        assert verdict.is_ramanujan and abs(verdict.second_largest_abs - second) <= eps, n

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
* Unitary Cayley graphs Cay(Z_n, Z_n^*): the Ramanujan sum
  c_n(r) = mu(n/g) phi(n)/phi(n/g), g = gcd(r, n), for each r in Z_n
  (Klotz and Sander, Electron. J. Combin. 14, 2007), every one an exact
  integer, and the Ramanujan decision on them made in integers.

Nothing here reads the package's grouping rules; the cycles' irrational
values are compared within its stated error bound, ``spectral.tolerance``.
"""

import functools
import math
from collections import Counter

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
UNITARY = list(range(3, 201)) + [65520]  # 65520 = 2^4 3^2 5 7 13
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


def _factor(n):
    """{p: e} with n = prod p^e, by trial division."""
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p], n = factors.get(p, 0) + 1, n // p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _phi(n):
    return math.prod((p - 1) * p ** (e - 1) for p, e in _factor(n).items())


def _mobius(n):
    factors = _factor(n)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


@functools.cache
def _ramanujan_sum(n, g):
    """c_n(r) for every r with gcd(r, n) = g."""
    return _mobius(n // g) * _phi(n) // _phi(n // g)


def test_unitary_cayley_spectra():
    for n in UNITARY:
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        k = len(units)
        want = Counter(_ramanujan_sum(n, math.gcd(r, n)) for r in range(n))
        spec = spectrum_by_characters(CayleyGraph(ConnectionSet(cyclic(n), np.array(units))))
        want_entries = tuple((v, m, True) for v, m in sorted(want.items(), reverse=True))
        assert spec.entries == want_entries, n
        assert all(type(v) is int for v, _, _ in spec.entries), n
        counted = [abs(v) for v in want if abs(v) != k]  # +-k exempt
        second = max([0.0] + counted)  # 0.0 when no |lambda| above 0 is counted
        verdict = ramanujan_check(spec, k, connected=True)  # 1 is a unit
        assert verdict.is_ramanujan == all(v * v <= 4 * (k - 1) for v in counted), n
        assert (verdict.second_largest_abs, type(verdict.second_largest_abs)) \
            == (second, type(second)), n
        assert not verdict.boundary_flag, n

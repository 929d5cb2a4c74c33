"""Exhaustive search for Ramanujan circulants over symmetric subsets of Z_n.

Encodings: bit i-1 of s selects the symmetric pair {i, n-i}, for
i = 1..floor(n/2); when n is even the midpoint n/2 pairs with itself and
contributes a single element.  The identity index 0 is never selectable.
Connectivity is checked before the eigenvalue bound (the definition of a
Ramanujan graph requires it), and every emitted hit carries the full
spectrum-based certificate.  Encodings are handled in chunks, as rows of
arrays: the filters are array operations and the survivors' spectra come
from one FFT per chunk, so no graph object is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .spectral import RamanujanVerdict, _group_eigenvalues, ramanujan_check

__all__ = ["SearchHit", "search_ramanujan_circulant"]

MAX_N = 32
CSV_HEADER = ("n", "s", "k", "lambda2_abs", "ramanujan")  # one SearchHit.csv_row each
# Encodings per batch.  Each survivor's n character sums become Python
# floats for the certificate; small chunks keep those lists, and the peak
# RSS, small.
SCAN_CHUNK = 1 << 8


@dataclass(frozen=True)
class SearchHit:
    n: int
    encoding: int
    C: tuple
    degree: int
    second_largest_abs: float
    verdict: RamanujanVerdict

    def to_json(self):
        return {
            "n": self.n,
            "s": self.encoding,
            "C": list(self.C),
            "k": self.degree,
            "lambda2_abs": self.second_largest_abs,
            "verdict": self.verdict.to_json(),
        }

    def to_json_line(self):
        return json.dumps(self.to_json(), sort_keys=True)

    def csv_row(self):
        return [self.n, self.encoding, self.degree, self.second_largest_abs,
                int(self.verdict.is_ramanujan)]


def search_ramanujan_circulant(n, min_degree=2):
    """Yield SearchHit for every encoding whose circulant certifies Ramanujan,
    in increasing encoding order.

    Encodings are scanned in chunks of ``SCAN_CHUNK`` as the rows of a bit
    matrix B (column i-1 selects pair i).  Degree, connectivity (gcd of n and
    the selected residues) and the eigenvalue pre-filter (B @ P.T, P[a, i-1]
    the contribution of pair i to character a) are array operations; the
    survivors' character sums come from one row-wise FFT of their indicator
    rows, and each survivor is certified by :func:`ramanujan_check` on its
    snapped spectrum.
    """
    if not 3 <= n <= MAX_N:
        raise ValueError(f"n must be in [3, {MAX_N}], got {n}")
    half = n // 2
    pairs = np.arange(1, half + 1)
    a = np.arange(n)[:, None]
    P = np.where(2 * pairs == n, (-1.0) ** a, 2.0 * np.cos(2.0 * np.pi * a * pairs / n))
    weight = np.where(2 * pairs == n, 1, 2)  # elements per pair
    bound_tol = 1e-9
    for start in range(1, 1 << half, SCAN_CHUNK):
        s = np.arange(start, min(start + SCAN_CHUNK, 1 << half))
        B = (s[:, None] >> (pairs - 1)) & 1
        k = B @ weight
        # a proper subgroup is generated (disconnected) iff gcd(n, C) > 1
        keep = (k >= min_degree) & (np.gcd(np.gcd.reduce(B * pairs, axis=1), n) == 1)
        s, B, k = s[keep], B[keep], k[keep]
        mids = np.abs(B @ P[1:].T)
        mids[np.abs(mids - k[:, None]) <= 1e-9] = 0.0  # +-k is exempt
        keep = mids.max(axis=1) <= 2.0 * np.sqrt(k - 1) + bound_tol
        s, B, k = s[keep], B[keep], k[keep]
        # survivors: the exact snapped-spectrum certificate (connected by
        # the gcd test above); the real parts of row r of ``sums`` are the
        # chi_a(C) of encoding s[r]
        ind = np.zeros((s.size, n))
        ind[:, pairs] = ind[:, n - pairs] = B
        sums = np.fft.fft(ind, axis=1)
        if (np.abs(sums.imag).max(axis=1) > 1e-9 * k).any():  # k >= 1
            raise ArithmeticError("character sums of a symmetric set must be real")
        for enc, deg, row, mask in zip(s.tolist(), k.tolist(), sums.real.tolist(), ind):
            verdict = ramanujan_check(_group_eigenvalues(row, n), deg, connected=True)
            if verdict.is_ramanujan:
                yield SearchHit(
                    n=n,
                    encoding=enc,
                    C=tuple(np.flatnonzero(mask).tolist()),
                    degree=deg,
                    second_largest_abs=verdict.second_largest_abs,
                    verdict=verdict,
                )

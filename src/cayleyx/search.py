"""Exhaustive search for Ramanujan circulants over symmetric subsets of Z_n.

Encodings: bit i-1 of s selects the symmetric pair {i, n-i}, for
i = 1..floor(n/2); when n is even the midpoint n/2 pairs with itself and
contributes a single element.  The identity index 0 is never selectable.
Connectivity is checked before the eigenvalue bound (the definition of a
Ramanujan graph requires it), and every emitted hit carries the full
spectrum-based certificate.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import CayleyGraph, ConnectionSet
from .groups import cyclic
from .spectral import RamanujanVerdict, ramanujan_check, spectrum_by_characters

__all__ = ["SearchHit", "search_ramanujan_circulant", "degree_of_encoding",
           "connection_from_encoding"]

MAX_N = 32


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


def _pair_count(n):
    return n // 2


def connection_from_encoding(n, s):
    """The symmetric subset selected by the encoding bits."""
    C = set()
    for i in range(1, _pair_count(n) + 1):
        if (s >> (i - 1)) & 1:
            C.add(i)
            C.add(n - i)
    return tuple(sorted(C))


def degree_of_encoding(n, s):
    deg = 0
    for i in range(1, _pair_count(n) + 1):
        if (s >> (i - 1)) & 1:
            deg += 1 if 2 * i == n else 2
    return deg


def search_ramanujan_circulant(n, min_degree=2):
    """Yield SearchHit for every encoding whose circulant certifies Ramanujan,
    in increasing encoding order."""
    if not 3 <= n <= MAX_N:
        raise ValueError(f"n must be in [3, {MAX_N}], got {n}")
    half = _pair_count(n)
    group = cyclic(n)
    # eigenvalue contribution of pair i at character a
    P = np.zeros((n, half))
    a = np.arange(n)
    for i in range(1, half + 1):
        if 2 * i == n:
            P[:, i - 1] = (-1.0) ** a
        else:
            P[:, i - 1] = 2.0 * np.cos(2.0 * np.pi * a * i / n)
    bound_tol = 1e-9
    for s in range(1, 1 << half):
        C = connection_from_encoding(n, s)
        k = len(C)
        if k < min_degree:
            continue
        if math.gcd(n, *C) != 1:
            continue  # proper subgroup generated: disconnected
        idx = [i - 1 for i in range(1, half + 1) if (s >> (i - 1)) & 1]
        vals = P[:, idx].sum(axis=1)
        mids = np.abs(vals[1:])
        mids = mids[np.abs(mids - k) > 1e-9]
        if mids.size and mids.max() > 2.0 * math.sqrt(k - 1) + bound_tol:
            continue
        # survivor: confirm with the exact snapped-spectrum certificate
        # (connected: the gcd test above passed)
        graph = CayleyGraph(ConnectionSet(group, np.asarray(C)))  # Z_n: c is its flat index
        spec = spectrum_by_characters(graph)
        verdict = ramanujan_check(spec, k, connected=True)
        if verdict.is_ramanujan:
            yield SearchHit(
                n=n,
                encoding=s,
                C=C,
                degree=k,
                second_largest_abs=verdict.second_largest_abs,
                verdict=verdict,
            )


def hits_to_csv(hits):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "s", "k", "lambda2_abs", "ramanujan"])
    for h in hits:
        w.writerow([h.n, h.encoding, h.degree, h.second_largest_abs,
                    int(h.verdict.is_ramanujan)])
    return buf.getvalue()

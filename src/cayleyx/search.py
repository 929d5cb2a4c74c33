"""Exhaustive search for Ramanujan circulants over symmetric subsets of Z_n.

Encodings: bit i-1 of s selects the symmetric pair {i, n-i}, for
i = 1..floor(n/2); when n is even the midpoint n/2 pairs with itself and
contributes a single element.  The identity index 0 is never selectable.
Connectivity is checked before the eigenvalue bound (the definition of a
Ramanujan graph requires it).  The chunk of encodings is the unit of work
from the scan to the verdict: degree and connectivity are array operations,
one transform per chunk (the package's, on ``Z_n``) gives the character
sums, and every connected row goes to the package's one Ramanujan decision
(:func:`cayleyx.spectral._ramanujan_rows`, the same snapping, clustering
and verdict as :func:`cayleyx.ramanujan_check`), so no graph and no
per-candidate spectrum is built.
:func:`search_ramanujan_circulant` turns the hits of each chunk into
:class:`SearchHit` objects; the CLI writes them from the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import cyclic
from .spectral import RamanujanVerdict, _ramanujan_rows, _real

__all__ = ["SearchHit", "search_ramanujan_circulant"]

MAX_N = 32
# Encodings per batch.  The verdict sorts and clusters each chunk's
# connected rows of n sums; 256 rows keep those arrays, and the peak RSS,
# small (1024 raised the peak by about 2.5 MB).
SCAN_CHUNK = 1 << 8


@dataclass(frozen=True)
class SearchHit:
    n: int
    encoding: int
    C: tuple
    degree: int
    second_largest_abs: float
    verdict: RamanujanVerdict


def _chunks(n, min_degree):
    """An iterator of ``(s, k, ind, second, boundary)`` for the hits among
    each chunk of ``SCAN_CHUNK`` encodings, in increasing encoding order (see
    :func:`_hits`).  n and ``min_degree >= 1`` are checked here, before any
    chunk is scanned."""
    if not 3 <= n <= MAX_N:
        raise ValueError(f"n must be in [3, {MAX_N}], got {n}")
    if min_degree < 1:
        raise ValueError(f"min_degree must be >= 1, got {min_degree}")
    end = 1 << (n // 2)
    return (_hits(n, min_degree, np.arange(start, min(start + SCAN_CHUNK, end)))
            for start in range(1, end, SCAN_CHUNK))


def _hits(n, min_degree, s):
    """``(s, k, masks, second, boundary)`` for the hits among the encodings
    ``s``: the encodings, degrees, int64 masks of C (bit i <-> i in C), and
    the ``second_largest_abs`` list and ``boundary_flag`` array of their
    verdicts.

    Encodings are the rows of a bit matrix B (column i-1 selects pair i),
    and a mask is B's row times the masks of the pairs.  Degree (popcount)
    and connectivity (gcd of n and the selected residues) are array
    operations.  The rows that pass them get their character sums from one
    ``character_sum_table`` of their bits on ``Z_n`` (rows broadcast), and
    :func:`cayleyx.spectral._ramanujan_rows` decides each of them exactly as
    :func:`cayleyx.spectral.ramanujan_check` decides one graph.
    """
    pairs = np.arange(1, n // 2 + 1)
    B = (s[:, None] >> (pairs - 1)) & 1
    masks = B @ ((1 << pairs) | (1 << (n - pairs)))
    k = np.bitwise_count(masks)
    # a proper subgroup is generated (disconnected) iff gcd(n, C) > 1
    keep = (k >= min_degree) & (np.gcd(np.gcd.reduce(B * pairs, axis=1), n) == 1)
    s, k, masks = s[keep], k[keep], masks[keep]
    # the real parts of row r of ``sums`` are the chi_a(C) of encoding s[r]
    sums = _real(cyclic(n).character_sum_table((masks[:, None] >> np.arange(n)) & 1), k)
    ok, second, boundary = _ramanujan_rows(sums, k, n)  # connected by the gcd test
    return (s[ok], k[ok], masks[ok], [x for x, o in zip(second, ok.tolist()) if o],
            boundary[ok])


def search_ramanujan_circulant(n, min_degree=2):
    """Yield SearchHit for every encoding whose circulant certifies Ramanujan,
    in increasing encoding order (see :func:`_chunks`)."""
    shifts = np.arange(n)
    for s, k, masks, second, boundary in _chunks(n, min_degree):
        for enc, deg, row, lam, flag in zip(s.tolist(), k.tolist(), (masks[:, None] >> shifts) & 1,
                                            second, boundary.tolist()):
            verdict = RamanujanVerdict(True, lam, 2.0 * math.sqrt(deg - 1), True, flag)
            yield SearchHit(n=n, encoding=enc, C=tuple(np.flatnonzero(row).tolist()),
                            degree=deg, second_largest_abs=lam, verdict=verdict)

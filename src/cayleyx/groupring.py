"""Group-ring difference computations and generalized-difference-set checks.

For a subset C of an abelian group G, the coefficient of g != 0 in the
group-ring product C*C^(-1) is the ordered difference count
``mu_g = #{(c1, c2) in C x C : c1 - c2 = g}``.  C is a generalized difference
set (GDS) when mu_g takes at most two values over g != 0; the certificate
records the two-value structure (n, |S|, k, mu1, mu2).

The exhaustive cyclic search scans bitmask-encoded subsets in uint64 chunks:
the difference counts are popcounts of rotated intersections, computed for a
whole chunk at once, and a mask leaves the chunk at its third distinct count.
Translates share their counts and a complement's counts are a shift of
them, so the scan visits one run-start mask per translation orbit and only
the smaller half of each complement pair; the hits are rebuilt from those
by rotation and complement (see :func:`_orbit_hits`).  The search yields
them in slices: each slice's masks and count rows, whose row-wise sums,
minima, maxima and masks are the certificates' k, mu1, mu2 and S.  The CLI
writes hits from those arrays; :func:`search_gds` builds a certificate per
row for API callers.  Every verifying subset is emitted (not just orbit
representatives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import AbelianGroup, cyclic

__all__ = [
    "GdsCertificate",
    "difference_counts",
    "verify_gds",
    "has_multiplier_minus_one",
    "search_gds",
]


def _difference_array(group, C):
    """C*C^(-1) as a flat array over flat indices: entry g is
    #{(c1, c2) : c1 - c2 = g}.  ``C`` holds flat indices."""
    if not C.size:
        raise ValueError("difference counts of the empty set are undefined")
    table = group.character_sum_table(group.indicator(C))
    return group.counts(table, np.conj(table)).ravel()  # the table of -C is conj


def difference_counts(group, C):
    """Ordered difference counts mu_g for every nonidentity g (zeros included)."""
    counts = _difference_array(group, group.indices(C, distinct=True))
    return dict(zip(group.elements_at(np.arange(1, group.order)), counts[1:].tolist()))


@dataclass(frozen=True, eq=False)
class GdsCertificate:
    """Verified (n, |S|, k, mu1, mu2) structure of a GDS, with its set S,
    which must hold the identity (ValueError otherwise; :meth:`from_json`
    also checks the rest against :func:`verify_gds`).  ``C`` and ``S``
    are held as sorted read-only int64 arrays of flat indices; tuples
    appear only in the JSON form."""

    group: AbelianGroup
    C: np.ndarray
    S: np.ndarray
    k: int
    mu1: int
    mu2: int

    def __post_init__(self):
        for name in ("C", "S"):
            idx = np.sort(np.asarray(getattr(self, name), dtype=np.int64))
            idx.flags.writeable = False
            object.__setattr__(self, name, idx)
        if not self.S.size or self.S[0] != 0:
            raise ValueError("a certificate's S must contain the identity")

    def _key(self):
        return (self.group, self.C.tobytes(), self.S.tobytes(),
                self.k, self.mu1, self.mu2)

    def __eq__(self, other):
        return isinstance(other, GdsCertificate) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n(self):
        return self.group.order

    @property
    def parameters(self):
        return (self.n, len(self.S), self.k, self.mu1, self.mu2)

    def to_json(self):
        return {
            "factors": list(self.group.factors),
            "n": self.n,
            "k": self.k,
            "mu1": self.mu1,
            "mu2": self.mu2,
            "S": [list(s) for s in self.group.elements_at(self.S)],
            "C": [list(c) for c in self.group.elements_at(self.C)],
        }

    @classmethod
    def from_json(cls, obj):
        """The certificate ``obj``, which must be :func:`verify_gds`'s of its
        group and C (ValueError otherwise)."""
        group = AbelianGroup(obj["factors"])
        cert = cls(group=group, C=group.indices(obj["C"]), S=group.indices(obj["S"]),
                   k=obj["k"], mu1=obj["mu1"], mu2=obj["mu2"])
        if cert != verify_gds(group, obj["C"]):
            raise ValueError("the certificate is not verify_gds's of its group and C")
        return cert


def _certificate(group, C, mu):
    """Certificate of the flat-index set C from the array ``mu[g - 1]`` of
    its counts at g = 1..n-1, or None beyond two values; the presentation is
    :func:`_presentation`'s on ``mu`` as one row."""
    mu1, mu2, in_S = _presentation(mu[None])
    if ((mu != mu1) & (mu != mu2)).any():
        return None
    return GdsCertificate(group=group, C=C, S=np.flatnonzero(in_S), k=len(C),
                          mu1=mu1.item(), mu2=mu2.item())


def verify_gds(group, C):
    """Certificate iff the difference counts take at most two values
    (presentation as in :func:`_presentation`)."""
    C = group.indices(C, distinct=True)
    if not C.size:
        raise ValueError("C must be nonempty")
    if C.size >= group.order:
        return None
    return _certificate(group, C, _difference_array(group, C)[1:])


def has_multiplier_minus_one(group, C):
    """True iff -C is a translate of C.

    (C * C)[g] = |C intersect (g - C)|, which reaches |C| exactly when
    C = g - C, i.e. -C = C - g.
    """
    C = group.indices(C, distinct=True)
    if not C.size:
        raise ValueError("C must be nonempty")
    table = group.character_sum_table(group.indicator(C))
    return bool(group.counts(table, table).max() == C.size)


MAX_N = 24  # the orbit scan visits 2^(n-2) masks
# Masks per batch of the scan: 128 KiB uint64 arrays, enough masks to spread
# numpy's per-call overhead over the kernel's later, nearly empty rotations
# (1 << 13 took 0.33 s of n = 24's scan against 0.27 s) without raising the
# peak RSS.
SCAN_CHUNK = 1 << 14
# Hits per slice yielded by :func:`_chunks`: each slice's count rows and
# text stay small (slices of 8192 raised the peak RSS of
# ``search gds --n 18`` by about 7 MB).
HIT_CHUNK = 1 << 9


def _rotl(masks, g, n):
    """The n-bit masks of C + g for the masks of C (uint64 arrays; ``g`` may
    broadcast against them)."""
    return ((masks << g) | (masks >> (n - g))) & ((1 << n) - 1)


def _two_valued(masks, n):
    """The masks among ``masks`` whose difference counts take <= 2 values.

    mu_g = |C intersect (C + g)| = popcount(mask & rotl(mask, g)), and
    mu_{n-g} = mu_g, so g runs to n // 2 only.  Each mask's first count and
    its second distinct count are tracked, and the masks that show a third
    value are dropped after every g, so most leave after a few rotations.
    """
    first = second = np.bitwise_count(masks & _rotl(masks, 1, n))
    for g in range(2, n // 2 + 1):
        mu = np.bitwise_count(masks & _rotl(masks, g, n))
        second = np.where(second == first, mu, second)
        keep = (mu == first) | (mu == second)
        masks, first, second = masks[keep], first[keep], second[keep]
    return masks


def _chunks(n):
    """An iterator of ``(masks, counts)`` over the GDS of Z_n with at least
    two elements, in increasing mask order, ``HIT_CHUNK`` at a time: the
    masks (bit i <-> i in C) of :func:`_orbit_hits` and each one's row of
    difference counts mu_1..mu_{n-1}, which take at most two values.  A
    mask's k is its popcount; :func:`_presentation` gives the rest of its
    certificate.  n is checked here, before any mask is scanned."""
    if not 2 <= n <= MAX_N:
        raise ValueError(f"n must be in [2, {MAX_N}], got {n}")
    return _slices(n)


def _slices(n):
    """The generator behind :func:`_chunks`: the scan runs at the first
    slice asked for."""
    hits, shifts = _orbit_hits(n), np.arange(1, n, dtype=np.uint64)
    for start in range(0, hits.size, HIT_CHUNK):
        rows = hits[start:start + HIT_CHUNK, None]
        yield rows[:, 0], np.bitwise_count(rows & _rotl(rows, shifts, n))


def _orbit_hits(n):
    """The sorted masks of every GDS C of Z_n with 2 <= |C| <= n - 1, from a
    scan of one run-start mask per translation orbit and half of each
    complement pair.

    The scan runs :func:`_two_valued` on the masks with bit 0 set, bit n-1
    clear and 2 to n // 2 bits set, ``SCAN_CHUNK`` at a time.  The hits are
    these base hits, their complements and Z_n minus {0}, each turned
    through all n rotations, sorted, with repeats dropped.  That is every
    GDS, and only GDS:

    * translates: mu_g(C + t) = |(C + t) intersect (C + t + g)| = mu_g(C);
    * complements: C' = Z_n minus C has
      mu'_g = n - |C union (C + g)| = n - 2k + mu_g, so both or neither
      take two values, and
      |C'| = n - k lies in [ceil(n/2), n - 2] for a base hit;
    * run starts: a proper nonempty C holds some c with c - 1 not in C
      (else C is closed under c -> c - 1, so C = Z_n), and C - c then holds
      0 and not n - 1.

    A GDS of n - 1 elements is a translate of Z_n minus {0} (its counts are
    all n - 2, a difference set for n >= 3).  Of any other GDS C and its
    complement, one has 2 to n // 2 elements; that set, moved by one of its
    run starts, is a base hit, and C is a rotation of it or of its
    complement.
    """
    end, full, half = 1 << (n - 2), (1 << n) - 1, n // 2
    seeds = [np.array([full ^ 1] if n >= 3 else [], dtype=np.uint64)]
    for start in range(0, end, SCAN_CHUNK):
        masks = np.arange(start, min(start + SCAN_CHUNK, end), dtype=np.uint64) << 1 | 1
        k = np.bitwise_count(masks)
        base = _two_valued(masks[(k >= 2) & (k <= half)], n)
        seeds += [base, full ^ base]
    seeds = np.concatenate(seeds)
    # one rotation at a time into one array, and repeats dropped after an
    # in-place sort: at n = 18 a broadcast rotation's temporaries raise the
    # traced peak from 0.55 to 0.9 MB, and numpy's unique to 1.9 MB
    hits = np.empty((n, seeds.size), dtype=np.uint64)
    for g in range(n):
        hits[g] = _rotl(seeds, g, n)
    hits = hits.ravel()
    hits.sort()
    keep = np.ones(hits.size, dtype=bool)
    np.not_equal(hits[1:], hits[:-1], out=keep[1:])
    return hits[keep]


def _presentation(counts):
    """The canonical presentation of two-valued rows of counts mu_1..mu_{n-1}:
    the arrays mu1 (row min) and mu2 (row max), and the n-column mask of S,
    which holds 0 and, when mu1 < mu2, the g with mu_g = mu1 (S = {0} for a
    difference set, where mu1 = mu2)."""
    mu1, mu2 = counts.min(axis=1), counts.max(axis=1)
    in_S = np.ones((len(counts), counts.shape[1] + 1), dtype=bool)
    in_S[:, 1:] = (counts == mu1[:, None]) & (mu1 != mu2)[:, None]
    return mu1, mu2, in_S


def search_gds(n):
    """Yield (C, certificate) for every GDS of Z_n with at least two
    elements, in increasing encoding order (bitmask encoding, bit i <-> i in
    C); C is the certificate's index array.  Every verifying subset is
    emitted (not just one orbit representative), so any particular set of
    interest appears verbatim.  The rows of :func:`_chunks` and their
    :func:`_presentation` become the certificates.
    """
    group, shifts = cyclic(n), np.arange(n, dtype=np.uint64)
    for masks, counts in _chunks(n):
        mu1, mu2, in_S = _presentation(counts)
        for row, S, m1, m2 in zip((masks[:, None] >> shifts) & 1, in_S,
                                  mu1.tolist(), mu2.tolist()):
            C = np.flatnonzero(row)
            cert = GdsCertificate(group=group, C=C, S=np.flatnonzero(S), k=C.size,
                                  mu1=m1, mu2=m2)
            yield cert.C, cert

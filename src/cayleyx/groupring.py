"""Group-ring difference computations and generalized-difference-set checks.

For a subset C of an abelian group G, the coefficient of g != 0 in the
group-ring product C*C^(-1) is the ordered difference count
``mu_g = #{(c1, c2) in C x C : c1 - c2 = g}``.  C is a generalized difference
set (GDS) when mu_g takes at most two values over g != 0; the certificate
records the two-value structure (n, |S|, k, mu1, mu2).

The exhaustive cyclic search scans bitmask-encoded subsets in uint64 chunks:
the difference counts are popcounts of rotated intersections, computed for a
whole chunk at once, and a mask leaves the chunk at its third distinct count.
It emits every verifying subset (not just orbit representatives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import AbelianGroup, cyclic

__all__ = [
    "GdsCertificate",
    "difference_counts",
    "verify_gds",
    "verify_difference_set",
    "has_multiplier_minus_one",
    "search_gds",
    "check_group_ring_identity",
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
    counts = _difference_array(group, group.indices(C))
    return dict(zip(group.elements_at(np.arange(1, group.order)), counts[1:].tolist()))


@dataclass(frozen=True, eq=False)
class GdsCertificate:
    """Verified (n, |S|, k, mu1, mu2) structure of a GDS, with its set S.
    ``C`` and ``S`` are held as sorted read-only int64 arrays of flat
    indices; tuples appear only in the JSON form."""

    group: AbelianGroup
    C: np.ndarray
    S: np.ndarray
    k: int
    mu1: int
    mu2: int
    identity_in_S: bool

    def __post_init__(self):
        for name in ("C", "S"):
            idx = np.sort(np.asarray(getattr(self, name), dtype=np.int64))
            idx.flags.writeable = False
            object.__setattr__(self, name, idx)

    def _key(self):
        return (self.group, self.C.tobytes(), self.S.tobytes(),
                self.k, self.mu1, self.mu2, self.identity_in_S)

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

    def is_difference_set(self):
        return self.mu1 == self.mu2

    def to_json(self):
        return {
            "factors": list(self.group.factors),
            "n": self.n,
            "k": self.k,
            "mu1": self.mu1,
            "mu2": self.mu2,
            "S": [list(s) for s in self.group.elements_at(self.S)],
            "identity_in_S": self.identity_in_S,
            "C": [list(c) for c in self.group.elements_at(self.C)],
        }

    @classmethod
    def from_json(cls, obj):
        group = AbelianGroup(obj["factors"])
        return cls(
            group=group,
            C=group.indices(obj["C"]),
            S=group.indices(obj["S"]),
            k=obj["k"],
            mu1=obj["mu1"],
            mu2=obj["mu2"],
            identity_in_S=obj["identity_in_S"],
        )


def _certificate(group, C, mu):
    """Certificate of the flat-index set C from the list ``mu[g - 1]`` of its
    counts at g = 1..n-1, or None beyond two values.  Canonical presentation:
    0 in S and mu1 < mu2 (S = the rarer differences plus 0); when all counts
    coincide C is a difference set, S = {0} and mu1 = mu2."""
    values = sorted(set(mu))
    if len(values) > 2:
        return None
    mu1, mu2 = values[0], values[-1]
    # mu1 < mu2 <= k = mu_0, so the identity is added by hand
    S = [0] + ([g for g, m in enumerate(mu, 1) if m == mu1] if mu1 != mu2 else [])
    return GdsCertificate(group=group, C=C, S=S, k=len(C), mu1=mu1, mu2=mu2,
                          identity_in_S=True)


def verify_gds(group, C):
    """Certificate iff the difference counts take at most two values
    (presentation as in :func:`_certificate`)."""
    C = group.indices(C)
    if not C.size:
        raise ValueError("C must be nonempty")
    if C.size >= group.order:
        return None
    return _certificate(group, C, _difference_array(group, C)[1:].tolist())


def verify_difference_set(group, C):
    """(n, k, lambda) iff every nonidentity difference count is equal."""
    cert = verify_gds(group, C)
    if cert is None or not cert.is_difference_set():
        return None
    return (cert.n, cert.k, cert.mu1)


def has_multiplier_minus_one(group, C):
    """True iff -C is a translate of C.

    (C * C)[g] = |C intersect (g - C)|, which reaches |C| exactly when
    C = g - C, i.e. -C = C - g.
    """
    C = group.indices(C)
    if not C.size:
        raise ValueError("C must be nonempty")
    table = group.character_sum_table(group.indicator(C))
    return bool(group.counts(table, table).max() == C.size)


def check_group_ring_identity(cert):
    """Exact termwise check of the group-ring identity behind the certificate.

    With 0 in S the product C*C^(-1) must equal
    (k - mu1)*0 + mu1*S + mu2*(G - S); in the 0-not-in-S presentation the
    identity coefficient is (k - mu2) instead.
    """
    group = cert.group
    expected = cert.mu2 + (cert.mu1 - cert.mu2) * group.indicator(cert.S).ravel()
    expected[0] += (cert.k - cert.mu1) if cert.identity_in_S else (cert.k - cert.mu2)
    return bool(np.array_equal(_difference_array(group, cert.C), expected))


# Masks per batch of :func:`search_gds`: 64 KiB uint64 arrays, enough masks
# to spread numpy's per-call overhead without raising the peak RSS.
SCAN_CHUNK = 1 << 13


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


def search_gds(n):
    """Exhaustively scan subsets of Z_n with at least two elements (bitmask
    encoding, bit i <-> i in C) and yield (C, certificate) for every GDS, in
    increasing encoding order; C is the certificate's index array.

    Masks are scanned in increasing order in uint64 chunks of
    ``SCAN_CHUNK``.  Within a chunk the popcount pre-check of
    :func:`_two_valued` drops a mask as soon as a third distinct difference
    count appears; the survivors' full counts mu_1..mu_{n-1} are then
    computed in one batch and each certificate is built from them.  Every
    verifying subset is emitted (not just one orbit representative), so any
    particular set of interest appears verbatim.
    """
    if not 2 <= n <= 24:
        raise ValueError(f"n must be in [2, 24], got {n}")
    group = cyclic(n)
    full = (1 << n) - 1  # C = Z_n is no GDS candidate
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, full, SCAN_CHUNK):
        masks = np.arange(start, min(start + SCAN_CHUNK, full), dtype=np.uint64)
        masks = _two_valued(masks[np.bitwise_count(masks) >= 2], n)[:, None]
        counts = np.bitwise_count(masks & _rotl(masks, shifts[1:], n)).tolist()
        for bits, mu in zip((masks >> shifts) & 1, counts):
            cert = _certificate(group, np.flatnonzero(bits), mu)
            yield cert.C, cert

"""Group-ring difference computations and generalized-difference-set checks.

For a subset C of an abelian group G, the coefficient of g != 0 in the
group-ring product C*C^(-1) is the ordered difference count
``mu_g = #{(c1, c2) in C x C : c1 - c2 = g}``.  C is a generalized difference
set (GDS) when mu_g takes at most two values over g != 0; the certificate
records the two-value structure (n, |S|, k, mu1, mu2).

The exhaustive cyclic search scans bitmask-encoded subsets with an
early-exit two-valued pre-check on rotated intersections, and emits every
verifying subset (not just orbit representatives).
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
    """C*C^(-1) on the factor grid: entry g is #{(c1, c2) : c1 - c2 = g}."""
    C = {group.element(c) for c in C}
    if not C:
        raise ValueError("difference counts of the empty set are undefined")
    return group.convolve(group.indicator(C), group.indicator(group.neg(c) for c in C))


def difference_counts(group, C):
    """Ordered difference counts mu_g for every nonidentity g (zeros included)."""
    counts = _difference_array(group, C)
    return {g: int(counts[g]) for g in group.elements() if g != group.zero}


@dataclass(frozen=True)
class GdsCertificate:
    """Verified (n, |S|, k, mu1, mu2) structure of a GDS, with its set S."""

    group: AbelianGroup
    C: frozenset
    S: frozenset
    k: int
    mu1: int
    mu2: int
    identity_in_S: bool

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
            "S": sorted(list(s) for s in self.S),
            "identity_in_S": self.identity_in_S,
            "C": sorted(list(c) for c in self.C),
        }

    @classmethod
    def from_json(cls, obj):
        group = AbelianGroup(obj["factors"])
        return cls(
            group=group,
            C=frozenset(tuple(c) for c in obj["C"]),
            S=frozenset(tuple(s) for s in obj["S"]),
            k=obj["k"],
            mu1=obj["mu1"],
            mu2=obj["mu2"],
            identity_in_S=obj["identity_in_S"],
        )


def verify_gds(group, C):
    """Certificate iff the difference counts take at most two values.

    Canonical presentation: 0 is put in S and mu1 < mu2 (S collects the
    less-frequent differences plus the identity).  When all counts coincide
    the set is a plain difference set; S degenerates to {0} and mu1 = mu2.
    """
    C = frozenset(group.element(c) for c in C)
    if not C:
        raise ValueError("C must be nonempty")
    if len(C) >= group.order:
        return None
    counts = _difference_array(group, C)
    values = sorted(set(counts.ravel()[1:].tolist()))  # flat index 0 is the identity
    if len(values) > 2:
        return None
    if len(values) == 1:
        return GdsCertificate(
            group=group, C=C, S=frozenset({group.zero}), k=len(C),
            mu1=values[0], mu2=values[0], identity_in_S=True,
        )
    mu1, mu2 = values
    # mu1 < mu2 <= k = counts[0], so the identity is added by hand
    S = frozenset(map(tuple, np.argwhere(counts == mu1).tolist())) | {group.zero}
    return GdsCertificate(
        group=group, C=C, S=S, k=len(C), mu1=mu1, mu2=mu2, identity_in_S=True,
    )


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
    ind = group.indicator({group.element(c) for c in C})
    if not ind.any():
        raise ValueError("C must be nonempty")
    return bool(group.convolve(ind, ind).max() == ind.sum())


def check_group_ring_identity(cert):
    """Exact termwise check of the group-ring identity behind the certificate.

    With 0 in S the product C*C^(-1) must equal
    (k - mu1)*0 + mu1*S + mu2*(G - S); in the 0-not-in-S presentation the
    identity coefficient is (k - mu2) instead.
    """
    group = cert.group
    expected = cert.mu2 + (cert.mu1 - cert.mu2) * group.indicator(cert.S)
    expected[group.zero] += (cert.k - cert.mu1) if cert.identity_in_S else (cert.k - cert.mu2)
    return bool(np.array_equal(_difference_array(group, cert.C), expected))


def _rotl(mask, g, n):
    return ((mask << g) | (mask >> (n - g))) & ((1 << n) - 1)


def _two_valued_fast(mask, n):
    """Whether the difference counts of the bitmask subset take <= 2 values.

    mu_g = |C intersect (C + g)| = popcount(mask & rotl(mask, g)); early exit
    as soon as a third distinct value shows up.
    """
    seen = set()
    for g in range(1, n):
        seen.add((mask & _rotl(mask, g, n)).bit_count())
        if len(seen) > 2:
            return False
    return True


def search_gds(n, min_size=2):
    """Exhaustively scan subsets of Z_n (bitmask encoding, bit i <-> i in C)
    and yield (C, certificate) for every GDS, in increasing encoding order.

    The bitmask pre-check on rotated intersections exits as soon as a third
    distinct difference count appears, which rejects almost every mask after
    a handful of rotations; the full certificate is built only for survivors.
    Every verifying subset is emitted (not just one orbit representative), so
    any particular set of interest appears verbatim in the stream.
    """
    if not 2 <= n <= 24:
        raise ValueError(f"n must be in [2, 24], got {n}")
    group = cyclic(n)
    for mask in range(3, (1 << n) - 1):
        k = mask.bit_count()
        if k < min_size or k >= n:
            continue
        if not _two_valued_fast(mask, n):
            continue
        C = frozenset((i,) for i in range(n) if (mask >> i) & 1)
        cert = verify_gds(group, C)
        if cert is not None:
            yield C, cert

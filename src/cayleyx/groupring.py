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
    """C*C^(-1) as a flat array over flat indices: entry g is
    #{(c1, c2) : c1 - c2 = g}.  ``C`` holds flat indices."""
    if not C.size:
        raise ValueError("difference counts of the empty set are undefined")
    ind, neg = group.indicator(C), group.indicator(group.neg_indices(C))
    return group.convolve(ind, neg).ravel()


def difference_counts(group, C):
    """Ordered difference counts mu_g for every nonidentity g (zeros included)."""
    counts = _difference_array(group, group.indices(C))
    return dict(zip(group.elements_at(np.arange(1, group.order)), counts[1:].tolist()))


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
    return GdsCertificate(
        group=group, C=frozenset(group.elements_at(C)), S=frozenset(group.elements_at(S)),
        k=len(C), mu1=mu1, mu2=mu2, identity_in_S=True,
    )


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
    ind = group.indicator(C)
    return bool(group.convolve(ind, ind).max() == C.size)


def check_group_ring_identity(cert):
    """Exact termwise check of the group-ring identity behind the certificate.

    With 0 in S the product C*C^(-1) must equal
    (k - mu1)*0 + mu1*S + mu2*(G - S); in the 0-not-in-S presentation the
    identity coefficient is (k - mu2) instead.
    """
    group = cert.group
    expected = cert.mu2 + (cert.mu1 - cert.mu2) * group.indicator(group.indices(cert.S)).ravel()
    expected[0] += (cert.k - cert.mu1) if cert.identity_in_S else (cert.k - cert.mu2)
    return bool(np.array_equal(_difference_array(group, group.indices(cert.C)), expected))


def _rotl(mask, g, n):
    return ((mask << g) | (mask >> (n - g))) & ((1 << n) - 1)


def _two_valued_fast(mask, n):
    """Exact difference counts [mu_1, ..., mu_{n-1}] of the bitmask subset if
    they take <= 2 values, else None: mu_g = |C intersect (C + g)| =
    popcount(mask & rotl(mask, g)), with an early exit at a third value.
    """
    mu, seen = [], set()
    for g in range(1, n):
        mu.append((mask & _rotl(mask, g, n)).bit_count())
        seen.add(mu[-1])
        if len(seen) > 2:
            return None
    return mu


def search_gds(n):
    """Exhaustively scan subsets of Z_n with at least two elements (bitmask
    encoding, bit i <-> i in C) and yield (C, certificate) for every GDS, in
    increasing encoding order.

    The bitmask pre-check on rotated intersections exits as soon as a third
    distinct difference count appears, which rejects almost every mask after
    a handful of rotations; a survivor's certificate is built from its exact
    counts.  Every verifying subset is emitted (not just one orbit
    representative), so any particular set of interest appears verbatim.
    """
    if not 2 <= n <= 24:
        raise ValueError(f"n must be in [2, 24], got {n}")
    group = cyclic(n)
    for mask in range(3, (1 << n) - 1):
        if mask.bit_count() < 2:
            continue
        mu = _two_valued_fast(mask, n)
        if mu is not None:
            cert = _certificate(group, [i for i in range(n) if (mask >> i) & 1], mu)
            yield cert.C, cert

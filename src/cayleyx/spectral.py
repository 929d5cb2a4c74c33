"""Exact spectra of Cayley graphs, an eigensolver oracle, and certification.

The character route gives one eigenvalue per character of the group.  The
oracle, its independent check, diagonalizes the dense adjacency matrix with
a symmetric eigensolver (the only place an n x n matrix is built), split
once at one group element of order 2, never through character values.
On ``Z_2^m`` the character sums are the integers of an exact Walsh-Hadamard
transform, so every eigenvalue there is exact by construction.  On every
other group, eigenvalues within 1e-6 of an integer are snapped and stored
exact.  Either way Ramanujan comparisons (lambda^2 <= 4(k-1)) are exact
integer tests in every construction this package ships.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .groups import AbelianGroup

__all__ = [
    "Spectrum",
    "RamanujanVerdict",
    "spectrum_by_characters",
    "spectrum_oracle",
    "ramanujan_check",
    "spectral_gap",
    "second_largest_by_index",
    "crossing_lemma_bound",
    "vertex_expansion",
    "gds_predicted_eigenvalues",
    "gds_sufficient_filters",
]

SNAP_TOL = 1e-6          # |lambda - round(lambda)| below this: exact integer
BOUNDARY_TOL = 1e-6      # non-exact value this close to 2*sqrt(k-1): flag it
ORACLE_MAX_N = 4096
EXPANSION_MAX_N = 20


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues as (value, multiplicity, exact) descending."""

    entries: tuple  # of (value, multiplicity, exact_flag)

    @property
    def n(self):
        return sum(m for _, m, _ in self.entries)

    def values(self):
        return [v for v, _, _ in self.entries]

    def multiplicity(self, value):
        return sum(m for v, m, _ in self.entries if v == value)

    def as_multiset(self):
        return {v: m for v, m, _ in self.entries}

    def trace(self):
        return sum(v * m for v, m, _ in self.entries)

    def trace_of_square(self):
        return sum(v * v * m for v, m, _ in self.entries)

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["value", "multiplicity", "exact"])
        for v, m, exact in self.entries:
            w.writerow([v, m, int(exact)])
        return buf.getvalue()


@dataclass(frozen=True)
class RamanujanVerdict:
    is_ramanujan: bool
    second_largest_abs: float
    bound: float
    connected: bool
    boundary_flag: bool
    reason: str = ""

    def to_json(self):
        return {
            "is_ramanujan": self.is_ramanujan,
            "second_largest_abs": self.second_largest_abs,
            "bound": self.bound,
            "connected": self.connected,
            "boundary_flag": self.boundary_flag,
            "reason": self.reason,
        }


def _group_eigenvalues(raw, n):
    """Snap near-integers, then group equal/near-equal values."""
    exact_counts = {}
    real_values = []
    for v in raw:
        r = round(v)
        if abs(v - r) < SNAP_TOL:
            exact_counts[r] = exact_counts.get(r, 0) + 1
        else:
            real_values.append(v)
    entries = [(int(v), m, True) for v, m in exact_counts.items()]
    if real_values:
        tol = 1e-8 * n
        real_values.sort()
        start = 0
        for i in range(1, len(real_values) + 1):
            if i == len(real_values) or real_values[i] - real_values[i - 1] > tol:
                cluster = real_values[start:i]
                entries.append((sum(cluster) / len(cluster), len(cluster), False))
                start = i
    entries.sort(key=lambda e: -e[0])
    return Spectrum(tuple(entries))


def spectrum_by_characters(graph):
    """One eigenvalue chi(C) per character: the graph's character table.

    An integer table (``Z_2^m``) is grouped exactly, by counting each value
    in [-k, k] (``|chi(C)| <= k``); a complex one goes through the snapping
    of :func:`_group_eigenvalues`.
    """
    table = graph.characters
    if table.dtype.kind == "i":
        counts = np.bincount(graph.k - table.ravel())  # index i counts the value k - i
        at = np.flatnonzero(counts)
        return Spectrum(tuple((v, c, True) for v, c in
                              zip((graph.k - at).tolist(), counts[at].tolist())))
    if np.abs(table.imag).max() > 1e-9 * max(graph.k, 1):
        raise ArithmeticError("character sums of a symmetric set must be real")
    return _group_eigenvalues(table.real.ravel().tolist(), graph.n)


def _order_two_blocks(graph):
    """B0 + B1 and B0 - B1 for the adjacency A = [[B0, B1], [B1, B0]] of an
    even-order graph, on the grid with its first even factor moved to the
    front (rows and columns relabelled together: a similarity).  There the
    translation by the element t of order 2 in that factor swaps the two
    halves of the flat range, so A commutes with it exactly when both block
    equalities hold; they are compared exactly on the 0/1 entries."""
    factors = graph.group.factors
    front = next(i for i, d in enumerate(factors) if d % 2 == 0)
    order = [front] + [i for i in range(len(factors)) if i != front]
    grid = AbelianGroup([factors[i] for i in order])
    A = grid.group_matrix(np.transpose(graph.indicator, order))
    h = graph.n // 2
    B0, B1 = A[:h, :h], A[:h, h:]
    if not (np.array_equal(A[h:, h:], B0) and np.array_equal(A[h:, :h], B1)):
        raise ArithmeticError("adjacency matrix does not commute with the order-2 translation")
    return B0 + B1, B0 - B1


def spectrum_oracle(graph):
    """Dense symmetric eigensolve of the adjacency matrix (independent route).

    Even n is solved as two blocks of size n/2 (a quarter of the work of
    one solve of size n); odd n has no element of order 2 and is solved
    unsplit.
    """
    if graph.n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N}, got {graph.n}")
    blocks = _order_two_blocks(graph) if graph.n % 2 == 0 else (graph.adjacency_matrix(),)
    eigs = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
    return _group_eigenvalues(eigs.tolist(), graph.n)


def spectra_agree(spec_a, spec_b):
    """Values within 1e-6, multiplicities exact."""
    ea, eb = spec_a.entries, spec_b.entries
    if len(ea) != len(eb):
        return False
    return all(
        abs(va - vb) <= 1e-6 and ma == mb
        for (va, ma, _), (vb, mb, _) in zip(ea, eb)
    )


def ramanujan_check(spectrum, k, connected):
    """Def: connected and every eigenvalue with |lambda| != k has
    lambda^2 <= 4(k-1).  Both +k and -k are exempt (the -k of a bipartite
    graph does not break the bound)."""
    bound = 2.0 * math.sqrt(k - 1) if k >= 1 else 0.0
    boundary = False
    second = 0.0
    failure = ""
    for v, _, exact in spectrum.entries:
        a = abs(v)
        if (a == k) if exact else (abs(a - k) <= SNAP_TOL):
            continue
        second = max(second, a)
        if not exact and abs(a - bound) <= BOUNDARY_TOL:
            boundary = True
        ok = (v * v <= 4 * (k - 1)) if exact else (a <= bound + BOUNDARY_TOL)
        if not ok and not failure:
            failure = f"eigenvalue {v} exceeds bound"
    if not connected:
        return RamanujanVerdict(False, second, bound, False, boundary, "not connected")
    return RamanujanVerdict(not failure, second, bound, True, boundary, failure)


def _ramanujan_rows(raw, k, n):
    """Row-wise ``ramanujan_check(_group_eigenvalues(row, n), k, connected=True)``
    for the eigenvalue rows of ``raw`` (an m-row float array; n is the order
    that scales the clustering gap) and their degrees ``k`` (m ints, each
    >= 1): the bool arrays ``is_ramanujan`` and ``boundary_flag`` and the
    list of ``second_largest_abs``, each float bit for bit the scalar one.

    The snapped values are compared as integers.  The others are sorted and
    cut at gaps above 1e-8*n; each cluster mean is summed left to right, as
    ``sum`` does.  The largest |lambda| stays a Python int when a snapped
    value gives it (0.0 when nothing is counted), and an integer that ties a
    cluster mean for it raises ArithmeticError, since the scalar result
    would then depend on the order of the spectrum.
    """
    raw = np.asarray(raw, dtype=float)
    k = np.asarray(k, dtype=np.int64)[:, None]
    bound = 2.0 * np.sqrt(k - 1)
    r = np.round(raw)
    exact = np.abs(raw - r) < SNAP_TOL
    counted = exact & (np.abs(r) != k)
    fail = (counted & (r * r > 4 * (k - 1))).any(axis=1)
    top_exact = np.where(counted, np.abs(r), -1.0).max(axis=1)
    # clusters of the unsnapped values: NaN sorts last and never starts one
    v = np.sort(np.where(exact, np.nan, raw), axis=1)
    valid = ~np.isnan(v)
    start = np.ones_like(valid)
    start[:, 1:] = np.diff(v, axis=1) > 1e-8 * n
    end = valid.copy()
    end[:, :-1] &= start[:, 1:] | ~valid[:, 1:]
    means = np.empty_like(v)
    total = count = np.zeros(len(v))
    for j in range(v.shape[1]):
        total = np.where(start[:, j], v[:, j], total + v[:, j])
        count = np.where(start[:, j], 1.0, count + 1.0)
        means[:, j] = total / count
    a = np.abs(means)
    counted = end & (np.abs(a - k) > SNAP_TOL)
    boundary = (counted & (np.abs(a - bound) <= BOUNDARY_TOL)).any(axis=1)
    fail |= (counted & (a > bound + BOUNDARY_TOL)).any(axis=1)
    top_cluster = np.where(counted, a, -1.0).max(axis=1)
    if ((top_exact == top_cluster) & (top_exact >= 0)).any():
        raise ArithmeticError("an integer eigenvalue ties a cluster mean for the largest |lambda|")
    second = np.maximum(np.maximum(top_exact, top_cluster), 0.0).tolist()
    integral = (top_exact > np.maximum(top_cluster, 0.0)).tolist()
    second = [int(x) if i else x for x, i in zip(second, integral)]
    return ~fail, second, boundary


def certify_ramanujan(graph):
    return ramanujan_check(spectrum_by_characters(graph), graph.k, graph.is_connected())


def spectral_gap(spectrum, k):
    """k minus the largest eigenvalue strictly below k (by value)."""
    below = [v for v, _, _ in spectrum.entries if v < k]
    if not below:
        return 0
    return k - max(below)


def second_largest_by_index(spectrum, k):
    """lambda_2 in the ordering lambda_1 = k >= lambda_2 >= ...: equals k when
    the top eigenvalue repeats (disconnected graph), which is what the edge
    crossing bound needs (the bound degenerates to 0 there)."""
    if spectrum.multiplicity(k) > 1:
        return k
    below = [v for v, _, _ in spectrum.entries if v < k]
    return max(below) if below else k


def crossing_lemma_bound(graph, omega1):
    """Crossing bound (k - lambda2)|Omega1||Omega2| / n and the exact count
    of edges between the parts."""
    omega1 = graph.group.indices(omega1)
    spec = spectrum_by_characters(graph)
    lam2 = second_largest_by_index(spec, graph.k)
    size1 = omega1.size
    bound = (graph.k - lam2) * size1 * (graph.n - size1) / graph.n
    actual, _ = crossing_counts_batch(graph, graph.group.indicator(omega1).reshape(-1, 1))
    return bound, int(actual[0])


def crossing_counts_batch(graph, indicators):
    """Edge counts between Omega1 and its complement for a batch of 0/1
    indicator columns (n x batch).

    Column x gives (A x)[v] = sum_{c in C} x[v + c] = (x * 1_C)[v] (C = -C):
    one batched transform of the columns times the graph's character table.
    """
    group = graph.group
    X = np.asarray(indicators, dtype=float)
    grids = X.T.reshape(-1, *group.factors)
    AX = group.counts(group.character_sum_table(grids), graph.characters)
    AX = AX.reshape(X.shape[1], -1).T
    sizes = X.sum(axis=0)
    inside_twice = np.einsum("ij,ij->j", X, AX)
    return (graph.k * sizes - inside_twice).round().astype(int), sizes.astype(int)


def vertex_expansion(graph):
    """Exact min over nonempty Omega with |Omega| <= n/2 of |Gamma(Omega)|/|Omega|,
    with the neighborhood taken outside Omega.  Exhaustive 2^n scan."""
    n = graph.n
    if n > EXPANSION_MAX_N:
        raise ValueError(f"vertex expansion is exhaustive; n <= {EXPANSION_MAX_N} required")
    nbr_masks = []
    for i in range(n):
        m = 0
        for j in graph.neighbor_indices(i):
            m |= 1 << j
        nbr_masks.append(m)
    best = math.inf
    half = n // 2
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > half:
            continue
        gamma = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            gamma |= nbr_masks[i]
            m &= m - 1
        gamma &= ~mask
        ratio = gamma.bit_count() / size
        if ratio < best:
            best = ratio
    return best


def gds_sufficient_filters(cert):
    """The two closed-form sufficient conditions for a GDS Cayley graph to be
    an expander, evaluated (recorded, never asserted: they are one-directional
    and the spectrum-based verdict is authoritative)."""
    s = len(cert.S)
    return {
        "strict": -cert.mu1 + (cert.mu1 - cert.mu2) * s < 3 * cert.k - 4,
        "weak": (cert.mu1 - cert.mu2) * s <= 3 * cert.k + cert.mu1 - 4,
    }


def gds_predicted_eigenvalues(cert):
    """The eigenvalue envelope +-sqrt(k - mu1 + (mu1 - mu2) * chi(S)) over
    the nonprincipal characters, for a certificate presented with 0 in S."""
    if not cert.identity_in_S:
        raise ValueError("predicted set implemented for the 0-in-S presentation")
    group = cert.group
    table = group.character_sum_table(group.indicator(cert.S))
    values = set()
    for chi_s in table.real.ravel()[1:].tolist():  # flat index 0 is the principal character
        radicand = cert.k - cert.mu1 + (cert.mu1 - cert.mu2) * chi_s
        if radicand < 0:
            if radicand < -1e-6:
                raise ArithmeticError(f"negative radicand {radicand}")
            radicand = 0.0
        root = math.sqrt(radicand)
        snapped = round(root)
        if abs(root - snapped) < SNAP_TOL:
            values.add(snapped)
            values.add(-snapped)
        else:
            values.add(root)
            values.add(-root)
    return values

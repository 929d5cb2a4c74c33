"""Exact spectra of Cayley graphs, an identity check of them, and certification.

The character route gives one eigenvalue per character of the group.  Its
check (:func:`table_identity`) compares a random weighted sum of the whole
table with the same sum read from C alone, with no transform of size n:
exactly in F_p on ``Z_2^m``, in floats elsewhere.
On ``Z_2^m`` the character sums are the integers of an exact Walsh-Hadamard
transform, so every eigenvalue there is exact by construction.  Every other
spectrum is grouped by one row-wise rule (:func:`_groups`: values within
eps of an integer are snapped and stored exact, the rest clustered),
and one decision (:func:`_verdicts`) tests lambda^2 <= 4(k-1) for one graph
and for a search chunk alike, exactly on the integers of every construction
this package ships.  The expander mixing bound is checked
(:func:`quotient_cuts`) on the quotient cuts at lambda_2 and the Ramanujan
witness, read from C alone, and their two table entries.  Every float
tolerance is a multiple of one stated error bound, :func:`tolerance`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .groups import sorted_unique

__all__ = [
    "Spectrum",
    "RamanujanVerdict",
    "spectrum_by_characters",
    "table_identity",
    "ramanujan_check",
    "second_largest_by_index",
    "quotient_cuts",
    "gds_predicted_eigenvalues",
]

TABLE_PRIME = 2147483629  # below 2^31: a product of two residues fits in int64
TABLE_TRIALS = 2


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

    def to_csv(self):
        """The rows value, multiplicity, exact (0/1) as ``csv.writer`` writes
        them, by one ``%`` format: values by ``str``, which is ``repr`` for
        floats."""
        fields = tuple(x for entry in self.entries for x in entry)
        return "value,multiplicity,exact\r\n" + "%s,%d,%d\r\n" * len(self.entries) % fields


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


def tolerance(k, n):
    """The error model, eps = 7 u ceil(log2 n) sqrt(n k) with u = 2^-53: the
    one float tolerance of the pipeline, for degree(s) k and group order n
    (README, "Error model").  It is Higham's normwise bound for a radix-2
    FFT (*Accuracy and Stability of Numerical Algorithms*, ch. 24), eta ~
    6.7u per level, at ||y||_2 = sqrt(n k), the norm of the transform of a
    0/1 indicator of k elements; one entry's error is at most the normwise
    error.  For pocketfft's mixed radix and Bluestein it is an assumption,
    not a proof.  ``AbelianGroup.counts``' 0.25 rounding guard stays
    outside: it only raises, never decides an output."""
    return 7 * 2.0 ** -53 * (n - 1).bit_length() * np.sqrt(np.multiply(n, k, dtype=float))


def _real(table, k):
    """The real parts of character sums, a row of degree k or rows of degrees
    ``k``; an imaginary part above eps raises ArithmeticError."""
    if (np.abs(table.imag).max(axis=-1) > tolerance(k, table.shape[-1])).any():
        raise ArithmeticError("character sums of a symmetric set must be real")
    return table.real


def _groups(raw, k, n):
    """Snap and cluster the eigenvalue rows of ``raw`` (m rows, or one) of
    degrees ``k`` on a group of order n.  Returns three m-row arrays: the
    values less than eps from an integer, snapped (NaN elsewhere), and the
    mean and size of each cluster of the others at its last position (NaN
    and 0 elsewhere).  Clusters are runs of the sorted values cut at gaps
    above 2 eps (two equal values may each be eps off), summed left to
    right as ``sum`` does: a loop over the position inside a cluster,
    across all clusters of all rows at once."""
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    eps = tolerance(np.reshape(k, (-1, 1)), n)
    r = np.round(raw)
    exact = np.abs(raw - r) < eps
    v = np.sort(np.where(exact, np.nan, raw), axis=1)  # NaN sorts last
    valid = ~np.isnan(v)
    start = valid.copy()
    start[:, 1:] &= np.diff(v, axis=1) > 2 * eps
    end = valid.copy()
    end[:, :-1] &= start[:, 1:] | ~valid[:, 1:]
    first, last = np.flatnonzero(start), np.flatnonzero(end)
    sizes = last - first + 1
    order = np.argsort(-sizes, kind="stable")  # clusters still summing form a prefix
    first, sizes = first[order], sizes[order]
    flat = v.ravel()
    total = flat[first]
    for p in range(1, sizes[0] if sizes.size else 0):
        live = np.searchsorted(-sizes, -p, side="left")  # clusters of size > p
        total[:live] += flat[first[:live] + p]
    means, counts = np.full(v.shape, np.nan), np.zeros(v.shape, dtype=np.int64)
    means.flat[last[order]], counts.flat[last[order]] = total / sizes, sizes
    return np.where(exact, r, np.nan), means, counts


def _group_eigenvalues(raw, k, n):
    """The :class:`Spectrum` of one row: the snapped integers of :func:`_groups`
    counted, then its clusters, by descending value (integers first on ties)."""
    ints, means, sizes = (a[0] for a in _groups(raw, k, n))
    values, counts = sorted_unique(ints[~np.isnan(ints)], return_counts=True)
    at = ~np.isnan(means)
    entries = [(v, c, True) for v, c in zip(values.astype(np.int64).tolist(), counts.tolist())]
    entries += [(v, c, False) for v, c in zip(means[at].tolist(), sizes[at].tolist())]
    entries.sort(key=lambda e: -e[0])
    return Spectrum(tuple(entries))


def spectrum_by_characters(graph):
    """One eigenvalue chi(C) per character: the graph's character table.

    An integer table (``Z_2^m``) is grouped exactly, by counting each value
    in [-k, k] (``|chi(C)| <= k``); a complex one goes through the snapping
    and clustering of :func:`_groups`.
    """
    table = graph.characters
    if table.dtype.kind == "i":
        counts = np.bincount(graph.k - table.ravel())  # index i counts the value k - i
        at = np.flatnonzero(counts)
        return Spectrum(tuple((v, c, True) for v, c in
                              zip((graph.k - at).tolist(), counts[at].tolist())))
    return _group_eigenvalues(_real(table.ravel(), graph.k), graph.k, graph.n)


def table_identity(graph, seed):
    """Whether the graph's character table passes a Freivalds-style identity
    against C alone, in ``TABLE_TRIALS`` trials drawn from
    ``random.Random(seed)``.

    For weights r = r_1 (x) ... (x) r_t on the factors (r_a = prod_i
    r_i(a_i)), swapping the sums over a and c gives
    sum_a r_a chi_a(C) = sum_{c in C} prod_i r^_i(c_i), with
    r^_i(x) = sum_j r_i(j) exp(2 pi i j x / d_i) the transform of r_i
    (Freivalds, IFIP 1977).  The left side contracts the grid-shaped table
    with one r_i per axis; the right side reads C's coordinates
    (``AbelianGroup.digits``) in O(k t).  No transform of size n is taken.

    On ``Z_2^m`` (an int64 table) the identity is exact in F_p,
    p = ``TABLE_PRIME``: r_i = (1, t_i) with t uniform in F_p^m, so
    r^_i(x) = 1 + t_i (-1)^x.  A wrong table makes the difference a nonzero
    multilinear polynomial of degree <= m in t, which one trial misses with
    probability at most m/p (Schwartz, JACM 1980).  Otherwise the real
    parts are compared in floats: r_i(x) = +-(1 + U[0, 1)), so every
    |r_a| >= 1, r^_i is one DFT of length d_i, and the sides must agree
    within tau = eps * sum_a |r_a|, the per-entry bound of the table
    weighted by the r_a: one entry off by more than tau moves the left side
    by more than tau.
    """
    group, p, table = graph.group, TABLE_PRIME, graph.characters
    exact = table.dtype.kind == "i"
    rng = random.Random(seed)
    for _ in range(TABLE_TRIALS):
        if exact:
            weights = [np.array([1, rng.randrange(p)]) for _ in group.factors]
            hats = [np.array([1 + w[1], 1 - w[1]]) % p for w in weights]
        else:  # a sign from the low bit of each random 64-bit word, U[0, 1) from its top 53
            words = [np.frombuffer(rng.randbytes(8 * d), dtype=np.uint64) for d in group.factors]
            weights = [np.where(w & 1, -1.0, 1.0) * (1.0 + (w >> 11) * 2.0 ** -53) for w in words]
            hats = [np.fft.fft(w) for w in weights]  # conj(r^_i): the sum's real part is kept
        left = table if exact else table.real
        for w in reversed(weights):  # exact: entries |x| < p and t < p < 2^31 keep sums < 2^62
            left = left @ w
            if exact:
                left %= p
        terms = np.ones(graph.k, dtype=hats[0].dtype)
        for i, digit in group.digits(graph.connection.indices):
            terms *= hats[i][digit]
            if exact:
                terms %= p
        if exact:
            agree = int(left) == int(terms.sum()) % p
        else:
            tau = tolerance(graph.k, graph.n) * math.prod(float(np.abs(w).sum()) for w in weights)
            agree = abs(float(left) - float(terms.sum().real)) <= tau
        if not agree:
            return False
    return True


def _verdicts(ints, means, k, n):
    """The Ramanujan decision for m rows of eigenvalues of degrees ``k`` on
    order n: exact values in ``ints``, unsnapped ones in ``means`` (NaN-padded).

    +-k is exempt (the -k of a bipartite graph; unsnapped: within eps).
    Any other exact value fails when lambda^2 > 4(k-1) (exact in floats for
    |lambda| < 2^26), an unsnapped one above 2*sqrt(k-1) + eps, within
    which it flags its row.  Returns both failure masks, the
    ``second_largest_abs`` list (the largest counted |lambda|: a Python int
    when exact, 0.0 when none) and the ``boundary_flag`` array.  An integer
    that ties an unsnapped value for the largest raises ArithmeticError:
    the choice would rest on order.
    """
    k = np.asarray(k, dtype=np.int64)[:, None]
    eps, bound = tolerance(k, n), 2.0 * np.sqrt(np.maximum(k - 1, 0))
    a = np.abs(ints)
    counted = ~np.isnan(a) & (a != k)
    bad_ints = counted & (ints * ints > 4 * (k - 1))
    top_int = np.where(counted, a, -1.0).max(axis=1, initial=-1.0)
    a = np.abs(means)
    counted = np.abs(a - k) > eps  # False on NaN
    bad_means = counted & (a > bound + eps)
    boundary = (counted & (np.abs(a - bound) <= eps)).any(axis=1)
    top_mean = np.where(counted, a, -1.0).max(axis=1, initial=-1.0)
    if ((top_int == top_mean) & (top_int >= 0)).any():
        raise ArithmeticError("an integer eigenvalue ties a cluster mean for the largest |lambda|")
    top = np.maximum(top_mean, 0.0).tolist()
    second = [int(x) if x > y else y for x, y in zip(top_int.tolist(), top)]
    return bad_ints, bad_means, second, boundary


def ramanujan_check(spectrum, k, connected):
    """Def: connected and every eigenvalue with |lambda| != k has
    lambda^2 <= 4(k-1), decided by :func:`_verdicts` on the spectrum as one
    row.  The reason names the first failing entry, which for a spectrum in
    descending order is the largest failing value."""
    bound = 2.0 * math.sqrt(k - 1) if k >= 1 else 0.0
    values = np.array([v for v, _, _ in spectrum.entries], dtype=float)
    exact = np.array([e for _, _, e in spectrum.entries], dtype=bool)
    bad_ints, bad_means, (second,), (boundary,) = _verdicts(
        np.where(exact, values, np.nan)[None], np.where(exact, np.nan, values)[None], [k],
        spectrum.n)
    bad = np.flatnonzero(bad_ints[0] | bad_means[0])
    reason = f"eigenvalue {spectrum.entries[bad[0]][0]} exceeds bound" if bad.size else ""
    connected = bool(connected)
    reason = reason if connected else "not connected"
    return RamanujanVerdict(not reason, second, bound, connected, bool(boundary), reason)


def _ramanujan_rows(raw, k, n):
    """Row-wise ``ramanujan_check(_group_eigenvalues(row, k, n), k, connected=True)``
    for the rows of ``raw`` and their degrees ``k`` (each >= 1): the arrays
    ``is_ramanujan`` and ``boundary_flag`` and the ``second_largest_abs`` list."""
    bad_ints, bad_means, second, boundary = _verdicts(*_groups(raw, k, n)[:2], k, n)
    return ~(bad_ints.any(axis=1) | bad_means.any(axis=1)), second, boundary


def second_largest_by_index(spectrum, k):
    """lambda_2 in the ordering lambda_1 = k >= lambda_2 >= ...: equals k when
    the top eigenvalue repeats (disconnected graph), which is what the edge
    crossing bound needs (the bound degenerates to 0 there)."""
    if spectrum.multiplicity(k) > 1:
        return k
    below = [v for v, _, _ in spectrum.entries if v < k]
    return max(below) if below else k


def _witnesses(table, k):
    """The nontrivial character indices the quotient cuts are taken at: the
    first attaining lambda_2 (the largest nontrivial entry, k when the graph
    is disconnected), then, if it is another, the first attaining the
    largest |lambda| more than eps from k (on ``Z_2^m``: other than
    +-k), when any entry has one."""
    rest = table[1:].real
    found = [1 + int(np.argmax(rest))]
    a = np.abs(rest)
    counted = np.abs(a - k) > tolerance(k, table.size)
    if counted.any():
        w = 1 + int(np.argmax(np.where(counted, a, -1)))
        if w != found[0]:
            found.append(w)
    return found


def quotient_cuts(graph, spec):
    """The expander mixing bound e(S, S^c) >= (k - lambda_2)|S||S^c|/n, with
    lambda_2 from ``spec``, checked on cuts read from C alone, and the table
    entries those cuts rest on checked against a direct sum over C.

    At each witness a of :func:`_witnesses`, of order e, the character is
    chi_a(v) = exp(2 pi i pi(v)/e) with the homomorphism
    pi(v) = sum_i (a_i e // d_i) v_i mod e (each d_i divides a_i e), so
    chi_a(C) = sum_c cos(2 pi pi(c)/e).  The graph's quotient by ker pi is
    the circulant multigraph on Z_e with the multiset pi(C) (an equitable
    partition), so the cut S = pi^-1({0, ..., h-1}), h = ceil(e/2), of size
    (n/e) h has (n/e) sum_{j<h} #{c : (j + pi(c)) mod e >= h} crossing
    edges.  An element c with pi(c) = r crosses from min(r, e - r) of the h
    residues j, so the count is (n/e) sum_c min(pi(c), e - pi(c)).  Both
    are read from C's coordinates (``AbelianGroup.digits``) in O(k t) for
    t factors: no array of size n (nor of size e) and no transform.

    A violation is a cut below its bound (compared exactly in integers when
    lambda_2 is exact, otherwise with lambda_2 taken eps higher), or a
    direct value off its table entry: exactly on ``Z_2^m``, otherwise by
    more than eps.  Violations are counted, never raised.  Returns
    ``{"cuts": [...], "violations": int}``, one cut per witness with its
    character (coordinates), order, cut, bound and direct value.
    """
    group, n, k = graph.group, graph.n, graph.k
    table = graph.characters.ravel()
    exact = table.dtype.kind == "i"
    lam2, eps = second_largest_by_index(spec, k), tolerance(k, n)
    witnesses = _witnesses(table, k)
    chars = np.array([x for _, x in group.digits(witnesses)][::-1]).T.tolist()  # a row each
    orders = [math.lcm(*(d // math.gcd(x, d) for x, d in zip(a, group.factors)))
              for a in chars]
    pis = [np.zeros(k, dtype=np.int64) for _ in witnesses]
    for i, digit in group.digits(graph.connection.indices):
        for pi, a, e in zip(pis, chars, orders):
            if a[i]:
                pi += a[i] * e // group.factors[i] * digit
    cuts, violations = [], 0
    for pi, a, e, at in zip(pis, chars, orders, witnesses):
        pi %= e
        size, cut = n // e * ((e + 1) // 2), n // e * int(np.minimum(pi, e - pi).sum())
        if isinstance(lam2, int):
            gap = (k - lam2) * size * (n - size)
            low = cut * n < gap
            bound = gap // n if gap % n == 0 else gap / n
        else:
            bound = (k - lam2) * size * (n - size) / n
            low = cut < bound - eps * size * (n - size) / n
        if exact:  # e = 2: the characters of Z_2^m are +-1
            direct = k - 2 * int(pi.sum())
            off = direct != table[at]
        else:
            direct = float(np.cos(2 * np.pi / e * pi).sum())
            off = abs(direct - table[at]) > eps
        violations += int(low) + int(off)
        cuts.append({"character": a, "order": e, "cut": cut, "bound": bound,
                     "direct": direct})
    return {"cuts": cuts, "violations": violations}


def gds_predicted_eigenvalues(cert):
    """The eigenvalue envelope +-sqrt(k - mu1 + (mu1 - mu2) * chi(S)) over
    the nonprincipal characters, for 0 in S; a chi(S) off the reals raises
    ArithmeticError (S = -S makes every chi(S) real).  The radicand R is
    off by at most |mu1 - mu2| eps_S, eps_S = ``tolerance(|S|, n)``, and an
    error delta in R is sqrt(delta) in the root, so R is snapped, not its
    root: R below -|mu1 - mu2| eps_S raises, and R within it of j^2 gives
    the exact int j."""
    group, s = cert.group, len(cert.S)
    slack = abs(cert.mu1 - cert.mu2) * tolerance(s, cert.n)
    table = group.character_sum_table(group.indicator(cert.S)).ravel()
    values = set()
    for chi_s in _real(table, s)[1:].tolist():  # flat index 0 is the principal character
        radicand = cert.k - cert.mu1 + (cert.mu1 - cert.mu2) * chi_s
        if radicand < -slack:
            raise ArithmeticError(f"negative radicand {radicand}")
        root = round(math.sqrt(max(radicand, 0.0)))
        if abs(radicand - root * root) > slack:
            root = math.sqrt(radicand)
        values.update((root, -root))
    return values

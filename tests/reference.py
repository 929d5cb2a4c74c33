"""Reference arithmetic on coordinate tuples and GF(2^m) scalars.

The library computes on flat indices and on log/exp arrays.  The functions
here do the same work one element at a time, as the paper states it, so the
tests can compare the array routes against them:

* group elements as tuples of residues: reduce, add, subtract, negate,
  membership, symmetry, characters and character sums;
* the Walsh-Hadamard transform on Z_2^m as the int64 radix-2 butterfly, one
  index bit at a time;
* neighbourhoods of a Cayley graph by tuple addition, and the symmetry of a
  spectrum about zero;
* the dense adjacency A[u, v] = 1_C[v - u] by one gather, and the
  spectrum of one unsplit symmetric eigensolve of it (the oracle: it reads
  no character values), compared with another spectrum by
  :func:`spectra_agree`;
* a spectrum grouped one value at a time (snapped integers, then clusters
  of the other values), its Ramanujan verdict one entry at a time, and a
  GDS certificate from one list of difference counts;
* GF(2^m) scalars: Frobenius, the index-2 subfield and its trace, polar decomposition, subfield embeddings, the two-parameter
  Kloosterman sum and additive character sums;
* the circulant-search encodings, and the tuple sets of the product and bent
  constructions;
* the GDS search over the full mask range, every proper subset of Z_n
  through the two-value kernel (no orbit or complement is skipped);
* the lines of hits.jsonl and hits.csv, one hit at a time through
  ``json.dumps`` and ``csv.writer``;
* crossing counts by the inverse route: A x for each column as a product
  of tables turned back into counts, then x . A x.
"""

import cmath
import csv
import io
import json
import math
from functools import reduce

import numpy as np

from cayleyx import GdsCertificate, Gf2Field
from cayleyx.groupring import _rotl, _two_valued
from cayleyx.spectral import (
    BOUNDARY_TOL,
    SNAP_TOL,
    RamanujanVerdict,
    Spectrum,
    _group_eigenvalues,
)

# Tolerance factor for "this character sum is real" decisions; the absolute
# tolerance used is IMAG_TOL_PER_TERM * |C|.
IMAG_TOL_PER_TERM = 1e-9

# Fourth roots of unity, exact.
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


# -- group elements as tuples ----------------------------------------------------

def _check(group, g):
    if len(g) != len(group.factors):
        raise ValueError(
            f"element {g!r} has {len(g)} coordinates, group has {len(group.factors)} factors"
        )
    return g


def contains(group, g):
    """Whether ``g`` is a reduced coordinate tuple of ``group``."""
    return (
        isinstance(g, tuple)
        and len(g) == len(group.factors)
        and all(0 <= x < d for x, d in zip(g, group.factors))
    )


def element(group, coords):
    """Reduce an arbitrary integer tuple coordinate-wise into the group."""
    coords = tuple(coords)
    _check(group, coords)
    return tuple(x % d for x, d in zip(coords, group.factors))


def add(group, g, h):
    _check(group, g)
    _check(group, h)
    return tuple((x + y) % d for x, y, d in zip(g, h, group.factors))


def sub(group, g, h):
    _check(group, g)
    _check(group, h)
    return tuple((x - y) % d for x, y, d in zip(g, h, group.factors))


def neg(group, g):
    _check(group, g)
    return tuple((-x) % d for x, d in zip(g, group.factors))


def is_symmetric(group, C):
    Cset = set(C)
    return all(neg(group, c) in Cset for c in Cset)


def character_value(group, a, x):
    """Value of the character with index ``a`` at the element ``x``.

    Exact fourth roots of unity are returned exactly; everything else is
    evaluated with double-precision cos/sin.
    """
    _check(group, a)
    _check(group, x)
    lcm = reduce(math.lcm, group.factors)
    # phase numerator over the common denominator lcm(factors)
    t = sum(ai * xi * (lcm // d) for ai, xi, d in zip(a, x, group.factors)) % lcm
    if (4 * t) % lcm == 0:
        return _QUARTER_TURNS[(4 * t // lcm) % 4]
    return cmath.exp(2j * cmath.pi * t / lcm)


def character_sum(group, a, C):
    """``chi_a(C) = sum_{c in C} chi_a(c)``.

    For symmetric ``C`` (``C = -C``) the sum is real; the imaginary part
    is checked against tolerance and dropped, and a float is returned.
    Otherwise the full complex value is returned.
    """
    C = list(C)
    total = sum(character_value(group, a, c) for c in C)
    if is_symmetric(group, C):
        if abs(total.imag) > IMAG_TOL_PER_TERM * max(len(C), 1):
            raise ArithmeticError(
                f"character sum over symmetric set has imaginary part {total.imag}"
            )
        return total.real
    return total


def butterfly(w):
    """The unnormalised Walsh-Hadamard transform of a C-ordered int64 array
    along its last axis (a power of two long), in place, returning ``w``:
    at each bit, ``(u, v) -> (u + v, u - v)`` on the pairs of flat indices
    that differ in that bit only."""
    n = w.shape[-1]
    h = 1
    while h < n:
        pairs = w.reshape(-1, n // (2 * h), 2, h)
        u, v = pairs[:, :, 0], pairs[:, :, 1]
        u += v
        v *= -2
        v += u  # (u + v) - 2v
        h *= 2
    return w


# -- Cayley graphs and spectra -----------------------------------------------------

def neighbors(graph, v):
    """The neighbours ``v + c`` of the tuple ``v``, one per ``c`` in C."""
    return [add(graph.group, v, c) for c in graph.connection]


def common_neighbors(graph, u, v):
    return len(set(neighbors(graph, u)) & set(neighbors(graph, v)))


def adjacency_matrix(graph):
    """Dense float A[u, v] = 1_C[v - u]: the indicator gathered at the flat
    index of v - u, built one factor at a time."""
    group, n = graph.group, graph.n
    coords = np.indices(group.factors).reshape(len(group.factors), -1)
    diff = np.zeros((n, n), dtype=np.int64)
    for c, d in zip(coords, group.factors):
        diff *= d
        diff += (c[None, :] - c[:, None]) % d
    return graph.indicator.ravel()[diff]


def spectrum_oracle(graph):
    """The spectrum of one unsplit dense symmetric eigensolve of A, grouped
    as :func:`cayleyx.spectral.spectrum_by_characters` groups the table."""
    return _group_eigenvalues(np.linalg.eigvalsh(adjacency_matrix(graph)), graph.n)


def spectra_agree(spec_a, spec_b):
    """Values within 1e-6, multiplicities exact."""
    ea, eb = spec_a.entries, spec_b.entries
    if len(ea) != len(eb):
        return False
    return all(
        abs(va - vb) <= 1e-6 and ma == mb
        for (va, ma, _), (vb, mb, _) in zip(ea, eb)
    )


def is_symmetric_about_zero(spectrum, tol=1e-9):
    """Whether every eigenvalue v has -v with the same multiplicity."""
    ms = spectrum.as_multiset()
    return all(
        any(abs(w + v) <= tol and mw == m for w, mw in ms.items())
        for v, m in ms.items()
    )


def group_eigenvalues(raw, n):
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


def ramanujan_verdict(spectrum, k, connected):
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


def gds_certificate(group, C, mu):
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


# -- GF(2^m) scalars ---------------------------------------------------------------

def frobenius(fld, e, i=1):
    """e^(2^i)."""
    for _ in range(i % fld.m):
        e = fld.mul(e, e)
    return e


def in_subfield(fld, e):
    """Whether e lies in the index-2 subfield GF(2^(m/2)); m must be even."""
    if fld.m % 2:
        raise ValueError("field degree must be even to have an index-2 subfield")
    return frobenius(fld, e, fld.m // 2) == e


def subfield_trace(fld, e):
    """Trace of a subfield element onto GF(2): sum_{i < m/2} e^(2^i).

    Requires m even and e fixed by the conjugation x -> x^(2^(m/2)).
    """
    if fld.m % 2:
        raise ValueError("field degree must be even")
    if not in_subfield(fld, e):
        raise ValueError(f"{e} does not lie in the subfield GF(2^{fld.m // 2})")
    t, x = 0, e
    for _ in range(fld.m // 2):
        t ^= x
        x = fld.mul(x, x)
    assert t in (0, 1)
    return t


def polar_decompose(fld, x):
    """Unique (y, z) with x = y*z, y in GF(2^(m/2))*, z^(2^(m/2)+1) = 1.

    The norm x^(2^(m/2)+1) equals y^2, and squaring is a bijection in
    characteristic 2, so y is the unique square root of the norm.
    """
    if fld.m % 2:
        raise ValueError("field degree must be even")
    if x == 0:
        raise ZeroDivisionError("polar decomposition of zero")
    h = fld.m // 2
    norm = fld.mul(x, frobenius(fld, x, h))   # = y^2
    y = frobenius(fld, norm, fld.m - 1)       # square root
    z = fld.mul(x, fld.inv(y))
    return y, z


def embed_subfield(sub, big):
    """Embedding GF(2^m) -> GF(2^(m*s)) as a lookup list, via a root of the
    small modulus in the big field (smallest root, for determinism)."""
    if big.m % sub.m:
        raise ValueError("no subfield embedding: degree does not divide")
    root = None
    for cand in range(big.order):
        # evaluate sub.modulus at cand by Horner
        acc = 0
        for bit in range(sub.m, -1, -1):
            acc = big.mul(acc, cand)
            if (sub.modulus >> bit) & 1:
                acc ^= 1
        if acc == 0:
            root = cand
            break
    assert root is not None
    powers = [1]
    for _ in range(sub.m - 1):
        powers.append(big.mul(powers[-1], root))
    table = []
    for e in range(sub.order):
        img = 0
        for i in range(sub.m):
            if (e >> i) & 1:
                img ^= powers[i]
        table.append(img)
    return table


def kloosterman_pair(m, a, b, field=None):
    """Two-parameter sum ``k_m(a, b) = sum_{x != 0} (-1)^{Tr(a*x + b*x^{-1})}``."""
    fld = field if field is not None else Gf2Field(m)
    total = 0
    for x in range(1, fld.order):
        e = fld.mul(a, x) ^ fld.mul(b, fld.inv(x))
        total += 1 - 2 * fld.trace(e)
    return total


def additive_character_sum(fld, a, elements):
    """sum over D of (-1)^Tr(a*z): the additive character chi_a under the
    trace pairing (the labeling the closed forms are stated in)."""
    return sum(1 - 2 * fld.trace(fld.mul(a, z)) for z in elements)


# -- encodings and construction sets ------------------------------------------------

def connection_from_encoding(n, s):
    """The symmetric subset of Z_n selected by the encoding bits: bit i-1
    selects {i, n-i} for i = 1..n//2."""
    C = set()
    for i in range(1, n // 2 + 1):
        if (s >> (i - 1)) & 1:
            C.add(i)
            C.add(n - i)
    return tuple(sorted(C))


def degree_of_encoding(n, s):
    deg = 0
    for i in range(1, n // 2 + 1):
        if (s >> (i - 1)) & 1:
            deg += 1 if 2 * i == n else 2
    return deg


def theorem33_tuples(s, r):
    """(C0 x K) symmetric difference (E x C1) in Z_s x Z_r as a set of tuples,
    C0 and C1 the punctured even-index subgroups."""
    a_block = {(x, y) for x in range(2, s, 2) for y in range(r)}
    b_block = {(x, y) for x in range(s) for y in range(2, r, 2)}
    return frozenset(a_block ^ b_block)


def bent_tuples(group, u):
    """The support of the inner-product bent function on Z_2^{2u} as a set
    of tuples: sum_i g_i g_{u+i} is odd."""
    return frozenset(
        g for g in group.elements()
        if sum(g[i] & g[u + i] for i in range(u)) % 2 == 1
    )


# -- the GDS search over every mask ----------------------------------------------

def gds_full_range_scan(n):
    """``(masks, counts)`` of every GDS of Z_n with 2 <= |C| <= n - 1: each
    mask below 2^n - 1 with two bits or more through ``_two_valued``, then
    the survivors' rows of counts mu_1..mu_{n-1}, in increasing mask order."""
    masks = np.arange((1 << n) - 1, dtype=np.uint64)
    masks = _two_valued(masks[np.bitwise_count(masks) >= 2], n)
    rows = masks[:, None]
    return masks, np.bitwise_count(rows & _rotl(rows, np.arange(1, n, dtype=np.uint64), n))


# -- search hits as json.dumps and csv.writer write them ---------------------------

def ramanujan_hit_line(hit):
    """The hits.jsonl line of a circulant-search hit (a ``SearchHit``),
    without its newline."""
    return json.dumps({
        "n": hit.n,
        "s": hit.encoding,
        "C": list(hit.C),
        "k": hit.degree,
        "lambda2_abs": hit.second_largest_abs,
        "verdict": hit.verdict.to_json(),
    }, sort_keys=True)


def ramanujan_csv_row(hit):
    """The hits.csv row of a circulant-search hit, as ``csv.writer`` ends it."""
    buf = io.StringIO()
    csv.writer(buf).writerow([hit.n, hit.encoding, hit.degree, hit.second_largest_abs,
                              int(hit.verdict.is_ramanujan)])
    return buf.getvalue()


def gds_hit_line(n, C, cert):
    """The hits.jsonl line of a GDS-search hit ``(C, cert)``, without its
    newline."""
    return json.dumps({"n": n, "C": C.tolist(), "certificate": cert.to_json()},
                      sort_keys=True)


# -- crossing counts through A x ---------------------------------------------------

def crossing_counts_by_inverse(graph, indicators):
    """Edge counts between Omega1 and its complement for a batch of 0/1
    indicator columns (n x batch): each column's A x = x * 1_C by one
    forward transform of the columns, times the graph's table, and the
    inverse ``counts``; then the edges inside, x . A x."""
    group = graph.group
    X = np.asarray(indicators, dtype=float)
    grids = X.T.reshape(-1, *group.factors)
    AX = group.counts(group.character_sum_table(grids), graph.characters)
    AX = AX.reshape(X.shape[1], -1).T
    sizes = X.sum(axis=0)
    inside_twice = np.einsum("ij,ij->j", X, AX)
    return (graph.k * sizes - inside_twice).round().astype(int), sizes.astype(int)

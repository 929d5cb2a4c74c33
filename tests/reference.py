"""Reference arithmetic on coordinate tuples and GF(2^m) scalars.

The library computes on flat indices and on exponent tables.  The functions
here do the same work one element at a time, as the paper states it, so the
tests can compare the array routes against them:

* group elements as tuples of residues: reduce, add, subtract, negate,
  membership, symmetry, the subgroup a set generates, characters and
  character sums;
* the Walsh-Hadamard transform on Z_2^m as the int64 radix-2 butterfly, one
  index bit at a time;
* neighbourhoods of a Cayley graph by tuple addition, and the symmetry of a
  spectrum about zero;
* the dense adjacency A[u, v] = 1_C[v - u] by one gather, and the
  spectrum of one unsplit symmetric eigensolve of it (the oracle: it reads
  no character values), compared with another spectrum by
  :func:`spectra_agree`;
* a spectrum built from (value, multiplicity, exact) triples, and one
  grouped one value at a time (snapped integers, then clusters of the
  other values), its power sums tr A^j, its Ramanujan verdict one
  entry at a time, a GDS certificate from one list of difference counts,
  the difference-set parameters read off one, and the exact group-ring
  identity a certificate states;
* GF(2^m) scalars: the trace as a sum of squarings, Frobenius, the
  index-2 subfield and its trace, polar
  decomposition, subfield embeddings and additive character sums;
* the Kloosterman routes besides the library's table: the direct sum
  k_m(a) over x = g^i, the two-parameter sum, the recursion and the Carlitz
  closed form for k_m(1), and the lift to GF(2^(ms)); and the closed-form
  sizes |D_{i,j}| they give;
* the circulant-search encodings, and the tuple sets of the product and bent
  constructions;
* the GDS search over the full mask range, every proper subset of Z_n
  through the two-value kernel (no orbit or complement is skipped);
* the lines of hits.jsonl, one hit at a time through ``json.dumps``;
* crossing counts by the inverse route: A x for each column as a product
  of tables turned back into counts, then x . A x, next to the crossing
  bound (k - lambda_2)|Omega1||Omega2|/n.
"""

import cmath
import json
import math
from functools import reduce

import numpy as np

from cayleyx import GdsCertificate, Gf2Field, spectral, spectrum_by_characters, verify_gds
from cayleyx.gf2 import _sign_tables
from cayleyx.groupring import _difference_array, _rotl, _two_valued
from cayleyx.spectral import (
    RamanujanVerdict,
    Spectrum,
    _group_eigenvalues,
    second_largest_by_index,
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


def subgroup_generated(group, gens):
    """The subgroup generated by ``gens`` (0 included), by tuple additions
    from 0: in a finite group the additive closure is closed under negation."""
    gens = [element(group, g) for g in gens]
    closure, todo = {group.zero}, [group.zero]
    while todo:
        u = todo.pop()
        for w in (add(group, u, g) for g in gens):
            if w not in closure:
                closure.add(w)
                todo.append(w)
    return frozenset(closure)


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
    return graph.group.indicator(graph.connection.indices).ravel()[diff]


def spectrum_oracle(graph):
    """The spectrum of one unsplit dense symmetric eigensolve of A, grouped
    as :func:`cayleyx.spectral.spectrum_by_characters` groups the table."""
    return _group_eigenvalues(np.linalg.eigvalsh(adjacency_matrix(graph)), graph.k, graph.n)


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
    ms = {v: m for v, m, _ in spectrum.entries}
    return all(
        any(abs(w + v) <= tol and mw == m for w, mw in ms.items())
        for v, m in ms.items()
    )


def group_eigenvalues(raw, k, n):
    """Snap the values less than eps from an integer, then group the others
    at gaps of at most 2 eps, with the package's eps for degree k and
    order n (read through the module, so a patched model is seen)."""
    eps = spectral.tolerance(k, n)
    exact_counts = {}
    real_values = []
    for v in raw:
        r = round(v)
        if abs(v - r) < eps:
            exact_counts[r] = exact_counts.get(r, 0) + 1
        else:
            real_values.append(v)
    entries = [(int(v), m, True) for v, m in exact_counts.items()]
    if real_values:
        real_values.sort()
        start = 0
        for i in range(1, len(real_values) + 1):
            if i == len(real_values) or real_values[i] - real_values[i - 1] > 2 * eps:
                cluster = real_values[start:i]
                entries.append((sum(cluster) / len(cluster), len(cluster), False))
                start = i
    entries.sort(key=lambda e: -e[0])
    return spectrum_of(entries)


def spectrum_of(entries):
    """The :class:`Spectrum` record of (value, multiplicity, exact) triples,
    in the order given."""
    values, mults, exact = zip(*entries) if entries else ((), (), ())
    return Spectrum(np.array(values, dtype=float), np.array(mults, dtype=np.int64),
                    np.array(exact, dtype=bool))


def power_sum(spectrum, j):
    """sum of m * v^j over the entries: tr A^j of the graph (tr A = 0 and
    tr A^2 = nk for a k-regular graph without loops)."""
    return sum(m * v ** j for v, m, _ in spectrum.entries)


def ramanujan_verdict(spectrum, k, connected):
    """Def: connected and every eigenvalue with |lambda| != k has
    lambda^2 <= 4(k-1).  Both +k and -k are exempt (the -k of a bipartite
    graph does not break the bound)."""
    bound = 2.0 * math.sqrt(k - 1) if k >= 1 else 0.0
    eps = spectral.tolerance(k, spectrum.n)
    boundary = False
    second = 0.0
    failure = ""
    for v, _, exact in spectrum.entries:
        a = abs(v)
        if (a == k) if exact else (abs(a - k) <= eps):
            continue
        second = max(second, a)
        if not exact and abs(a - bound) <= eps:
            boundary = True
        ok = (v * v <= 4 * (k - 1)) if exact else (a <= bound + eps)
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
)


def verify_difference_set(group, C):
    """(n, k, lambda) iff every nonidentity difference count of C is equal,
    i.e. C's GDS certificate has mu1 = mu2; None otherwise."""
    cert = verify_gds(group, C)
    if cert is None or cert.mu1 != cert.mu2:
        return None
    return (cert.n, cert.k, cert.mu1)


def check_group_ring_identity(cert):
    """Exact termwise check of the group-ring identity behind the certificate.

    With 0 in S the product C*C^(-1) must equal
    (k - mu1)*0 + mu1*S + mu2*(G - S).
    """
    group = cert.group
    expected = cert.mu2 + (cert.mu1 - cert.mu2) * group.indicator(cert.S).ravel()
    expected[0] += cert.k - cert.mu1
    return bool(np.array_equal(_difference_array(group, cert.C), expected))


# -- GF(2^m) scalars ---------------------------------------------------------------

def trace_by_squaring(fld, e):
    """Tr(e) = sum_{i < m} e^(2^i), one squaring at a time."""
    t = 0
    for _ in range(fld.m):
        t ^= e
        e = fld.mul(e, e)
    assert t in (0, 1)
    return t


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


def kloosterman(m, a, field=None):
    """Exact ``k_m(a) = sum_{x != 0} (-1)^{Tr(a*x + x^{-1})}``, summed over
    x = exp[i] of the field's exponent table, where a*x = exp[i + log a]
    (log a found once)."""
    fld = field if field is not None else Gf2Field(m)
    fld._chk(a)
    signs, inv_signs = _sign_tables(fld)
    if a:
        exp = fld._exp_table
        inv_signs = inv_signs[exp] * signs[np.roll(exp, -np.flatnonzero(exp == a)[0])]
    return int(inv_signs.sum())


def kloosterman_one_recursive(m):
    """``k_m(1)`` from the recursion k_{m+2} = -k_{m+1} - 2*k_m, seeds 1, 3."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k1, k2 = 1, 3
    if m == 1:
        return k1
    for _ in range(m - 2):
        k1, k2 = k2, -k2 - 2 * k1
    return k2


def kloosterman_one_carlitz(m):
    """``k_m(1)`` by Carlitz's alternating binomial closed form."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    for j in range(m // 2 + 1):
        term = m * math.comb(m - j, j) * (2 ** j)
        assert term % (m - j) == 0
        total += (-1) ** (m - j) * (term // (m - j))
    return -total


def kloosterman_lifted(m, s, a, field=None):
    """The lifted sum over F_{q^s}, q = 2^m, by the lifting recursion
    K_s = -K_{s-1} k_m(a) - q K_{s-2}, seeds K_0 = -2 and K_1 = k_m(a)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return -2
    q = 1 << m
    prev, cur = -2, kloosterman(m, a, field)
    k1 = cur
    for _ in range(s - 1):
        prev, cur = cur, -cur * k1 - q * prev
    return cur


def dij_cardinality(m, i, j):
    """Closed-form |D_{i,j}| = (2^m - 1 - (-1)^j - (-1)^i + (-1)^(i+j) k_m(1))/4."""
    if m < 2:
        raise ValueError("cardinality formulas need m >= 2 (divisibility)")
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("i and j must be bits")
    num = (1 << m) - 1 - (-1) ** j - (-1) ** i + (-1) ** (i + j) * kloosterman(m, 1)
    assert num % 4 == 0
    return num // 4


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


# -- search hits as json.dumps writes them ---------------------------

def ramanujan_hit_line(hit):
    """The hits.jsonl line of a circulant-search hit (a ``SearchHit``),
    without its newline."""
    return json.dumps({
        "n": hit.n,
        "s": hit.encoding,
        "C": list(hit.C),
        "lambda2_abs": hit.second_largest_abs,
        "boundary_flag": hit.verdict.boundary_flag,
    }, sort_keys=True)


def gds_hit_line(n, C, cert):
    """The hits.jsonl line of a GDS-search hit ``(C, cert)``, without its
    newline."""
    return json.dumps({"n": n, "C": C.tolist(), "gds": list(cert.parameters)},
                      sort_keys=True)


# -- crossing counts through A x ---------------------------------------------------

def crossing_counts_by_inverse(graph, indicators):
    """Edge counts between Omega1 and its complement for a batch of 0/1
    indicator columns (n x batch), the sizes |Omega1| and the crossing
    bounds (k - lambda_2)|Omega1||Omega2|/n, lambda_2 by index.  Each
    column's A x = x * 1_C is one forward transform of the columns, times
    the graph's table, and the inverse ``counts``; then the edges inside,
    x . A x."""
    group = graph.group
    X = np.asarray(indicators, dtype=float)
    grids = X.T.reshape(-1, *group.factors)
    AX = group.counts(group.character_sum_table(grids), graph.characters)
    AX = AX.reshape(X.shape[1], -1).T
    sizes = X.sum(axis=0)
    inside_twice = np.einsum("ij,ij->j", X, AX)
    sizes = sizes.astype(int)
    gap = graph.k - second_largest_by_index(spectrum_by_characters(graph), graph.k)
    bounds = gap * sizes * (graph.n - sizes) / graph.n
    return (graph.k * sizes - inside_twice).round().astype(int), sizes, bounds

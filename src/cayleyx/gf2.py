"""Arithmetic in GF(2^m) and Kloosterman sums.

Field elements are ints below ``2**m``, read as polynomial-basis coordinate
vectors (bit ``i`` is the coefficient of ``x^i``).  The modulus defaults to
the lexicographically smallest irreducible polynomial of the right degree,
found by sieve, so field construction is deterministic.

The Kloosterman sum ``k_m(a) = sum_{x != 0} (-1)^{Tr(a*x + x^{-1})}`` is
computed by three independent routes (direct evaluation, the three-term
recursion for ``k_m(1)``, and the Carlitz closed form) so each can check the
others.  Full value tables (m <= 12) are computed from the log tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "Gf2Field",
    "KloostermanTable",
    "smallest_irreducible",
    "is_irreducible",
    "kloosterman",
    "kloosterman_pair",
    "kloosterman_one_recursive",
    "kloosterman_one_carlitz",
    "kloosterman_lifted",
    "kloosterman_value_set",
    "embed_subfield",
]

MAX_DEGREE = 24          # budget for direct sums
MAX_TABLE_DEGREE = 12    # budget for full value tables


# -- polynomial arithmetic over GF(2), ints as coefficient bitstrings --------

def _poly_reduce(a, modulus, m):
    while a.bit_length() > m:
        a ^= modulus << (a.bit_length() - 1 - m)
    return a


def _poly_mul_mod(a, b, modulus, m):
    r = 0
    a = _poly_reduce(a, modulus, m)
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= modulus
    return r


def _poly_gcd(a, b):
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _prime_divisors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(p, m):
    """Rabin test: x^(2^m) == x mod p, and gcd(x^(2^(m/d)) - x, p) = 1."""
    if p.bit_length() != m + 1:
        return False

    def pow_x(e):
        r, base = 1, _poly_reduce(2, p, m)
        while e:
            if e & 1:
                r = _poly_mul_mod(r, base, p, m)
            base = _poly_mul_mod(base, base, p, m)
            e >>= 1
        return r

    x_red = _poly_reduce(2, p, m)
    if pow_x(1 << m) != x_red:
        return False
    for d in _prime_divisors(m):
        if _poly_gcd(pow_x(1 << (m // d)) ^ x_red, p) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(m):
    """Lexicographically smallest irreducible polynomial of degree m."""
    for c in range(1 << m, 1 << (m + 1)):
        if is_irreducible(c, m):
            return c
    raise AssertionError(f"no irreducible polynomial of degree {m}")  # unreachable


# -- the field ----------------------------------------------------------------

class Gf2Field:
    """GF(2^m) in polynomial basis; immutable and shareable."""

    def __init__(self, m, modulus=None):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {m}")
        self.m = m
        self.order = 1 << m
        self.modulus = smallest_irreducible(m) if modulus is None else int(modulus)
        if not is_irreducible(self.modulus, m):
            raise ValueError(f"modulus {self.modulus:#x} is not irreducible of degree {m}")
        # trace is F2-linear: Tr(e) = parity(e & mask) where the mask collects
        # the basis monomials of trace 1
        mask = 0
        for i in range(m):
            if self._trace_slow(1 << i):
                mask |= 1 << i
        self._trace_mask = mask
        self._log = None
        self._exp = None

    def __repr__(self):
        return f"Gf2Field(m={self.m}, modulus={self.modulus:#x})"

    def _chk(self, e):
        if not 0 <= e < self.order:
            raise ValueError(f"{e} is not an element of GF(2^{self.m})")
        return e

    def add(self, a, b):
        return self._chk(a) ^ self._chk(b)

    def mul(self, a, b):
        return _poly_mul_mod(self._chk(a), self._chk(b), self.modulus, self.m)

    def pow(self, a, e):
        self._chk(a)
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        if self._chk(a) == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^m)")
        return self.pow(a, self.order - 2)

    def frobenius(self, e, i=1):
        """e^(2^i)."""
        for _ in range(i % self.m):
            e = self.mul(e, e)
        return e

    def trace(self, e):
        """Absolute trace onto GF(2), as an int in {0, 1}."""
        return bin(self._chk(e) & self._trace_mask).count("1") & 1

    def _trace_slow(self, e):
        t, x = 0, e
        for _ in range(self.m):
            t ^= x
            x = _poly_mul_mod(x, x, self.modulus, self.m)
        assert t in (0, 1)
        return t

    # -- GF(2^{2m}) machinery: subfield fixed by x -> x^(2^m) ---------------

    def in_subfield(self, e):
        """Whether e lies in the index-2 subfield GF(2^(m/2)); m must be even."""
        if self.m % 2:
            raise ValueError("field degree must be even to have an index-2 subfield")
        return self.frobenius(e, self.m // 2) == e

    def conj(self, e):
        """x -> x^(2^(m/2)), the subfield conjugation; m must be even."""
        if self.m % 2:
            raise ValueError("field degree must be even")
        return self.frobenius(e, self.m // 2)

    def subfield_trace(self, e):
        """Trace of a subfield element onto GF(2): sum_{i < m/2} e^(2^i).

        Requires m even and e fixed by the conjugation x -> x^(2^(m/2)).
        """
        if self.m % 2:
            raise ValueError("field degree must be even")
        if not self.in_subfield(e):
            raise ValueError(f"{e} does not lie in the subfield GF(2^{self.m // 2})")
        t, x = 0, e
        for _ in range(self.m // 2):
            t ^= x
            x = self.mul(x, x)
        assert t in (0, 1)
        return t

    def polar_decompose(self, x):
        """Unique (y, z) with x = y*z, y in GF(2^(m/2))*, z^(2^(m/2)+1) = 1.

        The norm x^(2^(m/2)+1) equals y^2, and squaring is a bijection in
        characteristic 2, so y is the unique square root of the norm.
        """
        if self.m % 2:
            raise ValueError("field degree must be even")
        if self._chk(x) == 0:
            raise ZeroDivisionError("polar decomposition of zero")
        h = self.m // 2
        norm = self.mul(x, self.frobenius(x, h))   # = y^2
        y = self.frobenius(norm, self.m - 1)       # square root
        z = self.mul(x, self.inv(y))
        return y, z

    # -- discrete-log tables for vectorized sums ----------------------------

    def _dlog_tables(self):
        if self._log is None:
            q = self.order
            exp = np.zeros(q - 1, dtype=np.int64)
            log = np.zeros(q, dtype=np.int64)
            if q == 2:
                exp[0] = 1
                log[1] = 0
                self._exp, self._log = exp, log
                return self._exp, self._log
            for g in range(2, q):
                e, ok = 1, True
                for i in range(q - 1):
                    exp[i] = e
                    e = self.mul(e, g)
                    if e == 1 and i < q - 2:
                        ok = False
                        break
                if ok and e == 1:
                    break
            else:
                raise AssertionError("no primitive element found")  # unreachable
            log[exp] = np.arange(q - 1)
            self._exp, self._log = exp, log
        return self._exp, self._log

    def trace_signs(self):
        """ndarray of (-1)^Tr(x) over all x, via the linear trace mask."""
        x = np.arange(self.order, dtype=np.int64) & self._trace_mask
        par = x.copy()
        shift = 1
        while shift < self.m + 1:
            par ^= par >> shift
            shift <<= 1
        return 1 - 2 * (par & 1)


# -- Kloosterman sums ----------------------------------------------------------

def kloosterman(m, a, field=None):
    """Exact ``k_m(a) = sum_{x != 0} (-1)^{Tr(a*x + x^{-1})}``."""
    fld = field if field is not None else Gf2Field(m)
    fld._chk(a)
    q = fld.order
    signs = fld.trace_signs()
    exp, log = fld._dlog_tables()
    xs = np.arange(1, q, dtype=np.int64)
    inv_xs = exp[(q - 1 - log[xs]) % (q - 1)]
    if a == 0:
        return int(signs[inv_xs].sum())
    ax = exp[(log[a] + log[xs]) % (q - 1)]
    return int((signs[ax] * signs[inv_xs]).sum())


def kloosterman_pair(m, a, b, field=None):
    """Two-parameter sum ``k_m(a, b) = sum_{x != 0} (-1)^{Tr(a*x + b*x^{-1})}``."""
    fld = field if field is not None else Gf2Field(m)
    total = 0
    for x in range(1, fld.order):
        e = fld.mul(a, x) ^ fld.mul(b, fld.inv(x))
        total += 1 - 2 * fld.trace(e)
    return total


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
    """``k_m(1)`` by the alternating binomial closed form."""
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    for j in range(m // 2 + 1):
        term = m * math.comb(m - j, j) * (2 ** j)
        assert term % (m - j) == 0
        total += (-1) ** (m - j) * (term // (m - j))
    return -total


def kloosterman_lifted(m, s, a, field=None):
    """Value of the lifted sum over F_{q^s}, q = 2^m, by the lifting recursion.

    Seeds: the s = 0 value is -2 by convention, s = 1 is k_m(a).
    """
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


class KloostermanTable:
    """The map a -> k_m(a) over all of GF(2^m)."""

    def __init__(self, m, values, modulus):
        self.m = m
        self.values = dict(values)
        self.modulus = modulus

    @classmethod
    def compute(cls, m):
        if not 1 <= m <= MAX_TABLE_DEGREE:
            raise ValueError(f"table degree must be in [1, {MAX_TABLE_DEGREE}], got {m}")
        fld = Gf2Field(m)
        q = fld.order
        signs = fld.trace_signs()
        exp, log = fld._dlog_tables()
        xs = np.arange(1, q, dtype=np.int64)
        inv_signs = signs[exp[(q - 1 - log[xs]) % (q - 1)]]
        values = {0: int(inv_signs.sum())}
        logx = log[xs]
        for a in range(1, q):
            ax = exp[(log[a] + logx) % (q - 1)]
            values[a] = int((signs[ax] * inv_signs).sum())
        weil = 2 * math.sqrt(q)
        assert all(abs(v) <= weil for v in values.values())
        return cls(m, values, fld.modulus)

    def __getitem__(self, a):
        return self.values[a]


def kloosterman_value_set(m):
    """The set ``{k_m(lambda) : lambda in GF(2^m)}`` (enumerated, m <= 12)."""
    if not 2 <= m <= MAX_TABLE_DEGREE:
        raise ValueError(f"m must be in [2, {MAX_TABLE_DEGREE}] for the value set")
    return set(KloostermanTable.compute(m).values.values())

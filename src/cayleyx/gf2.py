"""Arithmetic in GF(2^m) and Kloosterman sums.

Field elements are ints below ``2**m``, read as polynomial-basis coordinate
vectors (bit ``i`` is the coefficient of ``x^i``).  The modulus defaults to
the lexicographically smallest irreducible polynomial of the right degree,
found by sieve, so field construction is deterministic.  A field's order
2^m is checked against :data:`cayleyx.groups.MAX_ORDER` when it is built, so
that one limit bounds every table over it.

The Kloosterman sum ``k_m(a) = sum_{x != 0} (-1)^{Tr(a*x + x^{-1})}`` has
one route, the value table ``a -> k_m(a)`` (:class:`KloostermanTable`),
which is one Walsh-Hadamard transform: ``a -> Tr(a*x)`` is the character of
``Z_2^m`` at the trace-dual label ``b(a)``, ``b(a)_i = Tr(a*x^i)``, so
``k_m(a)`` is the transform of ``x -> (-1)^Tr(1/x)`` at ``b(a)``.  The
scalar operations of :class:`Gf2Field` (``add``, ``mul``, ``pow``, ``inv``,
``trace``) are the element-at-a-time definitions the tests check the
tables against.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .groups import AbelianGroup, check_order_log2

__all__ = [
    "Gf2Field",
    "KloostermanTable",
    "smallest_irreducible",
    "is_irreducible",
    "kloosterman_value_set",
]


# -- polynomial arithmetic over GF(2), ints as coefficient bitstrings --------

def _poly_reduce(a, modulus, m):
    while a.bit_length() > m:
        a ^= modulus << (a.bit_length() - 1 - m)
    return a


def _poly_mul_mod(a, b, modulus, m):
    """``a * b`` modulo the degree-m ``modulus``, for a reduced ``a`` (an int,
    or an int64 array multiplied elementwise) and an int ``b``."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a = a << 1
        a ^= ((a >> m) & 1) * modulus
    return r


def _poly_pow(a, e, modulus, m):
    """``a^e`` modulo the degree-m ``modulus`` for a reduced ``a`` and e >= 0."""
    r = 1
    while e:
        if e & 1:
            r = _poly_mul_mod(r, a, modulus, m)
        a = _poly_mul_mod(a, a, modulus, m)
        e >>= 1
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

    x_red = _poly_reduce(2, p, m)
    if _poly_pow(x_red, 1 << m, p, m) != x_red:
        return False
    for d in _prime_divisors(m):
        if _poly_gcd(_poly_pow(x_red, 1 << (m // d), p, m) ^ x_red, p) != 1:
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
    """GF(2^m) in polynomial basis; immutable and shareable.

    ``Tr(e)`` is the parity of ``e & mask``; bit i of the mask, ``Tr(x^i)``,
    is the power sum p_i of the modulus' roots.  Newton's identities give it
    from the coefficient e_j of ``x^(m-j)``: p_0 = m and, mod 2,
    p_k = sum_{0<j<k} e_j p_{k-j} + k e_k."""

    def __init__(self, m, modulus=None):
        if m < 1:
            raise ValueError(f"degree must be >= 1, got {m}")
        self.m = m
        self.order = check_order_log2(m, f"GF(2^{m})")
        self.modulus = smallest_irreducible(m) if modulus is None else int(modulus)
        if modulus is not None and not is_irreducible(self.modulus, m):
            raise ValueError(f"modulus {self.modulus:#x} is not irreducible of degree {m}")
        e = [(self.modulus >> (m - j)) & 1 for j in range(m + 1)]
        p = [m & 1]
        for k in range(1, m):
            p.append((sum(e[j] & p[k - j] for j in range(1, k)) + k * e[k]) & 1)
        self._trace_mask = sum(t << i for i, t in enumerate(p))

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
        return _poly_pow(a, e, self.modulus, self.m)

    def inv(self, a):
        if self._chk(a) == 0:
            raise ZeroDivisionError("inversion of zero in GF(2^m)")
        return self.pow(a, self.order - 2)

    def trace(self, e):
        """Absolute trace onto GF(2), as an int in {0, 1}."""
        return bin(self._chk(e) & self._trace_mask).count("1") & 1

    # -- the exponent table for vectorized sums -------------------------------

    @cached_property
    def _exp_table(self):
        """exp[i] = g^i for i < q - 1 and the smallest primitive element g, so
        that a product is a sum of exponents and 1/exp[i] = exp[-i].

        g is the first element with g^((q-1)/p) != 1 for every prime p
        dividing q - 1.  The table is filled by doubling, ``exp[k:2k] =
        exp[:k] * g^k``, each step one carry-less multiply of an array.
        """
        q, modulus, m = self.order, self.modulus, self.m
        g = next(c for c in range(1, q)
                 if all(_poly_pow(c, (q - 1) // p, modulus, m) != 1
                        for p in _prime_divisors(q - 1)))
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        k, g_k = 1, g
        while k < q - 1:
            w = min(k, q - 1 - k)
            exp[k:k + w] = _poly_mul_mod(exp[:w], g_k, modulus, m)
            k += w
            g_k = _poly_mul_mod(g_k, g_k, modulus, m)
        return exp

    def trace_signs(self):
        """ndarray of (-1)^Tr(x) over all x, via the linear trace mask."""
        signs = np.ones(1, dtype=np.int64)
        for i in range(self.m):  # Tr(x + 2^i) = Tr(x) + Tr(2^i) for x < 2^i
            signs = np.concatenate((signs, -signs if (self._trace_mask >> i) & 1 else signs))
        return signs


# -- Kloosterman sums ----------------------------------------------------------

def _sign_tables(fld):
    """``(signs, inv_signs)`` of a field: ``signs[x] = (-1)^Tr(x)`` and
    ``inv_signs[x] = (-1)^Tr(1/x)`` over all x (``inv_signs[0] = 0``), one
    scatter of signs[exp[-i]] to x = exp[i], as 1/exp[i] = exp[-i]."""
    signs, exp = fld.trace_signs(), fld._exp_table
    inv_signs = np.zeros_like(signs)
    inv_signs[exp] = signs[np.roll(exp[::-1], 1)]
    return signs, inv_signs


def _kloosterman_values(fld, inv_signs):
    """int64 array of ``k_m(a)`` for every a, by one transform of ``inv_signs``.

    ``Tr(a*x) = <x, b(a)>`` over the polynomial-basis bits of x, where
    ``b(a)_i = Tr(a*x^i)``, so ``k_m(a) = W[f](b(a))`` for the Walsh-Hadamard
    transform ``W`` of ``f(x) = (-1)^Tr(1/x)`` (``f(0) = 0``).  ``b`` is
    F_2-linear: the image of ``x^j`` has bits ``Tr(x^(i+j))``.
    """
    m = fld.m
    group = AbelianGroup([2] * m)
    transform = group.character_sum_table(inv_signs.reshape(group.factors)).ravel()
    traces, e = [], 1  # Tr(x^k) for k < 2m - 1
    for _ in range(2 * m - 1):
        traces.append(bin(e & fld._trace_mask).count("1") & 1)
        e = _poly_mul_mod(e, 2, fld.modulus, m)
    labels = np.zeros(1, dtype=np.int64)
    for j in range(m):  # b(a + x^j) = b(a) + b(x^j) for a < 2^j
        labels = np.concatenate((labels, labels ^ sum(traces[i + j] << i for i in range(m))))
    values = transform[labels]
    assert (values * values <= 4 * fld.order).all(), "Weil bound"
    return values


class KloostermanTable:
    """The map a -> k_m(a) over all of GF(2^m): ``values[a]`` is k_m(a), a
    read-only int64 array."""

    def __init__(self, m, values, modulus):
        self.m = m
        self.values = values
        self.values.flags.writeable = False
        self.modulus = modulus

    @classmethod
    def compute(cls, m):
        fld = Gf2Field(m)
        return cls(m, _kloosterman_values(fld, _sign_tables(fld)[1]), fld.modulus)

    def __getitem__(self, a):
        if not 0 <= a < self.values.size:
            raise KeyError(a)
        return int(self.values[a])


def kloosterman_value_set(m):
    """The set ``{k_m(lambda) : lambda in GF(2^m)}``, enumerated by
    :meth:`KloostermanTable.compute` (m >= 2; 2^m is bounded by ``MAX_ORDER``)."""
    if m < 2:
        raise ValueError(f"m must be >= 2 for the value set, got {m}")
    return set(KloostermanTable.compute(m).values.tolist())

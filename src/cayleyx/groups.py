"""Finite abelian groups as products of cyclic factors, and their characters.

A group is given by its factor list ``[d_1, ..., d_t]`` (each ``d_i >= 2``)
and represents ``Z_{d_1} x ... x Z_{d_t}`` written additively.  At the API
and JSON edges elements and character indices are tuples of residues.  Inside
the pipeline an element is its flat index, the ravel (lexicographic) rank of
its coordinates on the factor grid, so index 0 is the identity; only this
module converts between the two (:meth:`AbelianGroup.indices` for tuples,
:meth:`AbelianGroup.ravel` for coordinate arrays, and back by
:meth:`AbelianGroup.elements_at` and :meth:`AbelianGroup.digits`).
The character indexed by ``a`` sends ``x`` to ``prod_i exp(2*pi*i*a_i*x_i/d_i)``,
and the dual group is indexed exactly like the group itself.

Character sums are the workhorse of everything downstream: the eigenvalues of
a Cayley graph on ``G`` with connection set ``C`` are the values ``chi(C)``
over all characters ``chi``.  Group-ring products (difference counts,
neighbourhoods of vertex sets, the edges of a cut) multiply character tables, and
:meth:`AbelianGroup.counts`, the one exact inverse of
:meth:`AbelianGroup.character_sum_table`, turns a product of tables back
into integer counts on the grid.  On ``Z_2^m`` (every factor 2) the flat
index is the bit pattern of the coordinates and every character is ``+-1``,
so the transform is the Walsh-Hadamard transform: Kronecker factors of at
most 5 bits on BLAS, exact by a proven bound.  Every other group uses the FFT.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

__all__ = ["AbelianGroup", "MAX_ORDER", "check_order", "check_order_log2", "cyclic",
           "sorted_unique"]

# The one size limit of every graph and GF(2^m) table: at 2^24 a construct took
# 7-16 s and 1.0-1.8 GB in a fresh process (2 vCPUs, one BLAS thread, 2026-10).
MAX_ORDER = 1 << 24


def check_order(n, what):
    """Refuse an order ``n`` above ``MAX_ORDER`` (read at call time) with
    ValueError, before anything of size n exists."""
    if n > MAX_ORDER:
        _refuse(what, n if n.bit_length() <= 64 else f">= 2^{n.bit_length() - 1}")


def check_order_log2(m, what):
    """Return n = 2^m, refused as by :func:`check_order` but by comparing
    exponents: an m from outside the program builds no m-bit int."""
    if m >= MAX_ORDER.bit_length():
        _refuse(what, 1 << m if m <= 64 else f"2^{m}")
    return 1 << m


def _refuse(what, got):  # got beyond 64 bits is a power of 2: str() refuses > 4300 digits
    raise ValueError(f"{what} is limited to n <= {MAX_ORDER}, got {got}")


def sorted_unique(values, return_counts=False):
    """The ascending distinct values of an array, and with ``return_counts``
    how often each occurs, by a sort and a neighbour compare.  (numpy 2.4's
    hash-based unique took 9.5-10 s on 2^23 distinct int64 values where this
    takes 0.2 s, and it imports ``numpy.ma``.)"""
    x = np.sort(np.ravel(values))
    first = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    if not return_counts:
        return x[first]
    return x[first], np.diff(np.append(np.flatnonzero(first), x.size))


# Index bits per Kronecker factor H_{2^b}, whose entry (i, j) is (-1)^popcount(i & j).
_BLOCK_BITS = 5
_HADAMARD = {(b, t): (-1.0) ** np.bitwise_count(i[:, None] & i).astype(t)
             for b in range(1, _BLOCK_BITS + 1) for i in [np.arange(1 << b)]
             for t in (np.float32, np.float64)}


def _wht(rows, bound):
    """The unnormalised Walsh-Hadamard transform of integer ``rows`` (last axis
    n = 2^m) as floats, for ``bound`` >= each row's sum of |x|: per b <= 5 bits
    from j up, one matmul of H_{2^b} on the (rows, n >> (j + b), 2^b, 2^j) view
    (rows times the symmetric H at j = 0).  Every partial sum is a signed sum of
    a row, an integer <= ``bound`` in any BLAS order, FMA too: exact in float32
    below 2^24, in float64 below 2^53; from 2^53 on it raises ArithmeticError."""
    if not bound < 2 ** 53:
        raise ArithmeticError("Walsh-Hadamard row sum of |x| reaches 2^53")
    w = np.asarray(rows, dtype=np.float32 if bound < 2 ** 24 else np.float64)
    n, m = w.shape[-1], w.shape[-1].bit_length() - 1
    for j in range(0, m, _BLOCK_BITS):
        b = min(_BLOCK_BITS, m - j)
        h = _HADAMARD[b, w.dtype.type]
        w = (np.matmul(h, w.reshape(-1, n >> (j + b), 1 << b, 1 << j)) if j
             else np.matmul(w.reshape(-1, 1 << b), h))
    return w.reshape(np.shape(rows))


def _row_bound(rows):
    """The largest row sum of ``|x|`` of integer rows, a float that reaches 2^24
    or 2^53 iff the exact sum does; a non-integral entry raises ArithmeticError."""
    if rows.dtype.kind not in "biu" and (np.rint(rows) != rows).any():
        raise ArithmeticError("Walsh-Hadamard transform of a non-integral array")
    return np.abs(rows).sum(axis=-1, dtype=float).max(initial=0.0)


class AbelianGroup:
    """``Z_{d_1} x ... x Z_{d_t}``, written additively.

    At the API and JSON edges an element is a tuple of ints with
    ``0 <= x_i < d_i`` and the identity is ``zero``; everywhere else it is
    its flat index.  Instances are immutable and safe to share.
    """

    def __init__(self, factors):
        try:
            factors = tuple(operator.index(d) for d in factors)
        except TypeError:
            raise ValueError(f"factors must be integers, got {factors!r}") from None
        if not factors or any(d < 2 for d in factors):
            raise ValueError(f"every factor must be >= 2, got {factors}")
        self.factors = factors
        self.order = math.prod(factors)
        self.zero = (0,) * len(factors)
        # Z_2^m: the characters are +-1 and the transform is _wht
        self._binary = set(factors) == {2}

    # -- basic structure -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"AbelianGroup({list(self.factors)})"

    def elements(self):
        """All elements in lexicographic order on coords."""
        return [tuple(t) for t in itertools.product(*(range(d) for d in self.factors))]

    def index_of(self, g):
        """Lexicographic rank of one element: its flat index, by the
        element-at-a-time parse of :meth:`indices`."""
        return int(self._parse_elements([g], False)[0])

    # -- flat indices -------------------------------------------------------

    def indices(self, elements, distinct=False):
        """Sorted distinct flat indices (int64) of coordinate tuples, each
        coordinate reduced modulo its factor; a bad arity or a non-integer
        (a bool included) raises ValueError, and so, with ``distinct``, does
        an element that coincides with an earlier one after reduction.

        A list of lists or tuples is parsed as one array: the coordinate
        types are collected first (``np.array`` would read a bool as 1), the
        rows become one int64 array (an object array, reduced as Python
        ints, when a coordinate is beyond int64), and arity, reduction and
        distinctness are array checks.  Only when one of them fails, or the
        input is not such a list, are the elements read one at a time, which
        names the offending element.
        """
        elements = list(elements)
        try:
            idx = self._parse_rows(elements)
        except (TypeError, ValueError):
            idx = None
        if idx is not None:
            unique = sorted_unique(idx)
            if not distinct or unique.size == idx.size:
                return unique
        return self._parse_elements(elements, distinct)

    def _parse_rows(self, rows):
        """Flat indices of a list of coordinate lists or tuples in input
        order, or None when it is not one of integers of the right arity
        (ragged rows raise ValueError)."""
        if not rows:
            return np.zeros(0, dtype=np.int64)
        if not set(map(type, rows)) <= {list, tuple}:
            return None
        kinds = set(map(type, itertools.chain.from_iterable(rows)))
        if any(issubclass(k, bool) or not issubclass(k, (int, np.integer)) for k in kinds):
            return None
        try:
            x = np.array(rows, dtype=np.int64)
        except OverflowError:  # beyond int64: reduced as Python ints below
            x = np.array(rows, dtype=object)
        if x.ndim != 2 or x.shape[1] != len(self.factors):
            return None
        if x.dtype == object:
            x = (x % np.array(self.factors, dtype=object)).astype(np.int64)
        d = np.array(self.factors)
        if x.min() < 0 or (x >= d).any():
            x %= d
        return np.ravel_multi_index(tuple(x.T), self.factors)

    def _parse_elements(self, elements, distinct):
        """:meth:`indices` one element at a time, raising at the first
        offending element."""
        found = set()
        for g in elements:
            g = tuple(g)
            if len(g) != len(self.factors):
                raise ValueError(f"element {g!r} has {len(g)} coordinates, "
                                 f"group has {len(self.factors)} factors")
            idx = 0
            for x, d in zip(g, self.factors):
                try:
                    if isinstance(x, bool):
                        raise TypeError
                    idx = idx * d + operator.index(x) % d
                except TypeError:
                    raise ValueError(f"element {g!r} has a non-integer coordinate") from None
            if distinct and idx in found:
                raise ValueError(f"element {g!r} coincides with an earlier element "
                                 f"modulo the factors")
            found.add(idx)
        return np.array(sorted(found), dtype=np.int64)

    def elements_at(self, indices):
        """Coordinate tuples (of Python ints) of an array of flat indices."""
        coords = np.unravel_index(np.asarray(indices, dtype=np.int64), self.factors)
        return list(zip(*(c.tolist() for c in coords)))

    def digits(self, indices):
        """Yield ``(i, x_i)``, the int64 coordinate arrays of flat indices,
        last factor first by ``divmod``: one digit array at a time."""
        rest = np.asarray(indices, dtype=np.int64)
        for i in reversed(range(len(self.factors))):
            rest, digit = np.divmod(rest, self.factors[i])
            yield i, digit

    def ravel(self, coords):
        """Flat indices of integer coordinate arrays, one per factor
        (broadcastable), each reduced modulo its factor."""
        return np.ravel_multi_index(tuple(c % d for c, d in zip(coords, self.factors)), self.factors)

    def add_indices(self, x, y):
        """Flat index of ``x + y`` for broadcastable flat-index arrays."""
        cx = np.unravel_index(x, self.factors)
        cy = np.unravel_index(y, self.factors)
        return self.ravel([a + b for a, b in zip(cx, cy)])

    def neg_indices(self, x):
        """Flat index of ``-x`` for an array of flat indices (``x`` itself,
        as int64, on Z_2^m, where -x = x)."""
        if self._binary:
            return np.asarray(x, dtype=np.int64)
        return self.ravel([-a for a in np.unravel_index(x, self.factors)])

    def indicator(self, indices):
        """The 0/1 float array on the factor grid with a 1 at each flat index."""
        ind = np.zeros(self.order)
        ind[indices] = 1.0
        return ind.reshape(self.factors)

    def character_sum_table(self, indicator):
        """``chi_a(C)`` for every character index ``a`` from the grid array of
        ``C``, on the same grid (leading axes broadcast).  On ``Z_2^m`` it is
        the Walsh-Hadamard transform, an exact int64 table (a non-integral
        input or a row sum of |x| from 2^53 raises ArithmeticError); otherwise a
        multidimensional DFT, conjugated to the characters of the module
        docstring.  For symmetric ``C`` every entry is real."""
        if self._binary:
            x = np.asarray(indicator)
            rows = x.reshape(x.shape[:x.ndim - len(self.factors)] + (self.order,))
            bound = self.order if x.dtype.kind == "b" else _row_bound(rows)
            return _wht(rows, bound).astype(np.int64).reshape(x.shape)
        axes = tuple(range(-len(self.factors), 0))
        z = np.array(indicator, dtype=complex)  # transformed and conjugated in place
        np.fft.fftn(z, axes=axes, out=z)
        return np.conjugate(z, out=z)  # fftn uses exp(-2*pi*i...); we want +

    def counts(self, a, b):
        """The integer grid array whose character table is ``a * b`` (leading
        axes broadcast): ``counts(T(x), T(y))`` is the convolution ``x * y``
        for the transform ``T`` of :meth:`character_sum_table`.  On ``Z_2^m``
        it is ``W(a * b) / n`` (``W`` the Walsh-Hadamard transform): a product
        that could reach 2^53, a non-integral entry or a remainder of the
        division raises ArithmeticError.  Otherwise it is ``fftn(a * b) / n``,
        rounded; a value more than 0.25 from an integer raises ArithmeticError."""
        if self._binary:
            if float(np.abs(a).max(initial=0)) * float(np.abs(b).max(initial=0)) >= 2 ** 53:
                raise ArithmeticError("product of character tables would reach 2^53")
            p = np.multiply(a, b)
            rows = p.reshape(p.shape[:p.ndim - len(self.factors)] + (self.order,))
            z = _wht(rows, _row_bound(rows)).astype(np.int64)
            if (z & (self.order - 1)).any():
                raise ArithmeticError("character tables of a non-integral array")
            return (z >> len(self.factors)).reshape(p.shape)
        axes = tuple(range(-len(self.factors), 0))
        z = np.multiply(a, b, dtype=complex)  # transformed, scaled and checked in place
        np.fft.fftn(z, axes=axes, out=z)
        z /= self.order
        counts = np.rint(z.real)
        if np.abs(np.subtract(z, counts, out=z)).max() > 0.25:
            raise ArithmeticError("character tables of a non-integral array")
        return counts.astype(np.int64)

    def convolve(self, x, y):
        """``(x * y)[g] = sum_{a + b = g} x[a] y[b]`` of integer grid arrays."""
        return self.counts(self.character_sum_table(x), self.character_sum_table(y))

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["factors"])


def cyclic(n):
    """Shorthand for ``Z_n``; elements are 1-tuples."""
    return AbelianGroup([n])

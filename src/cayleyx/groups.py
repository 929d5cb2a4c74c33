"""Finite abelian groups as products of cyclic factors, and their characters.

A group is given by its factor list ``[d_1, ..., d_t]`` (each ``d_i >= 2``)
and represents ``Z_{d_1} x ... x Z_{d_t}`` written additively.  At the API
and JSON edges elements and character indices are tuples of residues.  Inside
the pipeline an element is its flat index, the ravel (lexicographic) rank of
its coordinates on the factor grid, so index 0 is the identity; only this
module converts between the two (:meth:`AbelianGroup.indices` for tuples,
:meth:`AbelianGroup.ravel` for coordinate arrays, and back).
The character indexed by ``a`` sends ``x`` to ``prod_i exp(2*pi*i*a_i*x_i/d_i)``,
and the dual group is indexed exactly like the group itself.

Character sums are the workhorse of everything downstream: the eigenvalues of
a Cayley graph on ``G`` with connection set ``C`` are the values ``chi(C)``
over all characters ``chi``.  Group-ring products (difference counts,
neighbourhoods of vertex sets) multiply character tables, and
:meth:`AbelianGroup.counts`, the one exact inverse of
:meth:`AbelianGroup.character_sum_table`, turns a product of tables back
into integer counts on the grid.  On ``Z_2^m`` (every factor 2) the flat
index is the bit pattern of the coordinates and every character is ``+-1``,
so the transform is the Walsh-Hadamard transform: an int64 butterfly, exact
by construction.  Every other group goes through the multidimensional FFT.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

__all__ = ["AbelianGroup", "cyclic"]

# Butterfly sums must stay below this (2^62 leaves room for the float
# rounding of the bound that is checked against it).
_INT64_SAFE = 2.0 ** 62


def _butterfly(w):
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
        # Z_2^m: the characters are +-1 and the transform is the butterfly
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
        """Lexicographic rank of an element: its flat index."""
        return int(self.indices([g])[0])

    def element_at(self, idx):
        return self.elements_at([idx])[0]

    # -- flat indices -------------------------------------------------------

    def indices(self, elements, distinct=False):
        """Sorted distinct flat indices (int64) of coordinate tuples, each
        coordinate reduced modulo its factor; a bad arity or a non-integer
        (a bool included) raises ValueError, and so, with ``distinct``, does
        an element that coincides with an earlier one after reduction."""
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
        """Flat index of ``-x`` for an array of flat indices."""
        return self.ravel([-a for a in np.unravel_index(x, self.factors)])

    def indicator(self, indices):
        """The 0/1 float array on the factor grid with a 1 at each flat index."""
        ind = np.zeros(self.order)
        ind[indices] = 1.0
        return ind.reshape(self.factors)

    def group_matrix(self, x):
        """The n x n matrix ``M[u, v] = x[v - u]`` (flat indices) of a grid array.

        Row 0 is ``x``.  Factors are filled last to first by doubling: with
        the later factors' rows done and rows ``u_i < s`` of factor i done,
        rows ``u_i`` in ``[s, 2s)`` are those rows with the columns rolled by
        s along factor i, two block copies.  The rows done so far are always
        a leading block, so nothing but the result is allocated; on a run of
        size-2 factors this is ``M[s:2s] = M[:s]`` with column blocks of
        width s swapped (v - u is XOR there).
        """
        n = self.order
        M = np.empty((n, n))
        M[0] = np.ravel(x)
        post = 1  # rows per step of u_i: the product of the later factors
        for d in reversed(self.factors):
            pre = n // (d * post)
            s = 1
            while s < d:
                w = min(s, d - s)
                src = M[:w * post].reshape(w * post, pre, d, post)
                dst = M[s * post:(s + w) * post].reshape(w * post, pre, d, post)
                dst[:, :, s:] = src[:, :, :d - s]
                dst[:, :, :s] = src[:, :, d - s:]
                s += w
            post *= d
        return M

    def character_sum_table(self, indicator):
        """``chi_a(C)`` for every character index ``a`` from the grid array of
        ``C``, on the same grid (leading axes broadcast).  On ``Z_2^m`` it is
        the Walsh-Hadamard transform, an exact int64 table (a non-integral
        input or an int64 overflow raises ArithmeticError); otherwise a
        multidimensional DFT, conjugated to the characters of the module
        docstring.  For symmetric ``C`` every entry is real."""
        if self._binary:
            return _butterfly(self._int64_rows(indicator)).reshape(np.shape(indicator))
        axes = tuple(range(-len(self.factors), 0))
        return np.conj(np.fft.fftn(indicator, axes=axes))  # fftn uses exp(-2*pi*i...); we want +

    def counts(self, a, b):
        """The integer grid array whose character table is ``a * b`` (leading
        axes broadcast): ``counts(T(x), T(y))`` is the convolution ``x * y``
        for the transform ``T`` of :meth:`character_sum_table`.  On ``Z_2^m``
        it is ``W(a * b) / n`` with the butterfly ``W``: a product that could
        overflow int64, a non-integral entry or a remainder of the division
        raises ArithmeticError.  Otherwise it is ``fftn(a * b) / n``, rounded;
        a value more than 0.25 from an integer raises ArithmeticError."""
        if self._binary:
            if float(np.abs(a).max(initial=0)) * float(np.abs(b).max(initial=0)) >= _INT64_SAFE:
                raise ArithmeticError("product of character tables would overflow int64")
            z = _butterfly(self._int64_rows(np.multiply(a, b)))
            if (z & (self.order - 1)).any():
                raise ArithmeticError("character tables of a non-integral array")
            return (z >> len(self.factors)).reshape(z.shape[:-1] + self.factors)
        axes = tuple(range(-len(self.factors), 0))
        z = np.fft.fftn(np.multiply(a, b), axes=axes) / self.order
        counts = np.rint(z.real)
        if np.abs(z - counts).max() > 0.25:
            raise ArithmeticError("character tables of a non-integral array")
        return counts.astype(np.int64)

    def convolve(self, x, y):
        """``(x * y)[g] = sum_{a + b = g} x[a] y[b]`` of integer grid arrays."""
        return self.counts(self.character_sum_table(x), self.character_sum_table(y))

    def _int64_rows(self, x):
        """A grid array (leading axes broadcast) as a fresh C-ordered int64
        array of shape (..., n) for the butterfly.  A non-integral entry, or a
        row whose absolute values sum to 2^62 or more (that sum bounds every
        partial sum of the butterfly), raises ArithmeticError."""
        x = np.asarray(x)
        shape = x.shape[:x.ndim - len(self.factors)] + (self.order,)
        w = np.array(x, dtype=np.int64, order="C").reshape(shape)
        if x.dtype.kind not in "biu" and (w != x.reshape(shape)).any():
            raise ArithmeticError("Walsh-Hadamard transform of a non-integral array")
        if np.abs(w).sum(axis=-1, dtype=float).max(initial=0.0) >= _INT64_SAFE:
            raise ArithmeticError("Walsh-Hadamard transform would overflow int64")
        return w

    def subgroup_generated(self, gens):
        """Closure of ``gens`` under addition and negation (contains 0)."""
        gens, T = self.indices(gens), self.character_sum_table
        step = T(self.indicator(np.concatenate(([0], gens, self.neg_indices(gens)))))
        closure = self.indicator([0])
        while True:
            nxt = self.counts(T(closure), step) > 0
            if nxt.sum() == closure.sum():
                return frozenset(self.elements_at(np.flatnonzero(nxt)))
            closure = nxt

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {"factors": list(self.factors)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["factors"])


def cyclic(n):
    """Shorthand for ``Z_n``; elements are 1-tuples."""
    return AbelianGroup([n])
